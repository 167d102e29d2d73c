"""Multi-channel memory systems (paper Section 4.2).

Table 1's evaluation machine has a single channel, but Section 4.2
notes that with multiple channels (or ranks) the controller "must
access the corresponding cache line within each channel ... and
interleave the data from different channels appropriately".

This module provides a clean multi-channel composition:

- :class:`MultiChannelModule` — N identical modules behind one
  module-shaped facade. Interleaving is at **DRAM-row granularity**
  (consecutive global rows alternate channels), so a gathered group —
  which by construction lives inside one row — never straddles
  channels and every request routes to exactly one channel. (Cache-
  line-granularity interleaving would split gathers across channels;
  the facade rejects that configuration explicitly rather than model
  it wrong.)
- :class:`MultiChannelController` — one controller per channel plus a
  router; aggregate statistics mirror the single-controller interface.

Bank identifiers in the combined address space are globalised
(``channel * banks_per_module + local_bank``) so cache-layer row keys
stay unique.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.address import DecodedAddress
from repro.dram.module import DRAMModule
from repro.errors import AddressError, ConfigError
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest
from repro.mem.schedulers import Scheduler
from repro.utils.bitops import split_span
from repro.utils.events import Engine
from repro.utils.statistics import Histogram, StatGroup


@dataclass(frozen=True)
class _CombinedGeometry:
    """Geometry facade over N identical channels."""

    channels: int
    chips: int
    banks: int  # global bank count (channels * per-channel banks)
    rows_per_bank: int
    columns_per_row: int
    column_bytes: int
    row_bytes: int
    capacity_bytes: int

    @property
    def line_bytes(self) -> int:
        return self.chips * self.column_bytes


class _CombinedMapping:
    """Address mapping facade: global address <-> (channel, local)."""

    def __init__(self, modules: list[DRAMModule]) -> None:
        self.channels = len(modules)
        self._local = modules[0].mapping
        self.row_bytes = modules[0].geometry.row_bytes
        self.line_bytes = modules[0].line_bytes
        self.column_bits = self._local.column_bits
        self._banks_per_channel = modules[0].geometry.banks
        self._capacity = modules[0].geometry.capacity_bytes * self.channels

    def line_address(self, address: int) -> int:
        return address & ~(self.line_bytes - 1)

    def route(self, address: int) -> tuple[int, int]:
        """(channel, channel-local address) for a global address."""
        if address < 0 or address >= self._capacity:
            raise AddressError(f"address {address:#x} out of range")
        global_row, within = divmod(address, self.row_bytes)
        channel = global_row % self.channels
        local_row = global_row // self.channels
        return channel, local_row * self.row_bytes + within

    def global_address(self, channel: int, local: int) -> int:
        local_row, within = divmod(local, self.row_bytes)
        return (local_row * self.channels + channel) * self.row_bytes + within

    def encode(self, bank: int, row: int, column: int, offset: int = 0) -> int:
        """Global address from globalised-bank coordinates."""
        channel, local_bank = divmod(bank, self._banks_per_channel)
        local = self._local.encode(local_bank, row, column, offset)
        return self.global_address(channel, local)


class MultiChannelModule:
    """Module facade over N identical channels (row-interleaved)."""

    def __init__(self, modules: list[DRAMModule]) -> None:
        if len(modules) < 2:
            raise ConfigError("MultiChannelModule needs >= 2 channels")
        first = modules[0]
        for module in modules[1:]:
            if module.geometry != first.geometry:
                raise ConfigError("all channels must share one geometry")
            if module.supports_patterns != first.supports_patterns:
                raise ConfigError("all channels must share one mechanism")
        self.channels = modules
        self.mapping = _CombinedMapping(modules)
        g = first.geometry
        self.geometry = _CombinedGeometry(
            channels=len(modules),
            chips=g.chips,
            banks=g.banks * len(modules),
            rows_per_bank=g.rows_per_bank,
            columns_per_row=g.columns_per_row,
            column_bytes=g.column_bytes,
            row_bytes=g.row_bytes,
            capacity_bytes=g.capacity_bytes * len(modules),
        )
        self.timing = first.timing
        self.cpu_per_bus = first.cpu_per_bus
        self._banks_per_channel = g.banks

    @property
    def line_bytes(self) -> int:
        return self.geometry.line_bytes

    @property
    def supports_patterns(self) -> bool:
        return self.channels[0].supports_patterns

    # ------------------------------------------------------------------
    def route(self, address: int) -> tuple[int, int]:
        return self.mapping.route(address)

    def decode(self, address: int) -> DecodedAddress:
        """Decode with globalised bank IDs (unique across channels)."""
        channel, local = self.route(address)
        loc = self.channels[channel].decode(local)
        return DecodedAddress(
            bank=channel * self._banks_per_channel + loc.bank,
            row=loc.row,
            column=loc.column,
            offset=loc.offset,
        )

    def overlapping_columns(self, column: int, pattern: int) -> set[int]:
        return self.channels[0].overlapping_columns(column, pattern)  # type: ignore[attr-defined]

    def constituents(self, address: int, pattern: int, shuffled: bool = True):
        """Globalised constituents: delegate, then re-route addresses."""
        channel, local = self.route(address)
        local_parts = self.channels[channel].constituents(local, pattern, shuffled)  # type: ignore[attr-defined]
        return [
            (self.mapping.global_address(channel, line), offset)
            for line, offset in local_parts
        ]

    # ``shuffled`` defaults to True to mirror the GS module's native
    # default (plain channels ignore the flag).
    def read_line(self, address: int, pattern: int = 0, shuffled: bool = True) -> bytes:
        channel, local = self.route(address)
        return self.channels[channel].read_line(local, pattern, shuffled)

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = True
    ) -> None:
        channel, local = self.route(address)
        self.channels[channel].write_line(local, data, pattern, shuffled)

    def read_bytes(self, address: int, length: int, shuffled: bool = True) -> bytes:
        """Read a byte span, one channel-local span per global row."""
        out = bytearray()
        for start, size in split_span(address, length, self.mapping.row_bytes):
            channel, local = self.route(start)
            out += self.channels[channel].read_bytes(local, size, shuffled)
        return bytes(out)

    def write_bytes(self, address: int, data: bytes, shuffled: bool = True) -> None:
        """Write a byte span, one channel-local span per global row."""
        data = memoryview(data)
        for start, size in split_span(address, len(data), self.mapping.row_bytes):
            channel, local = self.route(start)
            offset = start - address
            self.channels[channel].write_bytes(
                local, data[offset : offset + size], shuffled
            )


class MultiChannelController:
    """Controller facade: routes requests, aggregates statistics."""

    def __init__(
        self,
        engine: Engine,
        module: MultiChannelModule,
        scheduler_factory,
        shuffle_latency: int = 3,
        refresh_enabled: bool = False,
        controller_factory=None,
    ) -> None:
        self.engine = engine
        self.module = module
        if controller_factory is None:
            def controller_factory(channel_module):
                return MemoryController(
                    engine,
                    channel_module,
                    scheduler=scheduler_factory(),
                    shuffle_latency=shuffle_latency,
                    refresh_enabled=refresh_enabled,
                )
        self.controllers = [
            controller_factory(channel_module)
            for channel_module in module.channels
        ]

    def submit(self, request: MemoryRequest) -> None:
        channel, local = self.module.route(request.address)
        request.annotations["channel"] = channel
        request.annotations["global_address"] = request.address
        request.address = local
        self.controllers[channel].submit(request)

    def pending_requests(self) -> int:
        return sum(c.pending_requests() for c in self.controllers)

    @property
    def stats(self) -> StatGroup:
        merged = StatGroup("memory_controllers")
        for controller in self.controllers:
            merged.merge(controller.stats)
        return merged

    @property
    def queue_delay(self) -> Histogram:
        merged = Histogram(bucket_width=50)
        for controller in self.controllers:
            merged.merge(controller.queue_delay)
        return merged
