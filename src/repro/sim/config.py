"""System configuration (paper Table 1).

One :class:`SystemConfig` fully describes a simulated machine: cores,
caches, prefetcher, DRAM geometry/timing, memory scheduler, and whether
the module is commodity DRAM or GS-DRAM(c, s, p).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.dram.address import AddressMapping, Geometry, MappingPolicy
from repro.errors import ConfigError


class Mechanism(enum.Enum):
    """Which memory substrate backs the system."""

    PLAIN_DRAM = "plain"
    GS_DRAM = "gs-dram"
    #: Impulse-style controller-side gather over commodity DRAM
    #: [Carter+ HPCA'99] — the paper's Section 7 comparison point.
    IMPULSE = "impulse"


class SchedulerKind(enum.Enum):
    FCFS = "fcfs"
    FR_FCFS = "fr-fcfs"


@dataclass(frozen=True)
class SystemConfig:
    """Table 1 defaults: 1-2 in-order x86 cores @4 GHz, 32 KB L1s,
    2 MB shared L2, DDR3-1600 single channel/rank, 8 banks, open row,
    FR-FCFS, GS-DRAM(8,3,3)."""

    cores: int = 1
    cpu_ghz: float = 4.0
    mechanism: Mechanism = Mechanism.GS_DRAM
    # Caches (64-byte lines everywhere).
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: int = 4
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 12
    # Prefetcher (Section 5.1: PC-based stride, degree 4, into L2).
    prefetch: bool = False
    prefetch_degree: int = 4
    # DRAM.
    channels: int = 1  # Table 1 uses one channel; Section 4.2 extension
    geometry: Geometry = field(default_factory=Geometry)
    mapping_policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN
    cpu_per_bus: int = 5  # 4 GHz core / 800 MHz DDR3-1600 bus
    scheduler: SchedulerKind = SchedulerKind.FR_FCFS
    open_row_policy: bool = True  # Table 1: open row
    refresh: bool = False
    # GS-DRAM(c, s, p) parameters (c comes from geometry.chips).
    shuffle_stages: int = 3
    pattern_bits: int = 3
    shuffle_latency: int = 3  # cycles per read/write through the network
    # Core execution model.
    sync_interval: int = 400
    #: Dynamic pattern detection (the paper's Section 4 future work):
    #: transparently rewrite record-strided scalar loads into gathers.
    auto_pattern: bool = False
    #: Store buffer depth: 0 = blocking stores; N > 0 lets the core
    #: continue past up to N outstanding store misses.
    store_buffer: int = 0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("need at least one core")
        if self.mechanism is Mechanism.GS_DRAM and self.shuffle_stages < 0:
            raise ConfigError("shuffle_stages must be non-negative")
        if self.channels < 1:
            raise ConfigError("need at least one channel")

    @property
    def is_gs(self) -> bool:
        return self.mechanism is Mechanism.GS_DRAM

    def with_(self, **overrides) -> "SystemConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


def table1_config(**overrides) -> SystemConfig:
    """The paper's simulated system (Table 1), with optional overrides."""
    return SystemConfig().with_(**overrides) if overrides else SystemConfig()


def plain_dram_config(**overrides) -> SystemConfig:
    """Same machine with a commodity (non-GS) DRAM module."""
    return SystemConfig(mechanism=Mechanism.PLAIN_DRAM).with_(**overrides)


def impulse_config(**overrides) -> SystemConfig:
    """Same machine with an Impulse-style gathering memory controller."""
    return SystemConfig(mechanism=Mechanism.IMPULSE).with_(**overrides)


def require_gathers_in_row(config: SystemConfig, user: str) -> SystemConfig:
    """``config``, after checking that ``user``'s gathers hold on it.

    The gathering layouts place the lines one gather covers in
    consecutive columns of one DRAM row, which needs the address bits
    the CTL rewrites to be column bits
    (:meth:`~repro.dram.address.AddressMapping.gathers_in_row`). A
    mapping or a row width that breaks this is refused with
    :class:`ConfigError` instead of returning values from other lines.
    """
    mapping = AddressMapping(config.geometry, config.mapping_policy)
    if not mapping.gathers_in_row(config.pattern_bits):
        raise ConfigError(
            f"{user} needs the low pattern_bits={config.pattern_bits} "
            f"line-address bits, which the CTL rewrites, to be column "
            f"bits; mapping_policy={config.mapping_policy.value!r} with "
            f"columns_per_row={config.geometry.columns_per_row} puts "
            f"bank or row bits among them"
        )
    return config
