"""Byte spans and memoised gathers against the per-line path.

For every module flavour under both mapping policies:
``write_bytes``/``read_bytes`` (partial lines read-modify-written,
whole lines moved in bulk) must agree byte for byte with a loop of
pattern-0 ``write_line``/``read_line`` calls; every memoised gather
must equal the line assembled from the scalar ``lane_map``; and an
invalid pattern must raise on its first and its repeated use.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.module import GSModule
from repro.core.shuffle import LSBShuffle, MaskedShuffle, NoShuffle, XorFoldShuffle
from repro.dram.address import Geometry, MappingPolicy
from repro.dram.module import DRAMModule
from repro.errors import AddressError, PatternError
from repro.mem.channels import MultiChannelModule
from repro.mem.impulse import ImpulseModule

GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=2, columns_per_row=64)
LINE = GEOMETRY.line_bytes
WIDTH = GEOMETRY.column_bytes


def gs(**kwargs):
    return lambda policy: GSModule(GEOMETRY, policy=policy, **kwargs)


FLAVOURS = {
    "dram": lambda policy: DRAMModule(GEOMETRY, policy=policy),
    "gs-lsb": gs(),
    "gs-lsb-partial": gs(shuffle=LSBShuffle(2)),
    "gs-masked": gs(shuffle=MaskedShuffle(3, 0b101)),
    "gs-xor-fold": gs(shuffle=XorFoldShuffle(3)),
    "gs-no-shuffle": gs(shuffle=NoShuffle()),
    "gs-wide-patterns": gs(pattern_bits=6),
    "impulse": lambda policy: ImpulseModule(GEOMETRY, policy=policy),
    "multichannel": lambda policy: MultiChannelModule(
        [GSModule(GEOMETRY, policy=policy) for _ in range(2)]
    ),
}


def write_by_lines(module, address, data, shuffled):
    position = 0
    while position < len(data):
        base = module.mapping.line_address(address + position)
        offset = address + position - base
        take = min(len(data) - position, LINE - offset)
        line = bytearray(module.read_line(base, 0, shuffled))
        line[offset : offset + take] = data[position : position + take]
        module.write_line(base, bytes(line), 0, shuffled)
        position += take


def read_by_lines(module, address, length, shuffled):
    out = bytearray()
    while length > 0:
        base = module.mapping.line_address(address)
        offset = address - base
        take = min(length, LINE - offset)
        out += module.read_line(base, 0, shuffled)[offset : offset + take]
        address += take
        length -= take
    return bytes(out)


def check_gather(module, rng, column, pattern, shuffled):
    """A gather through the slot tables vs the scalar lane map."""
    bank = rng.randrange(GEOMETRY.banks)
    row = rng.randrange(GEOMETRY.rows_per_bank)
    address = module.mapping.encode(bank, row, column)
    if not isinstance(module, GSModule):
        if pattern != 0 and not module.supports_patterns:
            for _ in range(2):
                with pytest.raises(AddressError):
                    module.read_line(address, pattern, shuffled)
        return
    try:
        lanes = module.lane_map(column, pattern, shuffled)
        order = module.assembly_order(column, pattern, shuffled)
    except (AddressError, PatternError) as error:
        for _ in range(2):
            with pytest.raises(type(error)):
                module.read_line(address, pattern, shuffled)
            with pytest.raises(type(error)):
                module.gather_slots(column, pattern, shuffled)
        return
    raw = module.rank.read_row(bank, row)
    chips = GEOMETRY.chips
    expected = b"".join(
        raw[(lanes[chip][0] * chips + chip) * WIDTH :][:WIDTH] for chip in order
    )
    for _ in range(2):
        assert module.read_line(address, pattern, shuffled) == expected
    slots = module.gather_slots(column, pattern, shuffled)
    assert list(slots) == [lanes[chip][0] * chips + chip for chip in order]
    assert not slots.flags.writeable


span = st.tuples(st.integers(0, 1 << 15), st.integers(0, 3 * GEOMETRY.row_bytes),
                 st.booleans())


@pytest.mark.parametrize("policy", list(MappingPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("flavour", list(FLAVOURS))
@settings(max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    writes=st.lists(span, min_size=1, max_size=3),
    read=span,
    gather=st.tuples(st.integers(0, GEOMETRY.columns_per_row - 1),
                     st.integers(-1, 64), st.booleans()),
)
def test_spans_and_gathers_match_the_per_line_path(
    flavour, policy, seed, writes, read, gather
):
    bulk, reference = FLAVOURS[flavour](policy), FLAVOURS[flavour](policy)
    capacity = bulk.geometry.capacity_bytes
    rng = random.Random(seed)
    for base in range(0, capacity, LINE):
        line, shuffled = rng.randbytes(LINE), rng.random() < 0.5
        bulk.write_line(base, line, 0, shuffled)
        reference.write_line(base, line, 0, shuffled)

    for address, length, shuffled in writes:
        address %= capacity
        data = rng.randbytes(min(length, capacity - address))
        bulk.write_bytes(address, data, shuffled)
        write_by_lines(reference, address, data, shuffled)
    address, length, shuffled = read
    address %= capacity
    length = min(length, capacity - address)
    assert bulk.read_bytes(address, length, shuffled) == read_by_lines(
        reference, address, length, shuffled
    )
    for shuffled in (False, True):
        assert read_by_lines(bulk, 0, capacity, shuffled) == read_by_lines(
            reference, 0, capacity, shuffled
        )

    channel = bulk.channels[0] if flavour == "multichannel" else bulk
    check_gather(channel, rng, *gather)


def test_span_outside_capacity_raises():
    module = FLAVOURS["gs-lsb"](MappingPolicy.ROW_BANK_COLUMN)
    capacity = module.geometry.capacity_bytes
    with pytest.raises(AddressError):
        module.write_bytes(capacity - LINE, bytes(3 * LINE))
    with pytest.raises(AddressError):
        module.read_bytes(capacity, LINE)
