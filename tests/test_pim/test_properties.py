"""Property-based tests for the in-DRAM compute algebra.

The laws come from the primitive definitions: AND/OR/MAJ are
permutation-invariant, majority with a repeated operand collapses to
it, shifts compose and round-trip when no live bit falls off the edge,
and the PIM row-group policy's address algebra round-trips, before
and after reservations.

The default profile is derandomized (see tests/conftest.py), so these
run as fixed regressions in tier-1 and CI; use HYPOTHESIS_PROFILE=deep
for a wider local search.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, strategies as st  # noqa: E402

from repro.dram.address import Geometry  # noqa: E402
from repro.dram.module import DRAMModule  # noqa: E402
from repro.mem.mapping import PIMRowGroupPolicy  # noqa: E402
from repro.pim.reference import combine_reference, shift_reference  # noqa: E402

ROW_BYTES = 8
rows = st.binary(min_size=ROW_BYTES, max_size=ROW_BYTES)
amounts = st.integers(min_value=1, max_value=ROW_BYTES * 8 - 1)

SMALL = Geometry(chips=8, banks=4, rows_per_bank=32, columns_per_row=16)


def as_int(row: bytes) -> int:
    return int.from_bytes(row, "little")


class TestCombineLaws:
    @given(a=rows, b=rows, op=st.sampled_from(("AND", "OR")))
    def test_two_row_commutativity(self, a, b, op):
        assert combine_reference([a, b], op) == combine_reference([b, a], op)

    @given(a=rows, b=rows, c=rows,
           op=st.sampled_from(("AND", "OR", "MAJ")))
    def test_three_row_permutation_invariance(self, a, b, c, op):
        results = {
            combine_reference(list(perm), op)
            for perm in ((a, b, c), (b, c, a), (c, a, b), (b, a, c))
        }
        assert len(results) == 1

    @given(a=rows, b=rows)
    def test_maj_with_repeated_operand_collapses(self, a, b):
        assert combine_reference([a, a, b], "MAJ") == a

    @given(a=rows, b=rows, c=rows)
    def test_maj_equals_integer_majority(self, a, b, c):
        x, y, z = as_int(a), as_int(b), as_int(c)
        expected = (x & y) | (x & z) | (y & z)
        assert as_int(combine_reference([a, b, c], "MAJ")) == expected

    @given(a=rows, b=rows)
    def test_and_or_match_integer_semantics(self, a, b):
        assert as_int(combine_reference([a, b], "AND")) == as_int(a) & as_int(b)
        assert as_int(combine_reference([a, b], "OR")) == as_int(a) | as_int(b)


class TestShiftLaws:
    @given(row=rows, amount=amounts)
    def test_left_is_multiplication(self, row, amount):
        bits = ROW_BYTES * 8
        expected = (as_int(row) << amount) & ((1 << bits) - 1)
        assert as_int(shift_reference(row, amount, "left")) == expected

    @given(row=rows, amount=amounts)
    def test_right_is_floor_division(self, row, amount):
        assert as_int(shift_reference(row, amount, "right")) == (
            as_int(row) >> amount
        )

    @given(row=rows, amount=amounts)
    def test_round_trip_when_nothing_falls_off(self, row, amount):
        bits = ROW_BYTES * 8
        # Clear the top `amount` bits so the left shift loses nothing.
        kept = as_int(row) & ((1 << (bits - amount)) - 1)
        safe = kept.to_bytes(ROW_BYTES, "little")
        left = shift_reference(safe, amount, "left")
        assert shift_reference(left, amount, "right") == safe

    @given(row=rows, first=amounts, second=amounts)
    def test_shifts_compose(self, row, first, second):
        total = first + second
        composed = shift_reference(
            shift_reference(row, first, "right"), second, "right"
        )
        assert composed == shift_reference(row, total, "right")


class TestMappingPolicyLaws:
    @given(bank=st.integers(0, SMALL.banks - 1),
           row=st.integers(0, SMALL.rows_per_bank - 1))
    def test_static_address_round_trip(self, bank, row):
        policy = PIMRowGroupPolicy(DRAMModule(geometry=SMALL))
        loc = policy.locate(policy.row_address(bank, row))
        assert (loc.bank, loc.row, loc.column, loc.offset) == (bank, row, 0, 0)

    @given(bank=st.integers(0, SMALL.banks - 1),
           count=st.integers(1, SMALL.rows_per_bank))
    def test_reserved_rows_round_trip(self, bank, count):
        policy = PIMRowGroupPolicy(DRAMModule(geometry=SMALL))
        group = policy.reserve_row_group(bank, count)
        assert len(group) == count
        assert list(group) == sorted(group)
        for row in group:
            loc = policy.locate(policy.row_address(bank, row))
            assert (loc.bank, loc.row) == (bank, row)

    @given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=5))
    def test_reservations_never_overlap(self, counts):
        policy = PIMRowGroupPolicy(DRAMModule(geometry=SMALL))
        seen: set[int] = set()
        for count in counts:
            if policy.reserved_rows(0) + count > SMALL.rows_per_bank:
                break
            group = policy.reserve_row_group(0, count)
            assert not (seen & set(group))
            seen.update(group)

    @given(count=st.integers(1, SMALL.rows_per_bank - 1),
           data=st.data())
    def test_allocations_stay_below_every_reservation(self, count, data):
        module = DRAMModule(geometry=SMALL)
        policy = PIMRowGroupPolicy(module)
        group = policy.reserve_row_group(0, count)
        fence = module.mapping.encode(0, group[0], 0)
        size = data.draw(st.integers(1, max(fence, 1)))
        if fence == 0:
            return
        address = policy.malloc(size)
        assert address + size <= fence
        assert policy.locate(address).row < group[0]


class TestDeviceProperties:
    """A thin device-level sample of the same laws (slower, so few)."""

    @given(seed=st.integers(0, 2**16))
    def test_device_maj_collapses(self, seed):
        module = DRAMModule(
            geometry=Geometry(chips=8, banks=2, rows_per_bank=8,
                              columns_per_row=16)
        )
        rng = np.random.default_rng(seed)
        a, b = (
            rng.integers(0, 256, size=module.geometry.row_bytes,
                         dtype=np.uint8).tobytes()
            for _ in range(2)
        )
        module.rank.write_row(0, 0, a)
        module.rank.write_row(0, 1, a)
        module.rank.write_row(0, 2, b)
        module.rank.mra(0, (0, 1, 2), 3, "MAJ")
        assert module.rank.read_row(0, 3) == a
