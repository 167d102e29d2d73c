"""Tests for geometry and address mapping."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.address import AddressMapping, Geometry, MappingPolicy
from repro.errors import AddressError, ConfigError


class TestGeometry:
    def test_default_is_table1_like(self):
        geometry = Geometry()
        assert geometry.chips == 8
        assert geometry.line_bytes == 64
        assert geometry.row_bytes == 8192

    def test_capacity(self):
        geometry = Geometry(banks=2, rows_per_bank=4, columns_per_row=8)
        assert geometry.capacity_bytes == 2 * 4 * 8 * 64
        assert geometry.lines == 2 * 4 * 8

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            Geometry(banks=3)


def small_mapping(policy=MappingPolicy.ROW_BANK_COLUMN) -> AddressMapping:
    return AddressMapping(
        Geometry(banks=4, rows_per_bank=8, columns_per_row=16), policy
    )


class TestDecode:
    def test_offset_bits(self):
        mapping = small_mapping()
        loc = mapping.decode(65)
        assert loc.offset == 1
        assert loc.column == 1

    def test_row_bank_column_order(self):
        mapping = small_mapping()
        # Consecutive lines sweep columns within one bank's row.
        first = mapping.decode(0)
        second = mapping.decode(64)
        assert (first.bank, first.row) == (second.bank, second.row)
        assert second.column == first.column + 1
        # After a full row, the bank changes before the row does.
        after_row = mapping.decode(16 * 64)
        assert after_row.bank == first.bank + 1
        assert after_row.row == first.row

    def test_bank_interleaved_order(self):
        mapping = small_mapping(MappingPolicy.BANK_INTERLEAVED)
        first = mapping.decode(0)
        second = mapping.decode(64)
        assert second.bank == first.bank + 1
        assert second.column == first.column

    def test_out_of_range_rejected(self):
        mapping = small_mapping()
        with pytest.raises(AddressError):
            mapping.decode(mapping.geometry.capacity_bytes)
        with pytest.raises(AddressError):
            mapping.decode(-1)


class TestEncodeDecodeInverse:
    @given(st.integers(min_value=0, max_value=4 * 8 * 16 * 64 - 1))
    def test_round_trip_row_bank_column(self, address):
        mapping = small_mapping()
        loc = mapping.decode(address)
        assert mapping.encode(loc.bank, loc.row, loc.column, loc.offset) == address

    @given(st.integers(min_value=0, max_value=4 * 8 * 16 * 64 - 1))
    def test_round_trip_bank_interleaved(self, address):
        mapping = small_mapping(MappingPolicy.BANK_INTERLEAVED)
        loc = mapping.decode(address)
        assert mapping.encode(loc.bank, loc.row, loc.column, loc.offset) == address

    def test_encode_validates_ranges(self):
        mapping = small_mapping()
        with pytest.raises(AddressError):
            mapping.encode(bank=4, row=0, column=0)
        with pytest.raises(AddressError):
            mapping.encode(bank=0, row=8, column=0)
        with pytest.raises(AddressError):
            mapping.encode(bank=0, row=0, column=16)
        with pytest.raises(AddressError):
            mapping.encode(bank=0, row=0, column=0, offset=64)


class TestLineAddress:
    def test_rounds_down(self):
        mapping = small_mapping()
        assert mapping.line_address(130) == 128
        assert mapping.line_address(128) == 128

    def test_line_key(self):
        loc = small_mapping().decode(64 * 3 + 7)
        assert loc.line_key == (loc.bank, loc.row, loc.column)


GEOMETRIES = [
    Geometry(),
    Geometry(chips=4, banks=4, rows_per_bank=64, columns_per_row=16),
    Geometry(chips=2, banks=2, rows_per_bank=32, columns_per_row=8),
]
POLICIES = pytest.mark.parametrize(
    "policy", list(MappingPolicy), ids=lambda policy: policy.value
)


class TestArrayForms:
    """The array forms run the scalar forms' arithmetic, element by element."""

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @POLICIES
    def test_decode_array(self, geometry, policy):
        mapping = AddressMapping(geometry, policy)
        addresses = np.random.default_rng(13).integers(
            0, geometry.capacity_bytes, size=256, dtype=np.int64
        )
        fields = mapping.decode_array(addresses)
        for i, address in enumerate(addresses.tolist()):
            decoded = mapping.decode(address)
            assert [int(field[i]) for field in fields] == [
                decoded.bank, decoded.row, decoded.column, decoded.offset
            ]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @POLICIES
    def test_encode_array(self, geometry, policy):
        mapping = AddressMapping(geometry, policy)
        rng = np.random.default_rng(17)
        banks = rng.integers(0, geometry.banks, size=128)
        rows = rng.integers(0, geometry.rows_per_bank, size=128)
        columns = rng.integers(0, geometry.columns_per_row, size=128)
        offsets = rng.integers(0, geometry.line_bytes, size=128)
        encoded = mapping.encode_array(banks, rows, columns, offsets)
        assert encoded.tolist() == [
            mapping.encode(*fields)
            for fields in zip(banks.tolist(), rows.tolist(),
                              columns.tolist(), offsets.tolist())
        ]

    @POLICIES
    def test_decode_array_out_of_capacity(self, policy):
        mapping = AddressMapping(GEOMETRIES[1], policy)
        for address in (-1, GEOMETRIES[1].capacity_bytes):
            with pytest.raises(AddressError):
                mapping.decode_array([0, address])

    @pytest.mark.parametrize(
        "field, value", [(0, 4), (1, 64), (2, 16), (3, 32), (2, -1)]
    )
    def test_encode_array_range_rejected(self, field, value):
        mapping = AddressMapping(GEOMETRIES[1])
        fields = [[0, 0] for _ in range(4)]
        fields[field][1] = value
        with pytest.raises(AddressError):
            mapping.encode_array(*fields)


class TestGathersInRow:
    """Gather legality is read off the fields, not the policy's name."""

    def test_default_mapping_holds_every_pattern_width(self):
        mapping = AddressMapping(Geometry())
        assert all(mapping.gathers_in_row(bits) for bits in range(1, 8))

    def test_pattern_wider_than_the_column_field_fails(self):
        mapping = AddressMapping(Geometry(columns_per_row=4))
        assert mapping.gathers_in_row(2)
        assert not mapping.gathers_in_row(3)

    def test_bank_bits_below_the_column_fail(self):
        mapping = small_mapping(MappingPolicy.BANK_INTERLEAVED)
        assert mapping.bank_shift < mapping.column_shift
        assert not mapping.gathers_in_row(1)


class TestOnePolicyReader:
    """Only ``AddressMapping.__init__`` interprets the mapping policy
    (plus the oracle's independent decode); everyone else reads the
    mapping's shifts and masks."""

    ALLOWED = {"dram/address.py", "check/oracle.py"}
    POLICY_VALUES = {policy.value for policy in MappingPolicy}

    def _is_policy(self, node) -> bool:
        """``MappingPolicy.X``, its ``.value``, or a policy's string."""
        if isinstance(node, ast.Constant):
            return node.value in self.POLICY_VALUES
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "MappingPolicy"
        )

    def hits(self, path: Path) -> list[int]:
        source = path.read_text()
        lines = [
            number for number, line in enumerate(source.splitlines(), 1)
            if "bank_interleaved" in line
        ]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Compare) and any(
                self._is_policy(part)
                for operand in (node.left, *node.comparators)
                for part in ast.walk(operand)
            ):
                lines.append(node.lineno)
        return sorted(lines)

    def test_no_policy_comparison_outside_the_mapping(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        found = {
            str(path.relative_to(root)): self.hits(path)
            for path in sorted(root.rglob("*.py"))
        }
        assert found["dram/address.py"], "the scan no longer sees the mapping"
        offenders = {
            name: lines for name, lines in found.items()
            if lines and name not in self.ALLOWED
        }
        assert not offenders, offenders
