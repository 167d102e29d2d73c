"""Tests for the three storage layouts."""

import numpy as np
import pytest

from repro.db.engine import layout_config
from repro.db.layouts import (
    ColumnStore,
    GSDRAMStore,
    PartialGatherStore,
    RowStore,
    all_layouts,
)
from repro.db.workload import AnalyticsQuery, make_rows
from repro.errors import WorkloadError
from repro.sim.config import plain_dram_config, table1_config
from repro.sim.system import System
from repro.vec.kernels import loaded_addresses

TUPLES = 64


def attach(layout):
    if isinstance(layout, GSDRAMStore):
        system = System(table1_config())
    else:
        system = System(plain_dram_config())
    layout.attach(system, TUPLES)
    return system


class TestLoadReadRoundTrip:
    @pytest.mark.parametrize("layout_cls", [RowStore, ColumnStore, GSDRAMStore])
    def test_round_trip(self, layout_cls):
        layout = layout_cls()
        attach(layout)
        rows = make_rows(layout.schema, TUPLES, seed=3)
        layout.load_rows(rows)
        table = layout.read_rows()
        assert table.dtype == np.int64
        assert np.array_equal(table, rows)


class TestAddressing:
    def test_row_store_field_addresses_contiguous_per_tuple(self):
        layout = RowStore()
        attach(layout)
        assert layout.field_address(0, 1) - layout.field_address(0, 0) == 8
        assert layout.field_address(1, 0) - layout.field_address(0, 0) == 64

    def test_column_store_field_addresses_contiguous_per_field(self):
        layout = ColumnStore()
        attach(layout)
        assert layout.field_address(1, 0) - layout.field_address(0, 0) == 8

    def test_gs_store_matches_row_store_shape(self):
        layout = GSDRAMStore()
        attach(layout)
        assert layout.field_address(0, 1) - layout.field_address(0, 0) == 8
        assert layout.field_address(1, 0) - layout.field_address(0, 0) == 64

    def test_gs_gather_address_walks_gathered_line(self):
        layout = GSDRAMStore()
        attach(layout)
        a0 = layout.gather_address(0, 2, 0)
        a1 = layout.gather_address(0, 2, 1)
        assert a1 - a0 == 8
        # The gathered line for field f of group g is line (g + f).
        assert a0 == layout.base + 2 * 64


class TestScanStream:
    @pytest.mark.parametrize(
        "make_layout,overrides",
        [
            (RowStore, {}),
            (ColumnStore, {}),
            (GSDRAMStore, {}),
            (lambda: PartialGatherStore(1), {"shuffle_stages": 1}),
            (lambda: PartialGatherStore(3), {"shuffle_stages": 2}),
            (lambda: PartialGatherStore(7), {"shuffle_stages": 3}),
        ],
        ids=["row", "column", "gs", "partial-1", "partial-3", "partial-7"],
    )
    def test_scan_reads_every_queried_cell_once(self, make_layout, overrides):
        layout = make_layout()
        config = layout_config(layout, **overrides)
        layout.attach(System(config), TUPLES)
        query = AnalyticsQuery((0, 5))
        stream = layout.scan_stream(query)
        cells = layout.cells(
            loaded_addresses(stream.addresses, stream.patterns, config)
        )
        fields = layout.schema.num_fields
        assert sorted(cells.tolist()) == sorted(
            tuple_id * fields + field
            for field in query.fields
            for tuple_id in range(TUPLES)
        )

    @pytest.mark.parametrize("layout_cls", [RowStore, ColumnStore])
    def test_cells_inverts_field_addresses(self, layout_cls):
        layout = layout_cls()
        attach(layout)
        assert layout.cells([layout.field_address(3, 5)]).tolist() == [3 * 8 + 5]
        with pytest.raises(WorkloadError):
            layout.cells([layout.field_address(TUPLES - 1, 7) + 8])


class TestAttachValidation:
    def test_gs_store_requires_gs_system(self):
        layout = GSDRAMStore()
        with pytest.raises(WorkloadError):
            layout.attach(System(plain_dram_config()), TUPLES)

    def test_gs_store_requires_group_multiple(self):
        layout = GSDRAMStore()
        with pytest.raises(WorkloadError):
            layout.attach(System(table1_config()), 30)

    def test_ops_before_attach_rejected(self):
        from repro.db.workload import AnalyticsQuery

        layout = RowStore()
        with pytest.raises(WorkloadError):
            list(layout.analytics_ops(AnalyticsQuery((0,)), lambda v: None))


class TestAllLayouts:
    def test_returns_three_fresh_instances(self):
        layouts = all_layouts()
        assert [l.name for l in layouts] == ["Row Store", "Column Store", "GS-DRAM"]
        assert all(l.system is None for l in layouts)
