"""The span tracer: self-time arithmetic, wrapper hygiene, layer coverage."""

import pytest
from conftest import SHRINK

import child
import spans
import workloads
from spans import Tracer


def clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_and_same_layer_reentrant_spans():
    # GSModule.read_line (1..10) calls the base DRAMModule.read_line
    # (2..5), a span of the same layer, then a mem span (6..8).
    tracer = Tracer(clock=clock(0, 1, 2, 5, 6, 8, 10, 12))
    tracer.start()
    tracer.enter("storage", "GSModule.read_line")
    tracer.enter("storage", "DRAMModule.read_line")
    tracer.exit()
    tracer.enter("mem", "MemoryController.submit")
    tracer.exit()
    tracer.exit()
    wall = tracer.stop()

    assert wall == 12
    assert tracer.self_s["storage"] == (9 - 3 - 2) + 3
    assert tracer.self_s["mem"] == 2
    assert tracer.unattributed_s == 1 + 2
    assert tracer.calls["storage"] == 2 and tracer.calls["mem"] == 1
    assert sum(tracer.self_s.values()) + tracer.unattributed_s == wall
    assert tracer.spans == [
        ("storage", "GSModule.read_line", 1, 10, -1),
        ("storage", "DRAMModule.read_line", 2, 5, 0),
        ("mem", "MemoryController.submit", 6, 8, 0),
    ]


def test_capped_span_list_still_accounts_every_call():
    tracer = Tracer(clock=clock(0, 1, 2, 3, 4, 5), max_spans=1)
    tracer.start()
    for _ in range(2):
        tracer.enter("db", "attach")
        tracer.exit()
    assert tracer.stop() == 5
    assert tracer.calls["db"] == 2 and tracer.self_s["db"] == 2
    assert len(tracer.spans) == 1 and tracer.dropped == 1


def test_a_raising_call_closes_its_span():
    tracer = Tracer(clock=clock(0, 1, 3, 4))
    tracer.start()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("pim", "boom", boom)
    assert tracer.stop() == 4
    assert tracer.self_s["pim"] == 2 and tracer.unattributed_s == 2


def test_callbacks_are_attributed_by_owner_module():
    assert spans.module_layer("repro.cpu.core") == "cpu"
    assert spans.module_layer("repro.db.workload") == "workload"
    assert spans.module_layer("repro.db.layouts") == "db"
    assert spans.module_layer("repro.core.module") == "storage"
    assert spans.module_layer("somewhere.else") == "engine"


def test_names_bound_at_import_time_are_patched_where_they_are_used():
    import repro.db.engine
    import repro.db.workload
    import repro.sim.system

    patched = {(holder, attr) for holder, attr, _ in spans.targets()}
    assert (repro.db.engine, "make_rows") in patched
    assert (repro.db.workload, "make_rows") in patched
    assert (repro.sim.system, "system_energy") in patched


def _originals():
    return [(holder, attr, vars(holder)[attr])
            for holder, attr, _ in spans.targets()]


def test_every_wrapper_is_restored_after_a_traced_run():
    before = _originals()
    child.repetition(workloads.oltp_event(42, shrink=SHRINK), Tracer())
    for holder, attr, original in before:
        assert vars(holder)[attr] is original, (holder, attr)


def test_every_wrapper_is_restored_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.installed(Tracer()):
            raise RuntimeError("interrupted")
    for holder, attr, original in before:
        assert vars(holder)[attr] is original, (holder, attr)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_layer_records_calls(name):
    workload = workloads.WORKLOADS[name]
    rep = child.repetition(workload.build(42, shrink=SHRINK), Tracer())
    assert child.failures(rep.records) == 0
    silent = [layer for layer in workload.layers
              if rep.tracer.calls[layer] == 0]
    assert not silent
    assert child.reconcile_error(rep.tracer, rep.wall) <= 0.01
