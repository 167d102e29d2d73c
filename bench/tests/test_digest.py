"""sim_digest: a function of the seed alone, untouched by tracing."""

from conftest import SHRINK

import child
import workloads
from spans import Tracer


def digest(seed, tracer=None):
    specs = workloads.oltp_event(seed, shrink=SHRINK)
    rep = child.repetition(specs, tracer)
    assert child.failures(rep.records) == 0
    return child.sim_digest(rep.records)


def test_same_seed_same_digest_and_another_seed_changes_it():
    first = digest(42)
    assert digest(42) == first
    assert digest(42, Tracer()) == first
    assert digest(7) != first
