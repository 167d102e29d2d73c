"""Memory controller: requests, schedulers, timed command engine."""

from repro.mem.controller import MemoryController
from repro.mem.impulse import ImpulseController, ImpulseModule
from repro.mem.mapping import PIMRowGroupPolicy
from repro.mem.profile import (
    BandwidthProfile,
    RowLocality,
    bandwidth_profile,
    row_locality,
)
from repro.mem.request import MemoryRequest, Phase, RequestKind
from repro.mem.schedulers import FCFS, FRFCFS, Scheduler

__all__ = [
    "BandwidthProfile",
    "FCFS",
    "FRFCFS",
    "ImpulseController",
    "ImpulseModule",
    "PIMRowGroupPolicy",
    "RowLocality",
    "bandwidth_profile",
    "row_locality",
    "MemoryController",
    "MemoryRequest",
    "Phase",
    "RequestKind",
    "Scheduler",
]
