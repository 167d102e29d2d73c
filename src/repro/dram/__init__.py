"""Commodity DRAM substrate: functional storage + DDR timing model."""

from repro.dram.address import AddressMapping, DecodedAddress, Geometry, MappingPolicy
from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandKind
from repro.dram.module import DRAMModule
from repro.dram.rank import Rank
from repro.dram.timing import DEFAULT_CPU_PER_BUS, DRAMTiming, ddr3_1600, ddr4_2400

__all__ = [
    "AddressMapping",
    "Bank",
    "Command",
    "CommandKind",
    "DEFAULT_CPU_PER_BUS",
    "DRAMModule",
    "DRAMTiming",
    "DecodedAddress",
    "Geometry",
    "MappingPolicy",
    "Rank",
    "ddr3_1600",
    "ddr4_2400",
]
