#!/usr/bin/env python3
"""Tour of the Section 6 extensions.

1. Programmable shuffling — a shuffle mask and an XOR-fold function.
2. Wider pattern IDs — chip-ID repetition (6-bit patterns on 8 chips).
3. Intra-chip column translation — sub-8-byte gathers across tiles.
4. ECC — gathered reads validated against a tile-translated ECC chip.

Run:  python examples/extensions_tour.py
"""

from repro.core import (
    EccGSModule,
    GSModule,
    MaskedShuffle,
    TiledChip,
    XorFoldShuffle,
)
from repro.dram.address import Geometry
from repro.errors import PatternError

GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)


def pack(values):
    import struct

    return struct.pack(f"<{len(values)}Q", *values)


def unpack(data):
    import struct

    return list(struct.unpack(f"<{len(data) // 8}Q", data))


def programmable_shuffle_demo() -> None:
    print("== 6.1 programmable shuffling ==")
    masked = GSModule(geometry=GEOMETRY, shuffle=MaskedShuffle(3, 0b011))
    print("MaskedShuffle(0b011): supported patterns:",
          [p for p in range(8) if masked.gathers_correctly(p)])
    folded = GSModule(geometry=GEOMETRY, shuffle=XorFoldShuffle(3))
    folded.write_line(5 * 64, pack(range(8)))
    print("XorFoldShuffle round-trip:", unpack(folded.read_line(5 * 64)), "\n")


def wide_pattern_demo() -> None:
    print("== 6.2 wider pattern IDs ==")
    wide = GSModule(geometry=GEOMETRY, pattern_bits=6)
    ctl = wide.rank.ctls[3]
    print(f"chip 3's effective CTL ID with 6-bit patterns: "
          f"{ctl.effective_chip_id:06b} (011 repeated)\n")


def intra_chip_demo() -> None:
    print("== 6.3 intra-chip column translation ==")
    chip = TiledChip(tiles=4, columns_per_row=8, tile_bytes=2, pattern_bits=2)
    # Columns hold 2-byte sub-values; pattern 3 gathers one sub-value
    # per tile from four different columns — a 2-byte-granular gather.
    for column in range(4):
        chip.write_column(0, column,
                          b"".join(bytes([column * 4 + t] * 2) for t in range(4)))
    gathered = chip.read_column(0, 0, pattern=3)
    print("tile-gathered sub-values:", list(gathered[::2]), "\n")


def ecc_demo() -> None:
    print("== 6.3 ECC across gathered patterns ==")
    ecc = EccGSModule(GSModule(geometry=GEOMETRY))
    for line in range(8):
        ecc.write_line(line * 64, pack(range(line * 8, line * 8 + 8)))
    gathered = unpack(ecc.read_line_checked(0, pattern=7))
    assert gathered == list(range(0, 64, 8)), gathered
    print("ECC-validated stride-8 gather:", gathered)
    ecc.corrupt_value(3 * 64, value_index=0)
    try:
        ecc.read_line_checked(0, pattern=7)
    except PatternError as exc:
        print("after fault injection:", exc)
    else:
        raise AssertionError("the injected fault went undetected")


def main() -> None:
    programmable_shuffle_demo()
    wide_pattern_demo()
    intra_chip_demo()
    ecc_demo()


if __name__ == "__main__":
    main()
