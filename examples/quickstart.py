#!/usr/bin/env python3
"""Quickstart: the GS-DRAM substrate in five minutes.

Walks through the paper's core mechanism with the functional API:

1. build GS-DRAM(8,3,3) — the paper's evaluation configuration;
2. store a tiny "database table" (8 tuples x 8 fields);
3. read one tuple with a single command (pattern 0);
4. gather one *field of every tuple* with a single command (pattern 7);
5. scatter new values back through the gathered view;
6. inspect the Section 4.4 hardware cost.

Run:  python examples/quickstart.py
"""

from repro import GSDRAM, pattern_for_stride


def main() -> None:
    gs = GSDRAM.configure(chips=8, shuffle_stages=3, pattern_bits=3)
    print(f"configured {gs.name()}: {gs.line_bytes}-byte lines, "
          f"strides {gs.supported_strides()} in one READ\n")

    # A table of 8 tuples, each with 8 fields; tuple t's field f holds
    # the value 10*t + f. One tuple per cache line (the paper's layout).
    tuples = 8
    for t in range(tuples):
        gs.write_values(t * 64, [10 * t + f for f in range(8)])

    # Pattern 0 = a conventional read: one tuple.
    print("tuple 3 (pattern 0):      ", gs.read_values(3 * 64))

    # Pattern 7 = stride 8: field f of ALL eight tuples in ONE command.
    pattern = pattern_for_stride(8)
    field0 = gs.read_values(0 * 64, pattern=pattern)
    assert field0 == [10 * t for t in range(tuples)], field0
    print("field 0 of all tuples     ", field0)
    print("field 5 of all tuples     ", gs.read_values(5 * 64, pattern=pattern))

    # Patterns 1 and 3 gather strides 2 and 4.
    print("stride-2 gather (patt 1): ", gs.read_values(0, pattern=1))
    print("stride-4 gather (patt 3): ", gs.read_values(0, pattern=3))

    # Scatter: write field 0 of every tuple in one command.
    gs.write_values(0, [1000 + t for t in range(8)], pattern=pattern)
    print("\nafter scattering new field-0 values:")
    print("tuple 0:", gs.read_values(0))
    print("tuple 7:", gs.read_values(7 * 64))
    assert gs.read_values(0, pattern=pattern) == [1000 + t for t in range(8)]

    # What would this cost without the shuffle? (Section 3.2's Challenge 1)
    print(f"\nREADs to gather 8 stride-8 values: "
          f"{gs.reads_required(8)} with shuffling, "
          f"{gs.reads_required(8, shuffled=False)} without")

    # Hardware cost (Section 4.4).
    print("\nhardware cost:", gs.hardware_cost().render())


if __name__ == "__main__":
    main()
