"""``repro-check``: run the invariant battery + differential fuzzing.

Entry points:

- ``python -m repro check [options]``
- the ``repro-check`` console script

Runs every invariant checker and a seeded differential sweep, prints
one report per checker, and exits non-zero on any violation — suitable
as a CI gate and as a pre-flight before refactoring hot paths.
"""

from __future__ import annotations

import argparse

from repro.check.differential import run_differential
from repro.check.fastpath import run_fastpath
from repro.check.invariants import run_all_invariants

#: Stage names accepted as positional selectors (``repro check
#: inference`` runs just that battery).
STAGES = ("invariants", "differential", "fastpath", "oracles", "service",
          "inference", "pim")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="GS-DRAM correctness battery: invariants + differential fuzzing",
    )
    parser.add_argument(
        "stages", nargs="*", choices=[[], *STAGES],
        help="run only the named stages (default: all, minus --skip-*); "
             f"stages: {', '.join(STAGES)}",
    )
    parser.add_argument(
        "--traces", type=int, default=16,
        help="randomized traces per machine configuration (default: 16)",
    )
    parser.add_argument(
        "--seed", type=int, default=2015,
        help="base seed for trace generation (default: 2015)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=48,
        help="maximum operations per trace (default: 48)",
    )
    parser.add_argument(
        "--skip-differential", action="store_true",
        help="run only the invariant checkers",
    )
    parser.add_argument(
        "--skip-invariants", action="store_true",
        help="run only the differential sweep",
    )
    parser.add_argument(
        "--skip-fastpath", action="store_true",
        help="skip the event-vs-fast equivalence battery",
    )
    parser.add_argument(
        "--skip-oracles", action="store_true",
        help="skip the scalar-vs-vectorized oracle differential",
    )
    parser.add_argument(
        "--skip-service", action="store_true",
        help="skip the submitted-vs-direct service differential",
    )
    parser.add_argument(
        "--service-lines", type=int, default=64,
        help="patternscan size for the service differential (default: 64)",
    )
    parser.add_argument(
        "--skip-inference", action="store_true",
        help="skip the inference-family differential battery",
    )
    parser.add_argument(
        "--skip-pim", action="store_true",
        help="skip the in-DRAM compute (MRA/SHIFT) battery",
    )
    parser.add_argument(
        "--list-stages", action="store_true",
        help="print the stage names, one per line, and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_stages:
        for stage in STAGES:
            print(stage)
        return 0
    failures = 0

    def wants(stage: str) -> bool:
        if args.stages:
            return stage in args.stages
        return not getattr(args, f"skip_{stage}")

    if wants("invariants"):
        for report in run_all_invariants():
            print(report.render())
            if not report.ok:
                failures += len(report.violations)

    if wants("differential"):
        report = run_differential(
            traces_per_config=args.traces,
            seed=args.seed,
            max_ops=args.max_ops,
        )
        print(report.render())
        if not report.ok:
            failures += len(report.mismatches)

    if wants("fastpath"):
        report = run_fastpath(
            traces_per_config=max(1, args.traces // 2),
            seed=args.seed,
            max_ops=args.max_ops,
        )
        print(report.render())
        if not report.ok:
            failures += len(report.divergences)

    if wants("oracles"):
        from repro.check.oracles import run_oracles

        report = run_oracles(seed=args.seed)
        print(report.render())
        if not report.ok:
            failures += len(report.divergences)

    if wants("service"):
        from repro.check.service import run_service_check

        report = run_service_check(lines=args.service_lines)
        print(report.render())
        if not report.ok:
            failures += len(report.divergences)

    if wants("inference"):
        from repro.check.inference import run_inference_check

        report = run_inference_check()
        print(report.render())
        if not report.ok:
            failures += len(report.divergences)

    if wants("pim"):
        from repro.check.pim import run_pim_check

        report = run_pim_check(seed=args.seed)
        print(report.render())
        if not report.ok:
            failures += len(report.divergences)

    if failures:
        print(f"repro-check: FAILED ({failures} violations)")
        return 1
    print("repro-check: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
