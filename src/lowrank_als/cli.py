"""Command-line benchmark harness.

Exit codes: 0 success, 1 verification failure under --verify or a failed
test matrix, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import SuiteConfig, run_suite, write_csv, write_json
from .verify import run_all

PAPER_SIZES = ((2048, 4096), (4096, 4096), (4096, 8192))


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_seeds(text: str) -> list[int]:
    # A bare count expands to seeds 0..count-1; a comma list is taken verbatim.
    parts = _int_list(text)
    if not parts:
        raise ValueError("empty seed list")
    if "," not in text:
        count = parts[0]
        if count < 1:
            raise ValueError("seed count must be >= 1")
        return list(range(count))
    return parts


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="als-bench",
        description="Accuracy/timing benchmark for randomized-start ALS low-rank approximation.",
    )
    p.add_argument("--m", type=int, help="matrix rows (desk-scale default 512)")
    p.add_argument("--n", type=int, help="matrix cols (desk-scale default 1024)")
    p.add_argument("--k", default="2,10", help="comma list of approximation ranks")
    p.add_argument("--delta", default="1e-3,1e-11", help="comma list of best-possible errors")
    p.add_argument("--iters", default="0,1,2,10", help="comma list of iteration counts j")
    p.add_argument("--seeds", default="5", help="seed count, or explicit comma list of seeds")
    p.add_argument("--transform", choices=("dft", "real"), default="dft")
    p.add_argument("--out", help="write records to this path: JSON if it ends in .json, else CSV")
    p.add_argument("--full", action="store_true", help="run the full-size table suite")
    p.add_argument("--verify", action="store_true", help="run the theory suites and exit")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.verify:
        results = run_all()
        ok = True
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {res.name}: {res.detail}")
            ok = ok and res.passed
        return 0 if ok else 1

    try:
        if args.full and (args.m is not None or args.n is not None):
            raise ValueError("--full runs the paper sizes and takes no --m or --n")
        desk = (512 if args.m is None else args.m, 1024 if args.n is None else args.n)
        sizes = PAPER_SIZES if args.full else (desk,)
        ks = _int_list(args.k)
        deltas = _float_list(args.delta)
        config = SuiteConfig(
            sizes=tuple(sizes),
            rank_deltas=tuple((k, d) for d in deltas for k in ks),
            iteration_counts=tuple(_int_list(args.iters)),
            seeds=tuple(_parse_seeds(args.seeds)),
            transform="real_orthogonal" if args.transform == "real" else "dft",
        )
        records, summary = run_suite(config)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.out and args.out.lower().endswith(".json"):
        write_json(args.out, records, summary)
    elif args.out:
        write_csv(args.out, records)

    print(f"{'j':>3} {'k':>3} {'delta':>9} {'epsilon':>11} {'t_seconds':>10}  (m x n)")
    for rec in records:
        print(
            f"{rec.j:>3} {rec.k:>3} {rec.delta:>9.1e} {rec.epsilon:>11.3e} "
            f"{rec.t_seconds:>10.3f}  ({rec.m} x {rec.n}, seed {rec.seed})"
        )
    print()
    print("max epsilon/delta by j:", summary["max_epsilon_over_delta_by_j"])
    if summary["failures"]:
        print(f"{len(summary['failures'])} test matrix(es) failed:", file=sys.stderr)
        for failure in summary["failures"]:
            print(f"  {failure['spec']}: {failure['error']}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
