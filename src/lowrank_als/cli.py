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
    p.add_argument("--k", help="comma list of approximation ranks (default 2,10)")
    p.add_argument("--delta", help="comma list of best-possible errors (default 1e-3,1e-11)")
    p.add_argument("--iters", help="comma list of iteration counts j (default 0,1,2,10)")
    p.add_argument("--seeds", help="seed count, or explicit comma list of seeds (default 5)")
    p.add_argument("--transform", choices=("dft", "real"), help="test-matrix family (default dft)")
    p.add_argument("--out", help="write records to this path: JSON if it ends in .json, else CSV")
    p.add_argument("--full", action="store_true", default=None, help="run the full-size table suite")
    p.add_argument("--verify", action="store_true", help="run only the theory suites; takes no other option")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.verify:
        # Every other option defaults to None, so a given one shows.
        given = [f"--{name}" for name, value in vars(args).items() if name != "verify" and value is not None]
        if given:
            print(f"configuration error: --verify takes no {' or '.join(given)}", file=sys.stderr)
            return 2
        results = run_all()
        for res in results:
            print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
        return 0 if all(res.passed for res in results) else 1

    try:
        if args.full and (args.m is not None or args.n is not None):
            raise ValueError("--full runs the paper sizes and takes no --m or --n")
        desk = (512 if args.m is None else args.m, 1024 if args.n is None else args.n)
        sizes = PAPER_SIZES if args.full else (desk,)
        ks = _int_list("2,10" if args.k is None else args.k)
        deltas = _float_list("1e-3,1e-11" if args.delta is None else args.delta)
        config = SuiteConfig(
            sizes=tuple(sizes),
            rank_deltas=tuple((k, d) for d in deltas for k in ks),
            iteration_counts=tuple(_int_list("0,1,2,10" if args.iters is None else args.iters)),
            seeds=tuple(_parse_seeds("5" if args.seeds is None else args.seeds)),
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
