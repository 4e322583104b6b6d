"""The default als-bench desk grid of both transforms, held to its record.

desk_grid_record.csv holds every cell of run_suite(SuiteConfig(transform=t))
for t = dft and real_orthogonal: 512x1024, (k, delta) in (2, 1e-3),
(10, 1e-3), (2, 1e-11), (10, 1e-11), j in {0, 1, 2, 10}, ALS seeds 0-4; 160
epsilons as %.17g, written on one BLAS thread.  A recomputed epsilon must
lie within the parity bars of its record: 1e-12 relative at delta = 1e-3 and
1e-6 at delta = 1e-11.  Rounding alone stays inside them (another BLAS
kernel, block size or thread count moved cells by at most 8.4e-7 at
delta = 1e-11, where the residual is a few thousand eps ||A||); a changed
formula, a lost column or a skipped half-step does not.
"""

import csv
from pathlib import Path

import pytest

from lowrank_als.bench import SuiteConfig, run_suite

RECORD = Path(__file__).with_name("desk_grid_record.csv")
PARITY = {1e-3: 1e-12, 1e-11: 1e-6}  # relative bar per delta


def _record(transform):
    with open(RECORD, newline="") as f:
        rows = list(csv.DictReader(f))
    return [row for row in rows if row["transform"] == transform]


@pytest.mark.parametrize("transform", ["dft", "real_orthogonal"])
def test_desk_grid_matches_record(transform):
    rows = _record(transform)
    records, summary = run_suite(SuiteConfig(transform=transform))
    assert not summary["failures"]
    assert len(records) == len(rows) == 80
    for rec, row in zip(records, rows):
        cell = (rec.m, rec.n, rec.k, rec.delta, rec.j, rec.seed)
        assert cell == tuple(float(row[name]) for name in ("m", "n", "k", "delta", "j", "seed"))
        want = float(row["epsilon"])
        assert abs(rec.epsilon - want) <= PARITY[rec.delta] * want, (cell, rec.epsilon, want)
