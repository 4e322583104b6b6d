"""Every demo runs to completion against the package in src/, and the
package's public names are unique and importable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lowrank_als

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 4


def test_public_names_unique_and_resolvable():
    names = lowrank_als.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lowrank_als, name)]
    assert not missing
