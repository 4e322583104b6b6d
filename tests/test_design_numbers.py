"""tools/design_numbers.py counts what test_demos pins and what the package exports."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import test_demos

import lowrank_als

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "design_numbers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("design_numbers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_match_the_pinned_lists():
    numbers = _tool().design_numbers()
    assert numbers["public_names"] == len(lowrank_als.__all__)
    assert numbers["defaulted_parameters"] == len(test_demos.OPTIONS)
    lines = numbers["src_lines"]
    want = sum(len(path.read_text().splitlines()) for path in (ROOT / "src" / "lowrank_als").glob("*.py"))
    assert lines["total"] == want == lines["code"] + lines["docstring"] + lines["comment"] + lines["blank"]


def test_line_kinds():
    source = (
        '"""Module\n\ndoc."""\n\n# comment\nx = 1  # trailing\n\n\n'
        'def f():\n    """One line."""\n    return "not a docstring"\n'
    )
    assert _tool().line_kinds(source) == {"code": 3, "docstring": 4, "comment": 1, "blank": 3}


def test_prints_json():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["public_names"] == len(lowrank_als.__all__)
