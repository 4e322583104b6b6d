"""Print the package's design numbers as one JSON object.

Usage, from the root of a checkout:

    python3 tools/design_numbers.py

How each number is counted:

- ``src_lines``: every line of ``src/lowrank_als/*.py``, split four ways.  A
  line is ``docstring`` if it lies within a module, class or function
  docstring (the string expression that opens the body, as ``ast`` finds
  it); otherwise ``blank`` if it holds only whitespace, ``comment`` if it
  holds only a comment, and ``code`` if not.  A line of code with a trailing
  comment is code.  ``total`` is their sum, what ``wc -l`` counts.
- ``public_names``: ``len(lowrank_als.__all__)``.
- ``defaulted_parameters``: the (module, function, parameter) triples of
  ``src/lowrank_als/*.py`` with a default, by the rule of
  ``tests/test_demos.py``'s ``defaulted_parameters``, which this script
  imports; its ``OPTIONS`` lists them.
- ``defaulted_fields``: the fields with a default or a default factory of
  the dataclasses among the public names, counted apart from the parameters
  since a field is set by name, not passed by position.

It is a report, not a gate.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lowrank_als"
KINDS = ("code", "docstring", "comment", "blank")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import lowrank_als  # noqa: E402
from test_demos import defaulted_parameters  # noqa: E402


def line_kinds(source: str) -> dict[str, int]:
    """The code, docstring, comment and blank lines of one module's ``source``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0].value if node.body and isinstance(node.body[0], ast.Expr) else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = "docstring" if number in docstring else "blank" if not text else "comment" if text[0] == "#" else "code"
        counts[kind] += 1
    return counts


def design_numbers() -> dict:
    lines = dict.fromkeys(KINDS, 0)
    paths = sorted(PACKAGE.glob("*.py"))
    for path in paths:
        for kind, count in line_kinds(path.read_text()).items():
            lines[kind] += count
    lines["total"] = sum(lines.values())
    public = [getattr(lowrank_als, name) for name in lowrank_als.__all__]
    fields = [
        field
        for obj in public
        if dataclasses.is_dataclass(obj)
        for field in dataclasses.fields(obj)
        if field.default is not dataclasses.MISSING or field.default_factory is not dataclasses.MISSING
    ]
    return {
        "src_lines": lines,
        "public_names": len(lowrank_als.__all__),
        "defaulted_parameters": sum(len(defaulted_parameters(path)) for path in paths),
        "defaulted_fields": len(fields),
    }


if __name__ == "__main__":
    print(json.dumps(design_numbers(), indent=2))
