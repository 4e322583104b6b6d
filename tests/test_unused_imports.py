"""Every name a module imports is used in that module, every private helper
of the package is used, the package imports nothing private from another
package, it catches every exception in one place only, and its declared
dependencies are the packages it imports.

Stdlib-only lints.  The first runs over src/lowrank_als (except __init__.py,
which imports to re-export), tests/ and demos/: an import counts as used
when its bound name appears as a name anywhere in the file's syntax tree.  The
second runs over src/lowrank_als: each module-level function or class whose
name starts with an underscore is used when its name appears as a name or an
attribute somewhere in the package outside its own definition; a use in
tests/ does not count.  The third runs over src/lowrank_als: no absolute
import names a module or name with a dotted-path part that starts with an
underscore.  The fourth runs over src/lowrank_als: the one broad except
clause (no type, or Exception or BaseException, alone or in a tuple) is the
one in bench.run_suite that records a failed test matrix and goes on with
the next.  The fifth runs over src/lowrank_als: the top-level modules its
absolute imports name, less the standard library, are the names in
pyproject.toml's [project] dependencies.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src" / "lowrank_als").glob("*.py"))
FILES = [p for p in SRC_FILES if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py"))
FILES += sorted((ROOT / "demos").glob("*.py"))
BROAD_TYPES = {"Exception", "BaseException"}


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a.
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level function or class with a private
    name in ``sources`` (module name -> source) whose name no other top-level
    statement of any of the sources reads as a name or an attribute."""
    statements = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    reads = [
        {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        for _, stmt in statements
    ]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if defines and stmt.name.startswith("_") and not stmt.name.endswith("__"):
            if not any(stmt.name in names for j, names in enumerate(reads) if j != i):
                dead.append(f"{module}.{stmt.name}")
    return dead


def private_imports(source: str) -> list[str]:
    """The dotted paths that ``source`` imports from other packages with a
    part that starts with an underscore; relative imports and __future__
    are exempt."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
    return sorted(p for p in paths if any(part.startswith("_") for part in p.split(".")))


def third_party_imports(source: str) -> set[str]:
    """The top-level modules that ``source`` imports absolutely, less the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names)


def broad_handlers(source: str) -> list[str]:
    """The qualified name of the function or class (``<module>`` at top level)
    around each except clause in ``source`` whose type is omitted, or is
    Exception or BaseException, alone or in a tuple."""
    found = []

    def is_broad(handler):
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(getattr(t, "id", None) in BROAD_TYPES for t in types)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.ExceptHandler) and is_broad(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_checker_finds_unused_names():
    source = "import os\nimport scipy.linalg\nfrom math import pi, tau as t\nscipy.linalg.qr(t)\n"
    assert unused_imports(source) == ["os", "pi"]


def test_checker_finds_private_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy.linalg\n"
        "import os._x as x\n"
        "from math import _private, pi\n"
        "from scipy.sparse.linalg._interface import MatrixLinearOperator\n"
        "from ._local import _helper\n"
    )
    assert private_imports(source) == [
        "math._private",
        "os._x",
        "scipy.sparse.linalg._interface.MatrixLinearOperator",
    ]


def test_checker_finds_third_party_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from scipy.linalg import qr\n"
        "from . import local\n"
        "from .sibling import name\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in project["dependencies"]}
    imported = set().union(*(third_party_imports(path.read_text()) for path in SRC_FILES))
    assert imported == declared == {"numpy"}


def test_checker_finds_dead_helpers():
    sources = {
        "a": "def _used():\n    return _used()\n\ndef _dead():\n    return _dead()\n\nclass _Dead:\n    pass\n",
        "b": "from . import a\n\ndef public():\n    return a._used()\n\ndef __getattr__(name):\n    pass\n",
    }
    assert dead_helpers(sources) == ["a._dead", "a._Dead"]


def test_no_dead_helpers():
    assert dead_helpers({path.stem: path.read_text() for path in SRC_FILES}) == []


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SRC_FILES, ids=[str(p.relative_to(ROOT)) for p in SRC_FILES])
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_checker_finds_broad_handlers():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "def f():\n"
        "    try:\n        pass\n"
        "    except (ValueError, Exception):\n        pass\n"
        "    except ValueError:\n        pass\n"
        "class C:\n"
        "    def g(self):\n"
        "        try:\n            pass\n"
        "        except BaseException as exc:\n            raise exc\n"
        "        except (KeyError, OSError):\n            pass\n"
    )
    assert broad_handlers(source) == ["<module>", "f", "C.g"]


def test_only_run_suite_catches_everything():
    found = [f"{path.stem}.{name}" for path in SRC_FILES for name in broad_handlers(path.read_text())]
    assert found == ["bench.run_suite"]
