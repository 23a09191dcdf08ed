"""Every third-party module the repository imports is declared in pyproject.toml."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
# the package, and what its tests, benchmark and tools run on top of it
TREES = ("src", "tests", "perfbench", "tools")


def _declared() -> set[str]:
    """Import names of the runtime dependencies and of every optional extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    reqs = [*project["dependencies"],
            *(r for extra in project.get("optional-dependencies", {}).values() for r in extra)]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in reqs}


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_third_party_import_is_declared():
    files = sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py"))
    # the package itself, and the scripts that import each other by file name
    local = {p.name for p in (ROOT / "src").iterdir() if p.is_dir()} | {p.stem for p in files}
    third_party = {(name, str(path.relative_to(ROOT))) for path in files
                   for name in _top_level_imports(path)
                   if name not in sys.stdlib_module_names and name not in local}
    assert {"numpy", "pytest"} <= {name for name, _ in third_party}  # the walk sees imports
    declared = _declared()
    assert sorted((path, name) for name, path in third_party if name not in declared) == []
