"""Every name a module of the package imports is used in that module.

A stdlib ``ast`` scan, so it needs no linter: each name bound by an import
in ``src/subconj/*.py`` (``__init__.py`` aside, whose imports are the public
surface) must appear as a name in the module's code.  An import kept for
another reason says so with ``# noqa: F401`` on its line, as the imports
that ``bench/tracing.py`` wraps by name do."""

import ast
from pathlib import Path

import pytest

import subconj

MODULES = sorted(
    p for p in Path(subconj.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source):
    """(line, name) of each name imported in ``source`` and never used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from bisect import bisect_left, bisect_right\n"
        "import os.path\n"
        "from .groups import normalizer  # noqa: F401\n"
        "bisect_right([], 1)\n"
    )
    assert _unused_imports(source) == [(1, "bisect_left"), (2, "os")]
    assert MODULES and all(p.suffix == ".py" for p in MODULES)
