import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_imports():
    # the "Library surface" block: from subconj import (name, name, ...)
    block = re.search(
        r"^from subconj import \(([^)]*)\)$", README.read_text("utf-8"), re.M
    )
    names = re.findall(r"\w+", block.group(1))
    assert "construct" in names and "is_isomorphic_small" in names
    subconj = importlib.import_module("subconj")
    missing = [name for name in names if not hasattr(subconj, name)]
    assert missing == []
