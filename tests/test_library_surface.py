import importlib
import re
from pathlib import Path

from subconj.harness import CHECK_IDS

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


def test_readme_check_table_lists_the_registry():
    # the table under "The corpus and the check registry", one row per check
    text = README.read_text("utf-8").split("## The corpus and the check registry")[1]
    section = text.split("\n## ")[0]
    ids = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert ids == list(CHECK_IDS)
