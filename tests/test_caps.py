import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from subconj import Caps, ClassId, Group, construct, direct_product, quotient
from subconj.predicates import MEMBER, UNDECIDED, decide
from subconj.structure import fitting_subgroup

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cap_table_matches_caps():
    # rows of the "Caps" table: | what | default | `SUBCONJ_...` |
    rows = re.findall(
        r"^\| [^|]+ \| (\d+) \| `(SUBCONJ_\w+)` \|$", README.read_text("utf-8"), re.M
    )
    defaults = Caps()
    expected = [
        (str(getattr(defaults, f.name)), Caps._ENV[f.name]) for f in fields(Caps)
    ]
    assert rows == expected


@pytest.mark.parametrize("raw", ["abc", "-1", "2.5", ""])
def test_from_env_names_a_bad_value(monkeypatch, raw):
    monkeypatch.setenv("SUBCONJ_ISO_CAP", raw)
    with pytest.raises(ValueError) as info:
        Caps.from_env()
    assert str(info.value) == f"SUBCONJ_ISO_CAP={raw!r} is not a non-negative integer"


@pytest.mark.parametrize("var", ["SUBCONJ_ORBIT_KEY_CAP", "SUBCONJ_SYLOW_ORDER_CAP"])
def test_from_env_refuses_a_removed_cap_variable(monkeypatch, var):
    # the stored-index cap replaced both; a value set for them would
    # otherwise stop applying without a word
    monkeypatch.setenv(var, "300")
    with pytest.raises(ValueError) as info:
        Caps.from_env()
    assert str(info.value) == f"{var} was replaced by SUBCONJ_STORED_INDEX_CAP"


def test_from_env_reads_zero_and_unset_defaults(monkeypatch):
    monkeypatch.setenv("SUBCONJ_ISO_CAP", "0")
    monkeypatch.delenv("SUBCONJ_ELEMENT_CAP", raising=False)
    caps = Caps.from_env()
    assert caps.iso_cap == 0
    assert caps.element_cap == Caps().element_cap


def test_cli_start_names_a_bad_cap_variable():
    # the defaults are read on first use, which the CLI makes before any
    # command: one error line and the usage-error status, no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "subconj.cli", "analyze", "Cyclic(4)"],
        capture_output=True,
        text=True,
        env={**os.environ, "SUBCONJ_ISO_CAP": "abc"},
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: SUBCONJ_ISO_CAP='abc' is not a non-negative integer\n"
    )
    assert "Traceback" not in proc.stderr


def test_cli_start_names_a_removed_cap_variable():
    proc = subprocess.run(
        [sys.executable, "-m", "subconj.cli", "analyze", "Cyclic(4)"],
        capture_output=True,
        text=True,
        env={**os.environ, "SUBCONJ_ORBIT_KEY_CAP": "300"},
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: SUBCONJ_ORBIT_KEY_CAP was replaced by SUBCONJ_STORED_INDEX_CAP\n"
    )


def test_default_caps_stay_importable():
    # read from the environment on first use, then kept
    from subconj import DEFAULT_CAPS
    from subconj.caps import DEFAULT_CAPS as caps_default, default_caps

    assert DEFAULT_CAPS is caps_default is default_caps()
    assert isinstance(DEFAULT_CAPS, Caps)


def test_quotients_and_products_inherit_the_caps_of_their_source():
    # G/F(G) of E25xSL(2,3) has order 24, so a full_subgroup_cap of 10 that
    # it inherits leaves its B verdict undecided
    g = construct("E25xSL(2,3)")
    capped = Group(g.generators, degree=g.degree, caps=Caps(full_subgroup_cap=10))
    for group, verdict in ((g, MEMBER), (capped, UNDECIDED)):
        q = quotient(group, fitting_subgroup(group))
        assert q.order() == 24 and q.caps is group.caps
        assert decide(q, ClassId.B)[0] == verdict
    assert direct_product(capped, construct("Cyclic(7)")).caps is capped.caps
