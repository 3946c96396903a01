import re
from dataclasses import fields
from pathlib import Path

from subconj import Caps

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
