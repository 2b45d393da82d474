"""README's list of importable building blocks names only what the
package exports."""

import pathlib
import re

import bcopt as B

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_building_blocks_are_exported():
    text = README.read_text(encoding="utf-8")
    start = text.index("The building blocks are importable on their own")
    paragraph = text[start : text.index("\n\n", start)]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) > 10
    assert [n for n in names if n not in B.__all__] == []
