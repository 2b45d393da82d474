"""README's list of importable building blocks names only what the
package exports, and the package exports exactly what it binds."""

import inspect
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


def test_all_is_every_public_binding():
    bound = {
        name
        for name, value in vars(B).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(B.__all__) == len(set(B.__all__))
    assert sorted(B.__all__) == sorted(bound)
