"""README.md names only what the package has.

Every backticked ``channel.``, ``codebook.``, ``finite.``, ``largesys.``,
``simulate.`` or ``cli.`` name in README.md (outside fenced code blocks)
must be an attribute of that module, so a rename or a removal that leaves
the README behind fails here.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("channel", "codebook", "finite", "largesys", "simulate", "cli")
_NAME = re.compile(rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def readme_names() -> list[tuple[str, str]]:
    """(module, name) for every module-qualified name in the README's inline code."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return sorted({m.groups() for span in spans for m in _NAME.finditer(span)})


def test_readme_names_exist():
    names = readme_names()
    assert ("simulate", "sweep") in names  # the scan reads the API notes
    missing = [
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"afpopt.{module}"), name)
    ]
    assert not missing, f"README names what the package lacks: {missing}"
