"""README.md names only what the package has.

Every backticked ``channel.``, ``codebook.``, ``finite.``, ``largesys.``,
``simulate.`` or ``cli.`` name in README.md (outside fenced code blocks)
must be an attribute of that module, and so must every bare call, such as
``optimal_intervals(cfgs)``, backticked in that module's row of the layout
table.  A rename or a removal that leaves the README behind fails here.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("channel", "codebook", "finite", "largesys", "simulate", "cli")
_NAME = re.compile(rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
_ROW = re.compile(rf"^\| `afpopt\.({'|'.join(MODULES)})` +\|(.*)$", re.M)
# a whole backticked span that is one call: a bare name, then its arguments
_CALL = re.compile(r"([A-Za-z_]\w*)\([^()]*\)")


def readme_names() -> list[tuple[str, str]]:
    """(module, name) for every module-qualified name in the README's inline code."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return sorted({m.groups() for span in spans for m in _NAME.finditer(span)})


def layout_calls(text: str) -> tuple[set[str], list[tuple[str, str]]]:
    """The modules with a row in the layout table, and (module, name) of each bare call in its row."""
    rows = _ROW.findall(text)
    calls = {
        (module, call.group(1))
        for module, row in rows
        for span in re.findall(r"`([^`]+)`", row) if (call := _CALL.fullmatch(span))
    }
    return {module for module, _ in rows}, sorted(calls)


def _missing(names: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"afpopt.{module}"), name)
    ]


def test_readme_names_exist():
    names = readme_names()
    assert ("simulate", "sweep") in names  # the scan reads the API notes
    missing = _missing(names)
    assert not missing, f"README names what the package lacks: {missing}"


def test_layout_calls_exist():
    modules, calls = layout_calls(README.read_text())
    assert modules == set(MODULES)
    assert ("finite", "optimal_intervals") in calls
    missing = _missing(calls)
    assert not missing, f"README's layout table calls what the package lacks: {missing}"


def test_layout_calls_catch_a_stale_name():
    # a call that outlived its function fails; a formula in call form is not read as a call
    row = "| `afpopt.largesys`   | `optimal_interval(cfg)`, `_rate_curve(cfg)`, `log2(x) / b_bar` |"
    modules, calls = layout_calls(row)
    assert calls == [("largesys", "_rate_curve"), ("largesys", "optimal_interval")]
    assert _missing(calls) == ["largesys._rate_curve"]
