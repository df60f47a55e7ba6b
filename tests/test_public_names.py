"""Every public name of the package has a user outside the tests.

A public function or class defined at the top level of an ``afpopt``
module must be used in ``src/`` outside its own definition, named in a
``perfbench/*.py`` file, or shown backticked in README.md (inline or in a
fenced block).  A helper that only the tests call belongs in the tests,
as an oracle, so one that creeps back into ``src/`` fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _used_names(node: ast.AST) -> set[str]:
    # the names a statement reads, bare or as a module attribute
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unused_public_names() -> list[str]:
    """``module.name`` of each public definition that nothing outside the tests names."""
    statements = [
        (path.stem, stmt) for path in sorted((ROOT / "src" / "afpopt").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    perfbench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    fenced = re.findall(r"^```.*?^```", readme, flags=re.M | re.S)
    shown = "\n".join(fenced + re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)))
    unused = []
    for module, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        in_src = any(stmt.name in _used_names(other) for _, other in statements if other is not stmt)
        word = re.compile(rf"\b{stmt.name}\b")
        if not (in_src or word.search(perfbench) or word.search(shown)):
            unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_public_name_has_a_user():
    assert unused_public_names() == []
