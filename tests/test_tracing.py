"""The benchmark's tracer must find every name it traces in the package.

``perfbench/tracing.py`` looks up each name of its ``TRACED`` table with
``getattr`` when it installs, so a traced run of the benchmark fails once
the package drops or renames one of them.  Installing and removing the
tracer here makes such a change fail the test suite first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    modules = {layer: importlib.import_module(f"afpopt.{layer}") for layer in tracing.LAYERS}
    traced = [(modules[layer], name) for layer, names in tracing.TRACED.items() for name in names]
    originals = [getattr(module, name) for module, name in traced]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(module, name).__wrapped__ for module, name in traced]
    finally:
        tracer.uninstall()
    assert wrapped == originals
    assert [getattr(module, name) for module, name in traced] == originals
