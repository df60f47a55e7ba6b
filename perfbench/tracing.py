"""Traced mode: spans and counts around the public functions of each layer.

The tracer wraps functions from outside the program by replacing module
attributes.  Every ``afpopt`` module attribute bound to a wrapped function
is replaced, so names that one module imported from another by name
(``simulate.select_beamformer_streaming``, ``simulate.select_beamformer``,
``simulate.maximin_codebook``, ``cli.maximin_codebook``) are traced too.
The one exception is ``codebook.complex_normal``: codebook draws its own
entries with it, and that is codebook work, not a channel draw.

Spans (name, start, end, parent) are kept in memory; counts are taken at the
same boundaries, so they repeat exactly for a given argument list.  A span's
self time is its duration minus that of its child spans, and every wrapped
call runs under a ``cli.run`` root span, so the layers' self times add up to
the time spent in ``cli.run``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "simulate", "codebook", "channel", "finite", "largesys")

TRACED = {
    "cli": ("run", "emit_table"),
    "simulate": (
        "sweep", "run_spec", "simulate_avg_power", "simulate_avg_rate",
        "simulate_rate_difference", "block_power_trials", "perfect_feedback_mean",
        "perfect_feedback_power", "_analytic_value",
    ),
    "codebook": (
        "select_beamformer_streaming", "select_beamformer", "maximin_codebook",
        "rvq_codebook", "save_codebook",
    ),
    "channel": ("sample_channel", "evolve", "trajectory", "gram_eigenvalues", "complex_normal"),
    "finite": ("optimal_interval", "afp_beats_mfp", "avg_power", "rvq_power_ntx2", "rvq_power_2xnr"),
    "largesys": ("optimal_interval", "afp_beats_mfp", "rate_difference"),
}

_NOT_REBOUND = {("codebook", "complex_normal")}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs the wrappers, records spans and counts, and restores the modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.trial_blocks = 0
        self.entries_scored = 0
        self.rows_written = 0
        self.ntx2_keys: set[tuple] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._counters: dict[str, Callable[[tuple, dict, object], None]] = {
            "simulate.block_power_trials": self._count_blocks,
            "codebook.select_beamformer_streaming": self._count_entries,
            "finite.rvq_power_ntx2": self._count_ntx2,
            "cli.emit_table": self._count_rows,
        }

    def _count_blocks(self, args, kwargs, result) -> None:
        self.trial_blocks += result.shape[0] * result.shape[1]

    def _count_entries(self, args, kwargs, result) -> None:
        self.entries_scored += 1 << _arg(args, kwargs, 2, "bits")

    def _count_ntx2(self, args, kwargs, result) -> None:
        self.ntx2_keys.add((_arg(args, kwargs, 0, "nt"), float(_arg(args, kwargs, 1, "total_bits"))))

    def _count_rows(self, args, kwargs, result) -> None:
        self.rows_written += len(_arg(args, kwargs, 0, "records"))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"afpopt.{layer}") for layer in LAYERS}
        for layer, names in TRACED.items():
            for attr in names:
                original = getattr(modules[layer], attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for owner, module in modules.items():
                    for key, value in list(vars(module).items()):
                        if value is original and (owner, key) not in _NOT_REBOUND:
                            self._saved.append((module, key, value))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        """One line per span: index, parent, name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start,end\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (seconds unless named)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)  # inclusive, by span name
        self_s: dict[str, float] = defaultdict(float)  # self, by span name
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1

        def layer_self(layer: str) -> float:
            return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

        def per(numer: float, denom: float, scale: float) -> float:
            return numer / denom * scale if denom else 0.0

        loop_self = self_s["simulate.block_power_trials"]
        rvq_s = total["codebook.select_beamformer_streaming"]
        ntx2_s = total["finite.rvq_power_ntx2"]
        return {
            "trace.wall_s": total["cli.run"],
            "simulate.self_s": layer_self("simulate"),
            "simulate.trial_loop_self_s": loop_self,
            "simulate.trial_blocks": self.trial_blocks,
            "simulate.us_per_trial_block": per(loop_self, self.trial_blocks, 1e6),
            "simulate.cells": calls["simulate.run_spec"],
            "simulate.normalizer_s": total["simulate.perfect_feedback_mean"],
            "simulate.analytic_attach_s": total["simulate._analytic_value"],
            "codebook.self_s": layer_self("codebook"),
            "codebook.rvq_selections": calls["codebook.select_beamformer_streaming"],
            "codebook.rvq_entries_scored": self.entries_scored,
            "codebook.rvq_select_s": rvq_s,
            "codebook.rvq_ns_per_entry": per(rvq_s, self.entries_scored, 1e9),
            "codebook.fixed_selections": calls["codebook.select_beamformer"],
            "codebook.fixed_select_s": total["codebook.select_beamformer"],
            "codebook.maximin_builds": calls["codebook.maximin_codebook"],
            "codebook.maximin_build_s": total["codebook.maximin_codebook"],
            "finite.self_s": layer_self("finite"),
            "finite.ntx2_calls": calls["finite.rvq_power_ntx2"],
            "finite.ntx2_distinct": len(self.ntx2_keys),
            "finite.ntx2_s": ntx2_s,
            "finite.ms_per_ntx2_distinct": per(ntx2_s, len(self.ntx2_keys), 1e3),
            "finite.searches": calls["finite.optimal_interval"] + calls["finite.afp_beats_mfp"],
            "finite.search_self_s": self_s["finite.optimal_interval"] + self_s["finite.afp_beats_mfp"],
            "finite.avg_power_calls": calls["finite.avg_power"],
            "finite.closed_form_calls": calls["finite.rvq_power_2xnr"],
            "largesys.searches": calls["largesys.optimal_interval"] + calls["largesys.afp_beats_mfp"],
            "largesys.rate_difference_calls": calls["largesys.rate_difference"],
            "largesys.s": layer_self("largesys"),
            "channel.calls": sum(v for k, v in calls.items() if k.startswith("channel.")),
            "channel.s": layer_self("channel"),
            "cli.invocations": calls["cli.run"],
            "cli.rows_written": self.rows_written,
            "cli.emit_s": total["cli.emit_table"],
            "cli.self_s": layer_self("cli"),
        }
