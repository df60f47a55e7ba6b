"""Command-line front end: computes tables, writes CSV/JSON, prints headlines.

This is the only module that touches the filesystem.  Every subcommand
writes exactly one table to its output path; result one-liners (optimal
intervals, winning ranges) go to stdout and diagnostics to stderr.

Output schema (CSV header, identical JSON keys):

    nt,nr,alpha,bits_per_block,K,metric,value,stderr,analytic,source,seed

Floats are printed with 12 significant digits; reruns with the same seed
produce byte-identical files.  Codebooks saved via ``compare-codebooks
--save-codebook`` use the JSON layout of :func:`afpopt.codebook.save_codebook`:
``{"nt", "bits", "kind", "entries"}`` with entries flattened entry-major as
interleaved [re, im, re, im, ...] floats.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built; load it
# here, with the rest of start-up
import locale  # noqa: F401
import math
import os
import sys
from pathlib import Path

from afpopt import finite, largesys, simulate
from afpopt.channel import FadingModel, SystemShape
from afpopt.codebook import save_codebook
from afpopt.simulate import ExperimentSpec, SweepRecord

CSV_HEADER = "nt,nr,alpha,bits_per_block,K,metric,value,stderr,analytic,source,seed"
_FIELDS = CSV_HEADER.split(",")
OUTPUT_DIR_ENV = "AFPOPT_OUTPUT_DIR"


def _fmt(x: object) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _record_dict(r: SweepRecord) -> dict:
    return {
        "nt": r.nt,
        "nr": r.nr,
        "alpha": r.alpha,
        "bits_per_block": r.bits_per_block,
        "K": r.num_blocks,
        "metric": r.metric,
        "value": r.value,
        "stderr": r.stderr,
        "analytic": r.analytic,
        "source": r.source,
        "seed": r.seed,
    }


def _json_value(x: object) -> object:
    # JSON has no Infinity or NaN: a non-finite float is written as the text
    # the CSV writer prints for it, as a string (null marks a failed cell)
    return _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def emit_table(records: list[SweepRecord], fmt: str, path: Path) -> None:
    """Write the record list as CSV or strict JSON; files end with a newline."""
    if not records:
        raise ValueError("refusing to write an empty table")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            d = _record_dict(r)
            lines.append(",".join(_fmt(d[k]) for k in _FIELDS))
        text = "\n".join(lines) + "\n"
    else:
        rows = [{k: _json_value(v) for k, v in _record_dict(r).items()} for r in records]
        text = json.dumps(rows, indent=1, allow_nan=False) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # single-line diagnostics, exit status 2
    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _alpha(text: str) -> float:
    x = float(text)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in [0, 1], got {text}")
    return x


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite value, got {text}")
    return x


def _positive(text: str) -> float:
    x = _finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {text}")
    return x


def _nonneg(text: str) -> float:
    x = _finite(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative value, got {text}")
    return x


def _positive_int(text: str) -> int:
    x = int(text)
    if x < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return x


def _output_path(opts: dict, command: str) -> Path:
    if opts.get("output"):
        return Path(opts["output"])
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / f"{command.replace('-', '_')}.{opts['format']}"


def _analytic_record(nt, nr, alpha, bits, k, metric, value, source, seed) -> SweepRecord:
    return SweepRecord(nt, nr, alpha, bits, k, metric, value, None, value, source, seed)


def _optimal_k_record(nt, nr, alpha, bits, k, source, seed) -> SweepRecord:
    return _analytic_record(nt, nr, alpha, bits, k, "optimal_k", float(k), source, seed)


def _rate_record(alpha, b_bar, k, value, seed) -> SweepRecord:
    return _analytic_record(0, 0, alpha, b_bar, k, "rate_difference", value, "large-system", seed)


def _finite_record(opts: dict, k: int, metric: str, value: float) -> SweepRecord:
    return _analytic_record(
        opts["nt"], opts["nr"], opts["alpha"], opts["bits"], k, metric, value, "finite", opts["seed"]
    )


def _print_k_star(result: finite.IntervalResult) -> None:
    flag = " (horizon-limited)" if result.horizon_limited else ""
    print(f"K*={result.k_star}{flag}")


def _finite_cfg(opts: dict) -> finite.AfpConfig:
    shape = SystemShape(opts["nt"], opts["nr"])
    return finite.AfpConfig(shape, opts["bits"], FadingModel(opts["alpha"]), opts["k_max"])


def _cmd_analytic(opts: dict) -> list[SweepRecord]:
    cfg = _finite_cfg(opts)
    curve = finite.scan_interval(lambda k: finite.avg_power(cfg, k), opts["k_max"])
    return [_finite_record(opts, k, "avg_power", value) for k, value in enumerate(curve, 1)]


def _cmd_large_system(opts: dict) -> list[SweepRecord]:
    cfg = largesys.LargeSystemConfig(opts["nr_bar"], opts["b_bar"], opts["alpha"], opts["k_max"])
    result = largesys.optimal_interval(cfg)
    _print_k_star(result)
    return [
        _rate_record(opts["alpha"], opts["b_bar"], k, value, opts["seed"])
        for k, value in enumerate(result.curve, 1)
    ]


def _spec(opts: dict, nt, nr, alpha, bits, k, kind, metric) -> ExperimentSpec:
    return ExperimentSpec(
        SystemShape(nt, nr), FadingModel(alpha), bits, k,
        trials=opts["trials"], seed=opts["seed"], codebook_kind=kind, metric=metric,
        candidates=opts["candidates"],
    )


def _cell_spec(opts: dict, k: int, kind: str, metric: str) -> ExperimentSpec:
    return _spec(opts, opts["nt"], opts["nr"], opts["alpha"], opts["bits"], k, kind, metric)


def _simulate_cell(opts: dict, k: int, kind: str, metric: str, rho: float = 10.0) -> SweepRecord:
    # building the spec can fail for a single cell (a budget over the
    # streaming cap); that costs the cell its value, not the whole table
    try:
        spec = _cell_spec(opts, k, kind, metric)
    except ValueError as exc:
        return simulate.failed_record(
            SystemShape(opts["nt"], opts["nr"]), FadingModel(opts["alpha"]),
            opts["bits"], k, metric, kind, opts["seed"], exc,
        )
    return simulate.run_spec(spec, rho)


def _cmd_simulate(opts: dict) -> list[SweepRecord]:
    ks = range(opts["k_min"], opts["k_max"] + 1)
    if not ks:
        raise ValueError(f"empty K range [{opts['k_min']}, {opts['k_max']}]")
    rho = 10.0 ** (opts["rho_db"] / 10.0)
    return [_simulate_cell(opts, k, opts["codebook"], opts["metric"], rho) for k in ks]


def _cmd_optimal_k(opts: dict) -> list[SweepRecord]:
    result = finite.optimal_interval(_finite_cfg(opts))
    _print_k_star(result)
    return [_finite_record(opts, result.k_star, "optimal_k", float(result.k_star))]


def _cmd_afp_range(opts: dict) -> list[SweepRecord]:
    cfg = _finite_cfg(opts)
    cmp = finite.afp_beats_mfp(cfg)
    ks = cmp.winning_k
    if not ks:
        print("K in []")
    elif ks == tuple(range(ks[0], ks[-1] + 1)):
        print(f"K in [{ks[0]},{ks[-1]}]")
    else:
        print("K in {" + ",".join(map(str, ks)) + "}")
    # no winning K: one row carrying the large-budget bound
    rows = zip(ks, cmp.pointwise_bound) if ks else [(1, cmp.large_budget_bound)]
    return [_finite_record(opts, k, "afp_minus_mfp_bound", bound) for k, bound in rows]


def _cmd_compare_codebooks(opts: dict) -> list[SweepRecord]:
    records: list[SweepRecord] = []
    best: dict[str, tuple[float, int]] = {}
    for kind in ("rvq", "maximin"):
        for k in range(1, opts["k_max"] + 1):
            rec = _simulate_cell(opts, k, kind, "normalized_power")
            records.append(rec)
            if rec.value is not None and (kind not in best or rec.value > best[kind][0]):
                best[kind] = (rec.value, k)
    for kind in ("rvq", "maximin"):
        if kind in best:
            print(f"{kind} K*={best[kind][1]}")
    return records


def _save_maximin_codebook(opts: dict) -> None:
    """Write the codebook the K = k_max maximin cell simulated (its cache entry)."""
    spec = _cell_spec(opts, opts["k_max"], "maximin", "normalized_power")
    codebook = simulate.fixed_codebook(spec)
    try:
        save_codebook(codebook, opts["save_codebook"])
    except OSError as exc:
        raise RuntimeError(f"cannot write {opts['save_codebook']}: {exc}") from exc


def _finite_k(nt, nr, alpha, bits, seed) -> SweepRecord:
    cfg = finite.AfpConfig(SystemShape(nt, nr), bits, FadingModel(alpha))
    return _optimal_k_record(nt, nr, alpha, bits, finite.optimal_interval(cfg).k_star, "finite", seed)


def _large_k(nr_bar, b_bar, alpha, seed) -> SweepRecord:
    cfg = largesys.LargeSystemConfig(nr_bar, b_bar, alpha)
    k = largesys.optimal_interval(cfg).k_star
    return _optimal_k_record(0, 0, alpha, b_bar, k, "large-system", seed)


def _large_rate(nr_bar, b_bar, alpha, k, seed) -> SweepRecord:
    cfg = largesys.LargeSystemConfig(nr_bar, b_bar, alpha)
    return _rate_record(alpha, b_bar, k, largesys.rate_difference(k, cfg), seed)


_FIG4_B_BARS = (0.0625, 0.125, 0.25, 0.5)
_FIG5_ALPHAS = (0.5, 0.8, 0.9, 0.95, 1.0)

# the figure presets, as parameters: per figure id, the analytic rows (a
# record maker and its arguments, less the seed) and the Monte Carlo cells
# (nt, nr, alpha, bits, K, codebook, metric); a table lists the analytic
# rows first, then the simulated ones, each in the order given here
_PRESETS: dict[str, tuple[tuple, tuple]] = {
    "fig1": ((), tuple(
        (nt, nr, 0.8, 1.0, k, "rvq", "normalized_power")
        for nt, nr in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2)) for k in range(1, 11)
    )),
    "fig2": ((), tuple(
        (3, 2, alpha, 1.0, k, kind, "normalized_power")
        for alpha in (0.8, 0.9, 0.95)
        for kind, k_hi in (("rvq", 10), ("maximin", 8)) for k in range(1, k_hi + 1)
    )),
    "fig3": (tuple(
        row
        for alpha in (0.5, 0.8, 0.9, 0.99, 0.9999) for b_bar in (0.5, 1.0)
        for row in ((_finite_k, (2, 2, alpha, 2 * b_bar)), (_large_k, (1.0, b_bar, alpha)))
    ), ()),
    "fig4": (
        tuple((_large_rate, (1.0, b_bar, alpha, 8)) for alpha in (0.5, 0.9) for b_bar in _FIG4_B_BARS),
        tuple(
            (nt, nt, alpha, b_bar * nt, 8, "rvq", "rate_difference")
            for alpha in (0.5, 0.9) for b_bar in _FIG4_B_BARS for nt in (4, 8, 16)
            if not round(b_bar * nt * 8) > 16
        ),
    ),
    "fig5": (
        tuple((_large_rate, (1.0, 0.25, alpha, k)) for alpha in _FIG5_ALPHAS for k in range(1, 11)),
        tuple((4, 4, alpha, 1.0, k, "rvq", "rate_difference") for alpha in _FIG5_ALPHAS for k in range(1, 11)),
    ),
    "fig6": (tuple(
        (_large_k, (nr_bar, b_bar, alpha))
        for nr_bar in (0.0, 0.5, 1.0, 2.0) for b_bar in (0.25, 1.0)
        for alpha in (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)
    ), ()),
    "fig7": (tuple((_finite_k, (nt, 2, 0.8, bits)) for nt in (2, 3, 4, 5, 6) for bits in (1.0, 2.0)), ()),
}
FIGURE_IDS = tuple(_PRESETS)


def _cmd_reproduce_figure(opts: dict) -> list[SweepRecord]:
    rows, cells = _PRESETS[opts["id"]]
    records = [make(*args, opts["seed"]) for make, args in rows]
    if cells:
        records.extend(simulate.sweep([_spec(opts, *cell) for cell in cells]))
    return records


_COMMANDS = {
    "analytic": (_cmd_analytic, "closed-form average power vs K"),
    "large-system": (_cmd_large_system, "asymptotic rate difference vs K, prints K*"),
    "simulate": (_cmd_simulate, "Monte Carlo estimate over a K range"),
    "optimal-k": (_cmd_optimal_k, "exhaustive optimal feedback interval, prints K*"),
    "afp-range": (_cmd_afp_range, "intervals where pooled feedback beats per-block"),
    "compare-codebooks": (_cmd_compare_codebooks, "RVQ vs maximin normalized power vs K"),
    "reproduce-figure": (_cmd_reproduce_figure, "run a named figure preset"),
}

_CHANNEL = ("analytic", "simulate", "optimal-k", "afp-range", "compare-codebooks")
_ALL = tuple(_COMMANDS)

# every flag once: the subcommands that take it, its default and its other
# argparse keywords.  Every command sees every default, whether or not it
# takes the flag (simulate reads candidates); a config-file value becomes
# its flag, so it passes the same checks.
_OPTIONS: dict[str, tuple[tuple[str, ...], object, dict]] = {
    "id": (("reproduce-figure",), None, {"choices": FIGURE_IDS, "required": True}),
    "nr_bar": (("large-system",), 1.0, {"type": _nonneg}),
    "b_bar": (("large-system",), 1.0, {"type": _positive}),
    "nt": (_CHANNEL, 2, {"type": _positive_int}),
    "nr": (_CHANNEL, 2, {"type": _positive_int}),
    "bits": (_CHANNEL, 1.0, {"type": _positive, "help": "feedback bits per block"}),
    "alpha": ((*_CHANNEL, "large-system"), 0.8, {"type": _alpha}),
    "k_max": ((*_CHANNEL, "large-system"), 64, {"type": _positive_int}),
    "k_min": (("simulate",), 1, {"type": _positive_int}),
    "trials": (("simulate", "compare-codebooks", "reproduce-figure"), 3000, {"type": _positive_int}),
    "metric": (("simulate",), "avg_power", {"choices": simulate.METRICS}),
    "codebook": (("simulate",), "rvq", {"choices": ("rvq", "maximin")}),
    "rho_db": (("simulate",), 10.0, {"type": _finite, "help": "background SNR in dB"}),
    "candidates": (("compare-codebooks",), 10_000, {"type": _positive_int}),
    "save_codebook": (("compare-codebooks",), None, {
        "help": "also save the maximin codebook of the K = k-max cell (JSON)"}),
    "output": (_ALL, None, {"help": "output table path (default: <command>.<format> "
                                    f"under ${OUTPUT_DIR_ENV} or the working directory)"}),
    "format": (_ALL, "csv", {"choices": ("csv", "json")}),
    "seed": (_ALL, 0, {"type": int}),
    "config": (_ALL, None, {"help": "JSON file with defaults for any flag"}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="afpopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, (commands, default, kwargs) in _OPTIONS.items():
            if command in commands:
                p.add_argument(f"--{name.replace('_', '-')}", default=default, **kwargs)
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse the flags, with ``--config`` values checked exactly like flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"bad config file {args.config}: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"bad config file {args.config}: expected a JSON object")
    # each value becomes its flag, placed before the command line's own
    # flags: it passes the same type and choice checks, and a flag still
    # wins; a null value counts as not given, so the default applies
    tokens = [
        f"--{key.replace('_', '-')}={value}" for key, value in loaded.items() if value is not None
    ]
    args, unknown = parser.parse_known_args([argv[0], *tokens, *argv[1:]])
    if unknown:
        keys = ", ".join(token.split("=", 1)[0].lstrip("-") for token in unknown)
        parser.error(f"bad config file {args.config}: unknown key(s) for {args.command}: {keys}")
    return args


def run(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    opts = {name: default for name, (_, default, _) in _OPTIONS.items()} | vars(args)
    path = _output_path(opts, args.command)
    try:
        records = _COMMANDS[args.command][0](opts)
    except (ValueError, RuntimeError) as exc:
        print(f"afpopt {args.command}: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in records if r.error is not None]
    for r in failed:
        print(
            f"afpopt {args.command}: cell nt={r.nt} nr={r.nr} alpha={r.alpha} "
            f"K={r.num_blocks} failed: {r.error}",
            file=sys.stderr,
        )
    try:
        emit_table(records, opts["format"], path)
    except RuntimeError as exc:
        print(f"afpopt {args.command}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {path}", file=sys.stderr)
    if args.command == "compare-codebooks" and opts["save_codebook"]:
        try:
            _save_maximin_codebook(opts)
        except (ValueError, RuntimeError) as exc:
            print(f"afpopt {args.command}: codebook not saved: {exc}", file=sys.stderr)
            return 1
    return 1 if failed else 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
