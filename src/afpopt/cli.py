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
import math
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

from afpopt import finite, largesys, simulate
from afpopt.channel import FadingModel, SystemShape
from afpopt.codebook import KINDS, save_codebook
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


def _columns(r: SweepRecord) -> tuple:
    # the record's values in CSV_HEADER's order; its error is not a column
    return (r.nt, r.nr, r.alpha, r.bits_per_block, r.num_blocks, r.metric, r.value, r.stderr,
            r.analytic, r.source, r.seed)


def _json_value(x: object) -> object:
    # JSON has no Infinity or NaN: a non-finite float is written as the text
    # the CSV writer prints for it, as a string (null marks a failed cell)
    return _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def emit_table(records: list[SweepRecord], fmt: str, path: Path) -> None:
    """Write the record list as CSV or strict JSON; files end with a newline."""
    if not records:
        raise ValueError("refusing to write an empty table")
    if fmt == "csv":
        text = "\n".join([CSV_HEADER] + [",".join(map(_fmt, _columns(r))) for r in records]) + "\n"
    else:
        rows = [dict(zip(_FIELDS, map(_json_value, _columns(r)))) for r in records]
        text = json.dumps(rows, indent=1, allow_nan=False) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _usage_error(prog: str, message: str) -> NoReturn:
    # single-line diagnostics, exit status 2
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # type: ignore[override]
        _usage_error(self.prog, message)


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


def _row(nt, nr, alpha, bits, k, metric, value, source, seed) -> SweepRecord:
    # an analytic row: its value is also its analytic column, with no stderr
    return SweepRecord(nt, nr, alpha, bits, k, metric, value, None, value, source, seed)


def _channel(opts: dict) -> tuple:
    # the flags of one channel: nt, nr, alpha and bits per block
    return opts["nt"], opts["nr"], opts["alpha"], opts["bits"]


def _print_k_star(result: finite.IntervalResult) -> None:
    flag = " (horizon-limited)" if result.horizon_limited else ""
    print(f"K*={result.k_star}{flag}")


def _finite_cfg(opts: dict) -> finite.AfpConfig:
    return _finite_k(*_channel(opts), opts["k_max"])


def _cmd_analytic(opts: dict) -> list[SweepRecord]:
    cfg = _finite_cfg(opts)
    ks = range(1, cfg.k_max + 1)
    powers = finite.quantized_powers(cfg.shape, [cfg.bits_per_block * k for k in ks])
    values = (finite.interval_average_power(cfg.shape.nr, g, cfg.model.alpha, k) for k, g in zip(ks, powers))
    return [_row(*_channel(opts), k, "avg_power", value, "finite", opts["seed"]) for k, value in zip(ks, values)]


def _cmd_large_system(opts: dict) -> list[SweepRecord]:
    cfg = largesys.LargeSystemConfig(opts["nr_bar"], opts["b_bar"], opts["alpha"], opts["k_max"])
    result = largesys.optimal_interval(cfg)
    _print_k_star(result)
    # the search stops at its envelope; the table goes on to k_max
    rest = range(len(result.curve) + 1, cfg.k_max + 1)
    curve = result.curve + tuple(largesys.rate_difference(k, cfg) for k in rest)
    return [
        _row(0, 0, opts["alpha"], opts["b_bar"], k, "rate_difference", value, "large-system", opts["seed"])
        for k, value in enumerate(curve, 1)
    ]


def _spec(opts: dict, nt, nr, alpha, bits, k, kind, metric) -> ExperimentSpec:
    return ExperimentSpec(
        SystemShape(nt, nr), FadingModel(alpha), bits, k,
        trials=opts["trials"], seed=opts["seed"], codebook_kind=kind, metric=metric,
        candidates=opts["candidates"],
    )


def _cmd_simulate(opts: dict) -> list[SweepRecord]:
    ks = range(opts["k_min"], opts["k_max"] + 1)
    if not ks:
        raise ValueError(f"empty K range [{opts['k_min']}, {opts['k_max']}]")
    specs = [_spec(opts, *_channel(opts), k, opts["codebook"], opts["metric"]) for k in ks]
    return simulate.sweep(specs, opts["rho_db"])


def _cmd_optimal_k(opts: dict) -> list[SweepRecord]:
    result = finite.optimal_interval(_finite_cfg(opts))
    _print_k_star(result)
    return [_row(*_channel(opts), result.k_star, "optimal_k", float(result.k_star), "finite", opts["seed"])]


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
    return [
        _row(*_channel(opts), k, "afp_minus_mfp_bound", bound, "finite", opts["seed"]) for k, bound in rows
    ]


def _cmd_compare_codebooks(opts: dict) -> list[SweepRecord]:
    k_max = opts["k_max"]
    cells = [(kind, k) for kind in KINDS for k in range(1, k_max + 1)]
    records = simulate.sweep([_spec(opts, *_channel(opts), k, kind, "normalized_power") for kind, k in cells])
    for i, kind in enumerate(KINDS):  # each kind's curve over K = 1 .. k_max, a failed cell at -inf
        curve = tuple(-math.inf if r.value is None else r.value for r in records[i * k_max : (i + 1) * k_max])
        best = finite.best_interval(curve, k_max)
        if best.value > -math.inf:  # no line for a kind whose every cell failed
            print(f"{kind} K*={best.k_star}")
    return records


def _finite_k(nt, nr, alpha, bits, k_max=finite.AfpConfig.k_max) -> finite.AfpConfig:
    return finite.AfpConfig(SystemShape(nt, nr), bits, FadingModel(alpha), k_max)


def _large_k(nr_bar, b_bar, alpha, seed) -> SweepRecord:
    k = largesys.optimal_interval(largesys.LargeSystemConfig(nr_bar, b_bar, alpha)).k_star
    return _row(0, 0, alpha, b_bar, k, "optimal_k", float(k), "large-system", seed)


def _large_rate(nr_bar, b_bar, alpha, k, seed) -> SweepRecord:
    value = largesys.rate_difference(k, largesys.LargeSystemConfig(nr_bar, b_bar, alpha))
    return _row(0, 0, alpha, b_bar, k, "rate_difference", value, "large-system", seed)


_FIG4_B_BARS = (0.0625, 0.125, 0.25, 0.5)
_FIG5_ALPHAS = (0.5, 0.8, 0.9, 0.95, 1.0)

# the figure presets, as parameters: per figure id, the analytic rows (a
# record maker and its arguments, less the seed; _finite_k rows are finite
# K* searches) and the Monte Carlo cells (nt, nr, alpha, bits, K, codebook,
# metric); a table lists the analytic rows first, then the simulated ones,
# each in the order given here
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
    """The preset's table; its finite K* searches run in one :func:`finite.optimal_intervals` call."""
    rows, cells = _PRESETS[opts["id"]]
    searched = [args for make, args in rows if make is _finite_k]
    results = iter(finite.optimal_intervals(_finite_k(*args) for args in searched))
    records = [
        _row(*args, (k := next(results).k_star), "optimal_k", float(k), "finite", opts["seed"])
        if make is _finite_k else make(*args, opts["seed"])
        for make, args in rows
    ]
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
    "k_max": ((*_CHANNEL, "large-system"), finite.AfpConfig.k_max, {"type": _positive_int}),
    "k_min": (("simulate",), 1, {"type": _positive_int}),
    "trials": (("simulate", "compare-codebooks", "reproduce-figure"), ExperimentSpec.trials,
               {"type": _positive_int}),
    "metric": (("simulate",), ExperimentSpec.metric, {"choices": simulate.METRICS}),
    "codebook": (("simulate",), ExperimentSpec.codebook_kind, {"choices": KINDS}),
    "rho_db": (("simulate",), simulate.RHO_DB, {"type": _finite, "help": "background SNR in dB"}),
    "candidates": (("compare-codebooks",), ExperimentSpec.candidates, {"type": _positive_int}),
    "save_codebook": (("compare-codebooks",), None, {
        "help": "also save the maximin codebook of the K = k-max cell (JSON)"}),
    "output": (_ALL, None, {"help": "output table path (default: <command>.<format> "
                                    f"under ${OUTPUT_DIR_ENV} or the working directory)"}),
    "format": (_ALL, "csv", {"choices": ("csv", "json")}),
    "seed": (_ALL, ExperimentSpec.seed, {"type": int}),
    "config": (_ALL, None, {"help": "JSON file with defaults for any flag"}),
}


def build_parser() -> _Parser:
    """The full parser, built only for a line that :func:`_read_plain` declines: abbreviations, help, errors."""
    parser = _Parser(prog="afpopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, (commands, default, kwargs) in _OPTIONS.items():
            if name in commands:
                p.add_argument(f"--{option.replace('_', '-')}", default=default, **kwargs)
    return parser


# argparse reads a token that starts with "-" as a flag, not as a value,
# unless it looks like a negative number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a command followed only by exact ``--flag value`` or ``--flag=value`` pairs.

    Each value passes its flag's type and choice checks, a repeated flag
    keeps its last value and a flag left out takes its default, as in
    :func:`build_parser`'s namespace.  Any other line gives None: help,
    an abbreviated or unknown flag, a value that argparse would read as a
    flag or that fails its check, a missing required flag.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    names = {f"--{name.replace('_', '-')}": name for name, option in _OPTIONS.items() if command in option[0]}
    # a required flag has no default: it is in values only once given
    values = {name: _OPTIONS[name][1] for name in names.values() if not _OPTIONS[name][2].get("required")}
    for token in tokens:
        flag, joined, text = token.partition("=")
        if not joined:
            text = next(tokens, None)
        name = names.get(flag)
        if name is None or text is None or (text.startswith("-") and not _NEGATIVE_NUMBER.match(text)):
            return None
        kwargs = _OPTIONS[name][2]
        try:
            value = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[name] = value
    if len(values) < len(names):
        return None
    return argparse.Namespace(command=command, **values)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse the flags, with ``--config`` values checked exactly like flags.

    A plain line, a command and exact flags of its own with their values,
    is read straight from the option table (:func:`_read_plain`), with no
    parser built.  Any other line goes to :func:`build_parser`, which takes
    abbreviations and prints the help or the error, worded as it always was.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if not args.config:
        return args
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _usage_error("afpopt", f"bad config file {args.config}: {exc}")
    if not isinstance(loaded, dict):
        _usage_error("afpopt", f"bad config file {args.config}: expected a JSON object")
    # each value becomes its flag, placed before the command line's own
    # flags: it passes the same type and choice checks, and a flag still
    # wins; a null value counts as not given, so the default applies
    tokens = [
        f"--{key.replace('_', '-')}={value}" for key, value in loaded.items() if value is not None
    ]
    command = args.command
    line = [command, *tokens, *argv[1:]]
    args = _read_plain(line)
    if args is None:
        args, unknown = build_parser().parse_known_args(line)
        if unknown:
            keys = ", ".join(token.split("=", 1)[0].lstrip("-") for token in unknown)
            _usage_error("afpopt", f"bad config file {args.config}: unknown key(s) for {command}: {keys}")
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
        cell, target = records[-1], opts["save_codebook"]  # the K = k_max maximin cell
        reason = cell.error
        if cell.codebook is not None:
            try:
                save_codebook(cell.codebook, target)
                reason = None
            except OSError as exc:
                reason = f"cannot write {target}: {exc}"
        if reason is not None:
            print(f"afpopt {args.command}: codebook not saved: {reason}", file=sys.stderr)
            return 1
    return 1 if failed else 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
