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

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


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


def emit_table(records: list[SweepRecord], fmt: str, path: Path) -> None:
    """Write the record list as CSV or JSON; files end with a newline."""
    if not records:
        raise ValueError("refusing to write an empty table")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            d = _record_dict(r)
            lines.append(",".join(_fmt(d[k]) for k in _FIELDS))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([_record_dict(r) for r in records], indent=1) + "\n"
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


def build_parser() -> _Parser:
    parser = _Parser(prog="afpopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--output", help="output table path (default: <command>.<format> "
                                        f"under ${OUTPUT_DIR_ENV} or the working directory)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", help="JSON file with defaults for any flag")

    def channel_args(p: _Parser) -> None:
        p.add_argument("--nt", type=_positive_int, default=None)
        p.add_argument("--nr", type=_positive_int, default=None)
        p.add_argument("--bits", type=_positive, default=None, help="feedback bits per block")
        p.add_argument("--alpha", type=_alpha, default=None)
        p.add_argument("--k-max", type=_positive_int, default=None)

    p = sub.add_parser("analytic", parents=[], help="closed-form average power vs K")
    channel_args(p)
    common(p)

    p = sub.add_parser("large-system", help="asymptotic rate difference vs K, prints K*")
    p.add_argument("--nr-bar", type=_nonneg, default=None)
    p.add_argument("--b-bar", type=_positive, default=None)
    p.add_argument("--alpha", type=_alpha, default=None)
    p.add_argument("--k-max", type=_positive_int, default=None)
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo estimate over a K range")
    channel_args(p)
    p.add_argument("--k-min", type=_positive_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--metric", choices=simulate.METRICS, default=None)
    p.add_argument("--codebook", choices=("rvq", "maximin"), default=None)
    p.add_argument("--rho-db", type=_finite, default=None, help="background SNR in dB")
    common(p)

    p = sub.add_parser("optimal-k", help="exhaustive optimal feedback interval, prints K*")
    channel_args(p)
    common(p)

    p = sub.add_parser("afp-range", help="intervals where pooled feedback beats per-block")
    channel_args(p)
    common(p)

    p = sub.add_parser("compare-codebooks", help="RVQ vs maximin normalized power vs K")
    channel_args(p)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--candidates", type=_positive_int, default=None)
    p.add_argument("--save-codebook", default=None, help="also save the maximin codebook of the K = k-max cell (JSON)")
    common(p)

    p = sub.add_parser("reproduce-figure", help="run a named figure preset")
    p.add_argument("--id", choices=FIGURE_IDS, required=True)
    p.add_argument("--trials", type=_positive_int, default=None)
    common(p)

    return parser


# defaults applied beneath config-file values; flags override both
_DEFAULTS = {
    "nt": 2,
    "nr": 2,
    "bits": 1.0,
    "alpha": 0.8,
    "k_max": 64,
    "k_min": 1,
    "nr_bar": 1.0,
    "b_bar": 1.0,
    "trials": 3000,
    "metric": "avg_power",
    "codebook": "rvq",
    "rho_db": 10.0,
    "candidates": 10_000,
    "format": "csv",
    "seed": 0,
    "output": None,
    "save_codebook": None,
}


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


def _merge_config(args: argparse.Namespace) -> dict:
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None}
    return {**_DEFAULTS, **given}


def _output_path(opts: dict, command: str) -> Path:
    if opts.get("output"):
        return Path(opts["output"])
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / f"{command.replace('-', '_')}.{opts['format']}"


def _analytic_record(nt, nr, alpha, bits, k, metric, value, source, seed) -> SweepRecord:
    return SweepRecord(nt, nr, alpha, bits, k, metric, value, None, value, source, seed)


def _finite_cfg(opts: dict) -> finite.AfpConfig:
    shape = SystemShape(opts["nt"], opts["nr"])
    return finite.AfpConfig(shape, opts["bits"], FadingModel(opts["alpha"]), opts["k_max"])


def _cmd_analytic(opts: dict) -> list[SweepRecord]:
    cfg = _finite_cfg(opts)
    return [
        _analytic_record(
            opts["nt"], opts["nr"], opts["alpha"], opts["bits"], k,
            "avg_power", finite.avg_power(cfg, k), "finite", opts["seed"],
        )
        for k in range(1, opts["k_max"] + 1)
    ]


def _cmd_large_system(opts: dict) -> list[SweepRecord]:
    cfg = largesys.LargeSystemConfig(opts["nr_bar"], opts["b_bar"], opts["alpha"], opts["k_max"])
    result = largesys.optimal_interval(cfg)
    flag = " (horizon-limited)" if result.horizon_limited else ""
    print(f"K*={result.k_star}{flag}")
    return [
        _analytic_record(
            0, 0, opts["alpha"], opts["b_bar"], k, "rate_difference",
            largesys.rate_difference(k, cfg), "large-system", opts["seed"],
        )
        for k in range(1, opts["k_max"] + 1)
    ]


def _cell_spec(opts: dict, k: int, kind: str, metric: str) -> ExperimentSpec:
    return ExperimentSpec(
        SystemShape(opts["nt"], opts["nr"]), FadingModel(opts["alpha"]), opts["bits"], k,
        trials=opts["trials"], seed=opts["seed"], codebook_kind=kind, metric=metric,
        candidates=opts["candidates"],
    )


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
    cfg = _finite_cfg(opts)
    result = finite.optimal_interval(cfg)
    flag = " (horizon-limited)" if result.horizon_limited else ""
    print(f"K*={result.k_star}{flag}")
    return [
        _analytic_record(
            opts["nt"], opts["nr"], opts["alpha"], opts["bits"], result.k_star,
            "optimal_k", float(result.k_star), "finite", opts["seed"],
        )
    ]


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
    records = [
        _analytic_record(
            opts["nt"], opts["nr"], opts["alpha"], opts["bits"], k,
            "afp_minus_mfp_bound", bound, "finite", opts["seed"],
        )
        for k, bound in zip(ks, cmp.pointwise_bound)
    ]
    if not records:
        records = [
            _analytic_record(
                opts["nt"], opts["nr"], opts["alpha"], opts["bits"], 1,
                "afp_minus_mfp_bound", cmp.large_budget_bound, "finite", opts["seed"],
            )
        ]
    return records


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


def _figure_specs(fig: str, trials: int, seed: int) -> tuple[list[SweepRecord], list[ExperimentSpec], float]:
    """Returns (precomputed analytic records, simulation specs, rho)."""
    analytic: list[SweepRecord] = []
    specs: list[ExperimentSpec] = []
    rho = 10.0
    if fig == "fig1":
        for nt, nr in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2)):
            for k in range(1, 11):
                specs.append(
                    ExperimentSpec(
                        SystemShape(nt, nr), FadingModel(0.8), 1.0, k,
                        trials=trials, seed=seed, metric="normalized_power",
                    )
                )
    elif fig == "fig2":
        for alpha in (0.8, 0.9, 0.95):
            for kind, k_hi in (("rvq", 10), ("maximin", 8)):
                for k in range(1, k_hi + 1):
                    specs.append(
                        ExperimentSpec(
                            SystemShape(3, 2), FadingModel(alpha), 1.0, k,
                            trials=trials, seed=seed,
                            codebook_kind=kind, metric="normalized_power",
                        )
                    )
    elif fig == "fig3":
        for alpha in (0.5, 0.8, 0.9, 0.99, 0.9999):
            for b_bar in (0.5, 1.0):
                fin = finite.optimal_interval(
                    finite.AfpConfig(SystemShape(2, 2), 2 * b_bar, FadingModel(alpha))
                )
                analytic.append(_analytic_record(
                    2, 2, alpha, 2 * b_bar, fin.k_star, "optimal_k",
                    float(fin.k_star), "finite", seed,
                ))
                big = largesys.optimal_interval(largesys.LargeSystemConfig(1.0, b_bar, alpha))
                analytic.append(_analytic_record(
                    0, 0, alpha, b_bar, big.k_star, "optimal_k",
                    float(big.k_star), "large-system", seed,
                ))
    elif fig == "fig4":
        for alpha in (0.5, 0.9):
            for b_bar in (0.0625, 0.125, 0.25, 0.5):
                for nt in (4, 8, 16):
                    if round(b_bar * nt * 8) > 16:
                        continue
                    specs.append(
                        ExperimentSpec(
                            SystemShape(nt, nt), FadingModel(alpha), b_bar * nt, 8,
                            trials=trials, seed=seed, metric="rate_difference",
                        )
                    )
                cfg = largesys.LargeSystemConfig(1.0, b_bar, alpha, k_max=8)
                analytic.append(_analytic_record(
                    0, 0, alpha, b_bar, 8, "rate_difference",
                    largesys.rate_difference(8, cfg), "large-system", seed,
                ))
    elif fig == "fig5":
        for alpha in (0.5, 0.8, 0.9, 0.95, 1.0):
            for k in range(1, 11):
                specs.append(
                    ExperimentSpec(
                        SystemShape(4, 4), FadingModel(alpha), 1.0, k,
                        trials=trials, seed=seed, metric="rate_difference",
                    )
                )
                cfg = largesys.LargeSystemConfig(1.0, 0.25, alpha, k_max=10)
                analytic.append(_analytic_record(
                    0, 0, alpha, 0.25, k, "rate_difference",
                    largesys.rate_difference(k, cfg), "large-system", seed,
                ))
    elif fig == "fig6":
        for nr_bar in (0.0, 0.5, 1.0, 2.0):
            for b_bar in (0.25, 1.0):
                for alpha in (0.5, 0.7, 0.8, 0.9, 0.95, 0.99):
                    cfg = largesys.LargeSystemConfig(nr_bar, b_bar, alpha)
                    res = largesys.optimal_interval(cfg)
                    analytic.append(_analytic_record(
                        0, 0, alpha, b_bar, res.k_star, "optimal_k",
                        float(res.k_star), "large-system", seed,
                    ))
    elif fig == "fig7":
        for nt in (2, 3, 4, 5, 6):
            for bits in (1.0, 2.0):
                cfg = finite.AfpConfig(SystemShape(nt, 2), bits, FadingModel(0.8))
                res = finite.optimal_interval(cfg)
                analytic.append(_analytic_record(
                    nt, 2, 0.8, bits, res.k_star, "optimal_k",
                    float(res.k_star), "finite", seed,
                ))
    return analytic, specs, rho


def _cmd_reproduce_figure(opts: dict) -> list[SweepRecord]:
    analytic, specs, rho = _figure_specs(opts["id"], opts["trials"], opts["seed"])
    records = list(analytic)
    if specs:
        records.extend(simulate.sweep(specs, rho))
    return records


_COMMANDS = {
    "analytic": _cmd_analytic,
    "large-system": _cmd_large_system,
    "simulate": _cmd_simulate,
    "optimal-k": _cmd_optimal_k,
    "afp-range": _cmd_afp_range,
    "compare-codebooks": _cmd_compare_codebooks,
    "reproduce-figure": _cmd_reproduce_figure,
}


def run(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    opts = _merge_config(args)
    path = _output_path(opts, args.command)
    try:
        records = _COMMANDS[args.command](opts)
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
