import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from afpopt import cli, finite, simulate
from afpopt.channel import FadingModel, SystemShape
from afpopt.cli import CSV_HEADER, FIGURE_IDS, run


def invoke(args, capfd):
    code = run(args)
    out, err = capfd.readouterr()
    return code, out, err


class TestParsing:
    def test_alpha_out_of_range_message(self, capfd):
        with pytest.raises(SystemExit) as e:
            run(["optimal-k", "--alpha", "1.5"])
        assert e.value.code == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "alpha" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["optimal-k", "--bits"], "--bits"),
            (["simulate", "--k-max", "2", "--bits"], "--bits"),
            (["large-system", "--nr-bar"], "--nr-bar"),
            (["large-system", "--b-bar"], "--b-bar"),
            (["simulate", "--metric", "avg_rate", "--rho-db"], "--rho-db"),
        ],
    )
    def test_non_finite_values_exit_2(self, argv, flag, value, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run([*argv[:-1], f"{argv[-1]}={value}"])  # "=" keeps "-inf" a value
        assert e.value.code == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert flag in err and "finite" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("metric", ["avg_rate", "rate_difference"])
    @pytest.mark.parametrize("db", ["4000", "-4000", "1e308", "-1e308"])
    def test_rho_db_beyond_double_range_runs(self, db, metric, tmp_path, capfd, monkeypatch):
        # 10 ** 400 overflows and 10 ** -400 underflows to 0, but the rates
        # are computed from ln rho, so any finite dB value gives finite rates,
        # from a flag or from a config file, with no warning; past 7.8e307,
        # rho_db ln 10 itself overflows, so ln rho is formed dividing first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"rho_db": float(db)}))
        for snr in ([f"--rho-db={db}"], ["--config", "cfg.json"]):
            code, _, _ = invoke(
                ["simulate", "--metric", metric, "--k-max", "2", "--trials", "4", *snr], capfd
            )
            assert code == 0
            rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
            assert len(rows) == 2
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[6:8])

    def test_extreme_but_finite_rho_db_runs(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(
            ["simulate", "--metric", "avg_rate", "--k-max", "1", "--trials", "4", "--rho-db=-400"],
            capfd,
        )
        assert code == 0
        row = (tmp_path / "simulate.csv").read_text().splitlines()[1].split(",")
        assert 0.0 < float(row[6]) < 1e-38

    def test_large_finite_budgets_saturate(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(["optimal-k", "--bits", "1e308", "--k-max", "3"], capfd)
        assert code == 0 and out.strip() == "K*=1"
        # B * K overflows to inf in the second cell, which saturates too: the
        # K = 1 cell draws the top eigenvalue, whose mean is its analytic value
        code, _, _ = invoke(["simulate", "--bits", "1e308", "--k-max", "2", "--trials", "2"], capfd)
        assert code == 0
        k1, k2 = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        top = finite.mean_largest_eigenvalue(SystemShape(2, 2))
        assert k1.split(",")[8] == f"{top:.12g}"
        saturated = finite.avg_power(finite.AfpConfig(SystemShape(2, 2), 1e308, FadingModel(0.8)), 2)
        assert k2.split(",")[8] == f"{saturated:.12g}"
        assert all(row.split(",")[6] != "" for row in (k1, k2))

    def test_unknown_flag_rejected(self, capfd):
        with pytest.raises(SystemExit) as e:
            run(["optimal-k", "--nonsense", "1"])
        assert e.value.code == 2

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for cmd in (
            "analytic",
            "large-system",
            "simulate",
            "optimal-k",
            "afp-range",
            "compare-codebooks",
            "reproduce-figure",
        ):
            assert cmd in out

    @pytest.mark.parametrize("argv", [
        ["optimal-k", "--k-max", "4"],
        ["simulate", "--k-max", "1", "--trials", "2"],
        ["reproduce-figure", "--id", "fig6"],
        ["optimal-k", "--config", "cfg.json", "--k-max=4"],
    ])
    def test_a_plain_line_builds_no_parser(self, argv, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"nt": 3, "alpha": 0.9}))
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert invoke(argv, capfd)[0] == 0
        assert built == []


# text values that each flag's checks accept, boundary values included,
# keyed by the flag's type; a flag with choices takes each choice
_VALID = {
    cli._alpha: ["0", "1", "0.8", "0.9999", "1.0", "0e0", ".5"],
    cli._nonneg: ["0", "0.0", "2.5", "1e-300", "1e308"],
    cli._positive: ["1e-300", "0.25", "1", "3", "1e308"],
    cli._positive_int: ["1", "2", "16", "+3", "007", " 4"],
    cli._finite: ["-4000", "-.5", "-0.5", "0", "10", "1e3", "-7"],
    int: ["-1", "0", "7", "-123456789012345678901", "+2"],
    None: ["t.csv", "a=b.json", "", "dir/x y.json", "_"],
}


def _values(name):
    kwargs = cli._OPTIONS[name][2]
    return kwargs.get("choices") or _VALID[kwargs.get("type")]


def _plain_line(rng, command):
    # a random plain line: exact flags of the command, both value forms,
    # flags repeated at will, a required flag given at least once
    names = [name for name, option in cli._OPTIONS.items() if command in option[0]]
    chosen = rng.choices(names, k=rng.randint(0, 8))
    chosen += [name for name in names if cli._OPTIONS[name][2].get("required")]
    rng.shuffle(chosen)
    tokens = []
    for name in chosen:
        flag, value = f"--{name.replace('_', '-')}", rng.choice(_values(name))
        tokens += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return chosen, tokens


class TestPlainLineReader:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_namespaces_match_the_full_parsers(self, command):
        rng = random.Random(2021)
        parser = cli.build_parser()
        seen = set()
        for _ in range(500):
            chosen, tokens = _plain_line(rng, command)
            seen.update(chosen)
            args = cli._read_plain([command, *tokens])
            assert args is not None, tokens
            assert vars(args) == vars(parser.parse_args([command, *tokens])), tokens
        assert seen == {name for name, option in cli._OPTIONS.items() if command in option[0]}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trial", "5"],
        ["simulate", "-h"],
        ["simulate", "--help"],
        ["simulate", "--seed", "-1e5"],
        ["simulate", "--seed=-1e5"],
        ["simulate", "--metric", "power"],
        ["simulate", "--k", "3"],
        ["simulate", "--nonsense", "1"],
        ["simulate", "--k-max", "1", "stray"],
        ["simulate", "--k-max"],
        ["simulate", "--output", "--"],
        ["simulate", "--output=--"],
        ["simulate", "--", "--k-max", "1"],
        ["simulate", "--output", "-x"],
        ["simulate", "--nt", "0"],
        ["simulate", "--id", "fig1"],
        ["reproduce-figure"],
        ["reproduce-figure", "--trials", "2"],
        ["--seed=1", "reproduce-figure", "--id", "fig1"],
        ["frobnicate", "--nt", "2"],
        [],
    ])
    def test_other_lines_are_declined(self, argv):
        assert cli._read_plain(argv) is None


class TestHeadlines:
    def test_optimal_k_prints_interval(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(
            ["optimal-k", "--nt", "2", "--nr", "3", "--bits", "1", "--alpha", "0.8"], capfd
        )
        assert code == 0
        assert out.strip() == "K*=3"

    def test_optimal_k_horizon_limited_flag(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(
            ["optimal-k", "--nt", "2", "--nr", "2", "--bits", "1", "--alpha", "1.0",
             "--k-max", "8"],
            capfd,
        )
        assert code == 0
        assert out.strip() == "K*=8 (horizon-limited)"

    def test_large_system_prints_interval(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(
            ["large-system", "--nr-bar", "0", "--b-bar", "1", "--alpha", "0.9"], capfd
        )
        assert code == 0
        assert out.strip() == "K*=3"

    def test_large_system_writes_the_search_curve(self, tmp_path, capfd, monkeypatch):
        # the table is the curve the search scanned: one rate_difference call per K
        from afpopt import largesys

        calls = []
        real = largesys.rate_difference
        monkeypatch.setattr(largesys, "rate_difference", lambda k, cfg: calls.append(k) or real(k, cfg))
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(
            ["large-system", "--nr-bar", "1", "--b-bar", "0.5", "--alpha", "0.9", "--output", "t.csv"],
            capfd,
        )
        assert code == 0 and out.strip() == "K*=4"
        assert calls == list(range(1, 65))
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 65

    def test_afp_range_prints_window(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(
            ["afp-range", "--nt", "2", "--nr", "2", "--bits", "1", "--alpha", "0.8"], capfd
        )
        assert code == 0
        assert out.strip() == "K in [2,8]"


class TestQuadraturePasses:
    # nt x 2 quadrature passes of one cold command; the searches fetch their
    # budgets in lockstep windows, one pass per shape and window
    @pytest.mark.parametrize("args,most", [
        ("reproduce-figure --id fig7", 8),
        ("optimal-k --nt 5 --nr 2 --bits 1 --alpha 0.95", 2),
        ("optimal-k --nt 3 --nr 2 --bits 1e-9 --alpha 0.999", 3),  # the curve runs to K = 64
        ("afp-range --nt 4 --nr 2 --bits 1 --alpha 0.9", 2),
        ("analytic --nt 3 --nr 2 --bits 0.05 --k-max 5000", 1),  # more budgets than the cache holds
    ])
    def test_command_takes_few_passes(self, args, most, ntx2_passes, tmp_path, capfd):
        code, _, _ = invoke(args.split() + ["--output", str(tmp_path / "t.csv")], capfd)
        assert code == 0
        assert 0 < len(ntx2_passes) <= most

    def test_flagged_budgets_warn_once(self, ntx2_passes, tmp_path, capfd, monkeypatch):
        # with these settings every budget of the table reaches the cap, so
        # none is cached: the table reads its one pass, each budget warning once
        monkeypatch.setattr(finite, "_NTX2_TOLERANCE", (1e-11, 1e-11))
        monkeypatch.setattr(finite, "_MAX_SUBDIVISIONS", 4)
        args = "analytic --nt 4 --nr 2 --bits 8 --k-max 3".split() + ["--output", str(tmp_path / "t.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = invoke(args, capfd)
        assert code == 0
        assert [len(sizes) for _, sizes in ntx2_passes] == [3]
        assert [str(w.message).split(":")[0] for w in caught] == [
            f"rvq_power_ntx2(4, {bits})" for bits in (8.0, 16.0, 24.0)
        ]


class TestTables:
    def test_csv_schema_and_digits(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(
            ["analytic", "--nt", "2", "--nr", "2", "--bits", "1", "--alpha", "0.8",
             "--k-max", "4"],
            capfd,
        )
        assert code == 0
        text = (tmp_path / "analytic.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert text.endswith("\n")
        assert lines[3].split(",")[6] == "2.79706666667"  # 12 significant digits

    def test_json_round_trip(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(
            ["analytic", "--nt", "2", "--nr", "2", "--format", "json", "--k-max", "3"], capfd
        )
        assert code == 0
        rows = json.loads((tmp_path / "analytic.json").read_text())
        assert [r["K"] for r in rows] == [1, 2, 3]
        assert set(rows[0]) == set(CSV_HEADER.split(","))
        assert rows[0]["value"] == 2.5

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["afp-range", "--alpha", "1"], "inf"),
            (["large-system", "--nr-bar", "0", "--alpha", "0"], "-inf"),
        ],
    )
    def test_json_is_strict(self, argv, value, tmp_path, capfd, monkeypatch):
        # RFC 8259 has no Infinity: a non-finite float is the CSV text, quoted
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke([*argv, "--format", "json", "--output", "t.json"], capfd)
        assert code == 0

        def reject(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        rows = json.loads((tmp_path / "t.json").read_text(), parse_constant=reject)
        non_finite = [r for r in rows if isinstance(r["value"], str)]
        assert non_finite and all(r["value"] == r["analytic"] == value for r in non_finite)
        assert all(r["stderr"] is None for r in rows)
        if argv[0] == "large-system":
            assert rows[0]["value"] == -1.0 and len(non_finite) == 63

    def test_reruns_are_byte_identical(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["simulate", "--nt", "2", "--nr", "2", "--bits", "1", "--alpha", "0.8",
                "--k-max", "3", "--trials", "100", "--seed", "42", "--output", "a.csv"]
        assert invoke(args, capfd)[0] == 0
        args[-1] = "b.csv"
        assert invoke(args, capfd)[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_output_dir_env_var(self, tmp_path, capfd, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv("AFPOPT_OUTPUT_DIR", str(outdir))
        code, _, _ = invoke(["analytic", "--k-max", "2"], capfd)
        assert code == 0
        assert (outdir / "analytic.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_trial_stderr_is_nan(self, fmt, tmp_path, capfd, monkeypatch):
        # a single trial has no sample variance: the error is unknown, not 0
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(["simulate", "--k-max", "1", "--trials", "1", "--format", fmt], capfd)
        assert code == 0
        text = (tmp_path / f"simulate.{fmt}").read_text()
        if fmt == "csv":
            assert text.splitlines()[1].split(",")[7] == "nan"
        else:
            assert json.loads(text)[0]["stderr"] == "nan"

    def test_unwritable_output_fails_with_code_1(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(
            ["analytic", "--k-max", "2", "--output", str(tmp_path / "no" / "dir.csv")], capfd
        )
        assert code == 1
        assert "cannot write" in err


class TestCellFailures:
    def test_over_cap_cell_keeps_its_row(self, tmp_path, capfd, monkeypatch):
        # round(5.5 * 2) = 11 bits is over the 10-bit maximin cap
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(
            ["simulate", "--nt", "2", "--nr", "2", "--codebook", "maximin", "--bits", "5.5",
             "--k-min", "1", "--k-max", "2", "--trials", "2"],
            capfd,
        )
        assert code == 1
        rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        k1, k2 = (row.split(",") for row in rows)
        assert k1[4] == "1" and k1[6] != ""
        assert k2[4] == "2" and k2[6] == "" and k2[7] == ""
        assert "K=2 failed" in err and "maximin cap" in err


    def test_wide_ntx2_draws_raise_no_warning(self, tmp_path, capfd, monkeypatch):
        # from about nt = 150 the RVQ draw's product of eigenvalue gaps
        # overflows; those rows go to the tail inversion without a warning,
        # which an "error" filter would turn into a failed cell
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = invoke(
                ["simulate", "--nt", "160", "--nr", "2", "--bits", "1", "--k-min", "1",
                 "--k-max", "1", "--alpha", "1", "--trials", "2000", "--seed", "0"],
                capfd,
            )
        assert code == 0, err
        (row,) = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert row.split(",")[6:8] == ["2.77434740568", "0.0345748386568"]


class TestLargeRank2Shapes:
    # a larger dimension of 200 or more runs through the rank-2 closed forms
    def test_simulate_2xnr_attaches_the_closed_form(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(
            ["simulate", "--nt", "2", "--nr", "250", "--bits", "1", "--k-max", "2",
             "--trials", "50"],
            capfd,
        )
        assert code == 0, err
        rows = [row.split(",") for row in (tmp_path / "simulate.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            assert row[6] != "" and row[8] != ""
            assert abs(float(row[6]) - float(row[8])) < 4 * float(row[7])

    def test_optimal_k_ntx2(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(["optimal-k", "--nt", "250", "--nr", "2", "--bits", "1"], capfd)
        assert code == 0, err
        assert out.strip() == "K*=11"
        (row,) = (tmp_path / "optimal_k.csv").read_text().splitlines()[1:]
        assert row.split(",")[6] == row.split(",")[8] == "11"


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 2, "nr": 4, "bits": 1.0, "alpha": 0.8}))
        code, out, _ = invoke(["optimal-k", "--config", str(cfg)], capfd)
        assert code == 0
        assert out.strip() == "K*=3"
        code, out, _ = invoke(
            ["optimal-k", "--config", str(cfg), "--alpha", "0.0", "--bits", "4"], capfd
        )
        assert code == 0
        assert out.strip() == "K*=1"

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"trials": "abc"}, "--trials"),
            ({"alpah": 0.99}, "alpah"),
            ({"bits": float("nan")}, "--bits"),
            ({"rho_db": float("inf")}, "--rho-db"),
            ({"rho_db": float("nan")}, "--rho-db"),
            ({"rho_db": float("-inf")}, "--rho-db"),
        ],
    )
    def test_config_values_validated_like_flags(self, config, named, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as e:
            run(["simulate", "--config", str(cfg), "--k-max", "1"])
        assert e.value.code == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert named in err
        assert not (tmp_path / "simulate.csv").exists()

    def test_null_config_value_means_not_given(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 2, "nr": 4, "bits": 1.0, "alpha": None, "output": None}))
        code, out, _ = invoke(["optimal-k", "--config", str(cfg)], capfd)
        assert code == 0
        assert out.strip() == "K*=3"  # the default alpha, 0.8
        assert (tmp_path / "optimal_k.csv").exists()
        assert not (tmp_path / "None").exists()

    def test_bad_config_exits_2(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as e:
            run(["optimal-k", "--config", str(bad)])
        assert e.value.code == 2


class TestRepeatedRuns:
    def test_config_values_do_not_outlive_their_call(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"trials": 7}))
        trials = []
        sweep = simulate.sweep

        def counted(specs, rho):
            trials.extend(spec.trials for spec in specs)
            return sweep(specs, rho)

        monkeypatch.setattr(simulate, "sweep", counted)
        assert invoke(["simulate", "--k-max", "1", "--config", "cfg.json"], capfd)[0] == 0
        assert invoke(["simulate", "--k-max", "1"], capfd)[0] == 0
        assert trials == [7, 3000]

    def test_alternating_commands_do_not_depend_on_order(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = [
            ["simulate", "--k-max", "3", "--trials", "50", "--seed", "4"],
            ["optimal-k", "--nt", "3", "--alpha", "0.9"],
            ["simulate", "--nt", "3", "--k-max", "2", "--trials", "40", "--metric", "avg_rate"],
        ]

        def outputs(argv, path):
            code, out, _ = invoke([*argv, "--output", path], capfd)
            assert code == 0
            return (tmp_path / path).read_text(), out

        forward = [outputs(argv, f"forward{i}.csv") for i, argv in enumerate(calls)]
        backward = [outputs(argv, f"backward{i}.csv") for i, argv in reversed(list(enumerate(calls)))]
        assert forward == backward[::-1]


    def test_ntx2_tables_do_not_depend_on_history(self, tmp_path, capfd, monkeypatch):
        # the same table from a fresh process, after fig7 filled the Nt x 2
        # cache in this one, and after the cache was cleared
        monkeypatch.chdir(tmp_path)
        argv = ["afp-range", "--nt", "4", "--nr", "2", "--bits", "1", "--alpha", "0.9"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from afpopt.cli import run; sys.exit(run(sys.argv[1:]))",
             *argv, "--output", "fresh.csv"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert invoke(["reproduce-figure", "--id", "fig7", "--output", "fig7.csv"], capfd)[0] == 0
        after_fig7 = invoke([*argv, "--output", "after_fig7.csv"], capfd)
        finite._ntx2_cache.clear()
        cleared = invoke([*argv, "--output", "cleared.csv"], capfd)
        assert after_fig7[:2] == cleared[:2] == (0, fresh.stdout)
        tables = [(tmp_path / f"{name}.csv").read_bytes() for name in ("fresh", "after_fig7", "cleared")]
        assert tables[0] == tables[1] == tables[2]


class TestFigurePresets:
    def test_fig1_cardinality(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(
            ["reproduce-figure", "--id", "fig1", "--trials", "25", "--seed", "7"], capfd
        )
        assert code == 0
        lines = (tmp_path / "reproduce_figure.csv").read_text().splitlines()
        assert len(lines) == 61  # header + 60 grid cells

    def test_fig3_contains_both_sources(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(["reproduce-figure", "--id", "fig3", "--format", "json"], capfd)
        assert code == 0
        rows = json.loads((tmp_path / "reproduce_figure.json").read_text())
        assert {r["source"] for r in rows} == {"finite", "large-system"}
        assert len(rows) == 20

    def test_every_preset_id_is_wired(self):
        from afpopt.cli import _PRESETS

        for fig in FIGURE_IDS:
            analytic, specs = _PRESETS[fig]
            assert analytic or specs


class TestCompareCodebooks:
    def test_prints_both_optima_and_saves_codebook(self, tmp_path, capfd, monkeypatch, maximin_builds):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(
            ["compare-codebooks", "--nt", "2", "--nr", "2", "--bits", "1", "--alpha", "0.9",
             "--k-max", "3", "--trials", "150", "--candidates", "60",
             "--save-codebook", "cb.json"],
            capfd,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rvq K*=")
        assert lines[1].startswith("maximin K*=")
        from afpopt.codebook import load_codebook

        cb = load_codebook(tmp_path / "cb.json")
        assert cb.kind == "maximin"
        assert cb.bits == 3
        # the saved codebook is the sweep's own: one build serves both
        assert maximin_builds == [[1, 2, 3]]

    def test_unwritable_codebook_path_keeps_its_wording(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "missing" / "cb.json"
        code, _, err = invoke(
            ["compare-codebooks", "--nt", "2", "--nr", "2", "--bits", "1", "--k-max", "2",
             "--trials", "20", "--candidates", "5", "--save-codebook", str(target)],
            capfd,
        )
        assert code == 1
        assert (tmp_path / "compare_codebooks.csv").exists()
        assert f"afpopt compare-codebooks: codebook not saved: cannot write {target}: " in err

    def test_candidates_reach_the_simulated_codebook(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ["compare-codebooks", "--nt", "2", "--nr", "2", "--bits", "1", "--alpha", "0.9",
                "--k-max", "2", "--trials", "50", "--seed", "3"]
        tables = {}
        for candidates in ("1", "300"):
            code, _, _ = invoke(
                base + ["--candidates", candidates, "--output", f"t{candidates}.csv",
                        "--save-codebook", f"cb{candidates}.json"],
                capfd,
            )
            assert code == 0
            tables[candidates] = (tmp_path / f"t{candidates}.csv").read_text().splitlines()
        rvq = [i for i, row in enumerate(tables["1"]) if row.endswith(",simulation,3")]
        maximin = [i for i, row in enumerate(tables["1"]) if "simulation-maximin" in row]
        assert len(rvq) == len(maximin) == 2
        assert all(tables["1"][i] == tables["300"][i] for i in rvq)
        assert all(tables["1"][i] != tables["300"][i] for i in maximin)

        from afpopt.codebook import load_codebook, maximin_codebook
        from afpopt.channel import RandomStream
        from afpopt.simulate import CODEBOOK_STREAM

        # the saved codebook is the one drawn with the requested candidate count
        saved = load_codebook(tmp_path / "cb300.json")
        built = maximin_codebook(2, 2, 300, RandomStream(3, CODEBOOK_STREAM))
        assert np.array_equal(saved.entries, built.entries)

    def test_save_over_maximin_cap_keeps_the_table(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(
            ["compare-codebooks", "--nt", "2", "--nr", "2", "--bits", "4", "--k-max", "3",
             "--trials", "2", "--candidates", "2", "--save-codebook", "cb.json"],
            capfd,
        )
        assert code == 1
        rows = (tmp_path / "compare_codebooks.csv").read_text().splitlines()[1:]
        assert len(rows) == 6
        assert not (tmp_path / "cb.json").exists()
        saves = [line for line in err.splitlines() if "codebook not saved" in line]
        assert saves == [
            "afpopt compare-codebooks: codebook not saved: ValueError: bits=12 exceeds the maximin cap (10)"
        ]
        # only the 12-bit maximin cell failed: its K* is the argmax of K = 1, 2
        maximin = [float(row.split(",")[6]) for row in rows[3:5]]
        assert out.splitlines()[1] == f"maximin K*={1 + maximin.index(max(maximin))}"

    def test_every_maximin_cell_over_the_cap(self, tmp_path, capfd, monkeypatch, maximin_builds):
        # no maximin K* line and no codebook built or saved; RVQ keeps its rows
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(
            ["compare-codebooks", "--nt", "2", "--nr", "2", "--bits", "11", "--k-max", "2",
             "--trials", "20", "--candidates", "2", "--save-codebook", "cb.json"],
            capfd,
        )
        assert code == 1
        rows = (tmp_path / "compare_codebooks.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] != "" for row in rows] == [True, True, False, False]
        rvq = [float(row.split(",")[6]) for row in rows[:2]]
        assert out == f"rvq K*={1 + rvq.index(max(rvq))}\n"
        assert maximin_builds == [[]]  # the group's one call has no budget to build
        assert "codebook not saved: ValueError: bits=22 exceeds the maximin cap (10)" in err
        assert not (tmp_path / "cb.json").exists()


_SCIPY_FREE_SCRIPT = """
import sys
from afpopt import cli
for i, argv in enumerate(sys.argv[2:]):
    out = f"{sys.argv[1]}/{i:02d}.csv"
    assert cli.run(argv.split() + ["--seed", "3", "--output", out]) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
from afpopt.channel import alpha_from_jakes
assert abs(alpha_from_jakes(1.0, 0.5) + 0.3042421776440938) < 1e-12
print("ok")
"""


def test_compare_codebooks_peak_memory_stays_small(tmp_path, capfd):
    # the benchmark's compare-codebooks line: the maximin search and the
    # fixed-codebook scoring work in blocks of codebook.WORK_DOUBLES
    argv = "compare-codebooks --nt 2 --nr 3 --bits 1 --alpha 0.95 --k-max 6 --trials 500".split()
    tracemalloc.start()
    try:
        code = run([*argv, "--output", str(tmp_path / "table.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capfd.readouterr()
    assert code == 0
    assert peak <= 3 << 19


def test_commands_never_import_scipy(tmp_path):
    # the analytic commands (Nt x 2 quadrature, large-system root), Monte
    # Carlo on 2x3 and 3x3, the 3x3 normaliser and compare-codebooks run on
    # numpy alone;
    # alpha_from_jakes still imports scipy.special on demand
    invocations = [
        "reproduce-figure --id fig7",
        "optimal-k --nt 5 --nr 2 --bits 1 --alpha 0.95",
        "afp-range --nt 4 --nr 2 --bits 1 --alpha 0.9",
        "analytic --nt 5 --nr 2 --bits 1 --alpha 0.8 --k-max 10",
        "optimal-k --nt 2 --nr 3 --bits 1 --alpha 0.8",
        "afp-range --nt 2 --nr 2 --bits 1 --alpha 0.8",
        "large-system --nr-bar 0 --b-bar 1 --alpha 0.9",
        "large-system --nr-bar 1 --b-bar 0.25 --alpha 0.95",
        "reproduce-figure --id fig3",
        "reproduce-figure --id fig6",
        "simulate --nt 2 --nr 3 --bits 1 --alpha 0.9 --k-max 3 --trials 200",
        "simulate --nt 3 --nr 3 --bits 1 --alpha 0.9 --k-max 3 --trials 200",
        # the exact normaliser of a shape without a rank-2 closed form
        "simulate --nt 3 --nr 3 --bits 1 --alpha 0.9 --k-max 2 --metric normalized_power --trials 200",
        "compare-codebooks --nt 2 --nr 3 --bits 1 --alpha 0.95 --k-max 3 --trials 200",
        "compare-codebooks --nt 3 --nr 3 --bits 1 --alpha 0.95 --k-max 2 --trials 200",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(tmp_path), *invocations],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().endswith("ok")
