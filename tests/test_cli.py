import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_large_finite_budgets_saturate(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(["optimal-k", "--bits", "1e308", "--k-max", "3"], capfd)
        assert code == 0 and out.strip() == "K*=1"
        # B * K overflows to inf in the second cell: a failed row, not a traceback
        code, _, err = invoke(["simulate", "--bits", "1e308", "--k-max", "2", "--trials", "2"], capfd)
        assert code == 1
        assert "K=2 failed" in err and "streaming cap" in err

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

    def test_unwritable_output_fails_with_code_1(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(
            ["analytic", "--k-max", "2", "--output", str(tmp_path / "no" / "dir.csv")], capfd
        )
        assert code == 1
        assert "cannot write" in err


class TestCellFailures:
    def test_over_cap_cell_keeps_its_row(self, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(
            ["simulate", "--nt", "2", "--nr", "2", "--bits", "16", "--k-min", "1",
             "--k-max", "2", "--trials", "2"],
            capfd,
        )
        assert code == 1
        rows = (tmp_path / "simulate.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        k1, k2 = (row.split(",") for row in rows)
        assert k1[4] == "1" and k1[6] != ""
        assert k2[4] == "2" and k2[6] == "" and k2[7] == ""
        assert "K=2 failed" in err and "streaming cap" in err


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
    def test_prints_both_optima_and_saves_codebook(self, tmp_path, capfd, monkeypatch):
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
        assert len(saves) == 1 and "maximin cap" in saves[0]


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
