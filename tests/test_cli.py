import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lacvar import GridFunction, read_function_csv, write_function_csv
from lacvar.cli import main


@pytest.fixture
def indicator_csv(tmp_path):
    f = GridFunction(0.0, 1.0 / 32.0, np.ones(32))
    path = str(tmp_path / "ind.csv")
    write_function_csv(f, path)
    return path


def test_variation_roundtrip(tmp_path, indicator_csv):
    out = str(tmp_path / "v.csv")
    rc = main([
        "variation", "--input", indicator_csv, "--seq", "geometric:1:2:6",
        "--allow-tail", "--out", out,
    ])
    assert rc == 0
    v = read_function_csv(out)
    # support plus one top-scale pad at the input resolution
    assert v.n == 33 * 32
    assert np.all(v.values >= 0.0)


def test_variation_tail_gate_exits_two(tmp_path, indicator_csv, capsys):
    rc = main([
        "variation", "--input", indicator_csv, "--seq", "geometric:1:2:6",
        "--out", str(tmp_path / "v.csv"),
    ])
    assert rc == 2
    assert "tail bound" in capsys.readouterr().err


def test_variation_cell_cap_exits_two(tmp_path, indicator_csv, capsys):
    rc = main([
        "variation", "--input", indicator_csv, "--seq", "geometric:1:2:6",
        "--allow-tail", "--max-cells", "10", "--out", str(tmp_path / "v.csv"),
    ])
    assert rc == 2
    assert "cells" in capsys.readouterr().err


def test_variation_explicit_scales_and_depth(tmp_path, indicator_csv):
    out = str(tmp_path / "v.csv")
    rc = main([
        "variation", "--input", indicator_csv, "--seq", "1,2,4,8", "--k", "2",
        "--allow-tail", "--eval-h", "0.125", "--out", out,
    ])
    assert rc == 0
    assert read_function_csv(out).n == 5 * 8


def test_fourier_bound_table(tmp_path):
    out = str(tmp_path / "fb.csv")
    rc = main(["fourier-bound", "--seq", "geometric:1:2:9", "--xi", "log:0.01:100:32", "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "xi,I,I1,I2,Q"
    assert len(lines) == 1 + 2 * 32 + 1
    xi = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.all(np.diff(xi) > 0.0)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 1], rows[:, 2] + rows[:, 3], rtol=0, atol=0)


def test_dr_check_json(tmp_path):
    out = str(tmp_path / "dr.json")
    rc = main([
        "dr-check", "--seq", "geometric:1:2:12", "--r", "2", "--j", "0",
        "--i-range", "1:6", "--out", out,
    ])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["schema"] == "lacvar-drcheck/1"
    assert doc["all_passed"] is True
    assert [row["i"] for row in doc["checks"]] == [1, 2, 3, 4, 5, 6]
    assert doc["y"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["variation", "--input", "{no_n_csv}", "--seq", "geometric:1:2:6", "--out", "-"],
        ["dr-check", "--seq", "geometric:1:2:24", "--r", "2", "--j", "5", "--i-range", "1:3", "--out", "-"],
        ["fourier-bound", "--seq", "geometric:1:2:9", "--xi", "bogus", "--out", "-"],
    ],
    ids=["csv-without-n", "dr-check-i-below-j", "bad-xi-literal"],
)
def test_unrunnable_commands_exit_two(tmp_path, capsys, argv):
    no_n_csv = tmp_path / "no_n.csv"
    no_n_csv.write_text("# x0=0 h=0.5\nx,value\n0,1\n0.5,2\n")
    rc = main([a.format(no_n_csv=no_n_csv) for a in argv])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_dr_check_missing_r_errors():
    with pytest.raises(SystemExit):
        main(["dr-check", "--seq", "geometric:1:2:12", "--j", "0", "--i-range", "1:6", "--out", "-"])


def test_verify_pass_and_exit_zero(tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["verify", "--scenario", "weak_11", "--out", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["passed"] is True and doc["kind"] == "weak_11"


def test_verify_failure_exits_one(tmp_path):
    rc = main(["verify", "--scenario", "fourier_bound", "--out", str(tmp_path / "rep.json")])
    assert rc == 1


def test_verify_error_exits_two(tmp_path, capsys):
    rc = main(["verify", "--scenario", "nosuch", "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"kind": "weak_11", "enforce_tail": "yes"}, "enforce_tail"),
        ({"kind": "weak_11", "thresholds": {"stability": None}}, "thresholds.stability"),
        ({"kind": "weak_11", "p": 2.0}, "reads no p"),
        ({"kind": "strong_pp", "family": {"cells": 0}}, "cells"),
    ],
    ids=["enforce-tail-not-bool", "threshold-null", "unread-p", "zero-cells"],
)
def test_verify_config_refused_before_the_run(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_verify_config_file_and_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "weak_11", "seed": 3}))
    out = str(tmp_path / "rep.json")
    csv_out = str(tmp_path / "cases.csv")
    rc = main(["verify", "--config", str(cfg), "--out", out, "--csv", csv_out])
    assert rc == 0
    assert json.load(open(out))["seed"] == 3
    assert open(csv_out).readline().strip() == "case_id,lhs,rhs,ratio"


def test_threads_flag_is_a_usage_error(tmp_path, indicator_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "--threads", "4", "variation", "--input", indicator_csv,
            "--seq", "geometric:1:2:6", "--out", str(tmp_path / "v.csv"),
        ])
    assert exc.value.code == 2
    assert "usage: lacvar" in capsys.readouterr().err


def test_verify_scenario_config_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "weak_11"}))
    rc = main(["verify", "--scenario", "strong_pp", "--config", str(cfg), "--out", "-"])
    assert rc == 2
    assert "disagrees" in capsys.readouterr().err


def test_verify_report_file_determinism(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify", "--scenario", "weak_11", "--out", a]) == 0
    assert main(["verify", "--scenario", "weak_11", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_seed_override(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify", "--scenario", "strong_pp", "--out", a]) == 0
    assert main(["verify", "--scenario", "strong_pp", "--seed", "5", "--out", b]) == 0
    da, db = json.load(open(a)), json.load(open(b))
    assert da["seed"] == 0 and db["seed"] == 5
    assert da["sup_ratio"] != db["sup_ratio"]


@pytest.mark.parametrize("seed", [0, 12])
def test_variation_output_matches_benchmark_reference(tmp_path, capsys, seed):
    # the benchmark's `lacvar variation` call on its input for one scenario
    # seed (12 is the held-out one): a 64-cell random step on [0, 1) over 13
    # dyadic scales at h = 0.004, 1,024,250 output rows, nearly all of them on
    # flat stretches past the support.  The input CSV is written the way
    # perfbench/workloads.py writes it.
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(ref.read_text(encoding="utf-8"))["seeds"][str(seed)]["cli_variation"]["report_sha256"]
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=64)
    h = 1.0 / values.size
    rows = [f"# x0={0.0:.17g} h={h:.17g} n={values.size}", "x,value"]
    rows += [f"{i * h:.17g},{v:.17g}" for i, v in enumerate(values)]
    path = tmp_path / "input.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main([
        "variation", "--input", str(path), "--seq", "geometric:1:2:13",
        "--allow-tail", "--eval-h", "0.004", "--out", "-",
    ])
    assert rc == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
