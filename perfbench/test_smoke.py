"""Smoke test: every workload once at its shortest length, plain and traced.

    python3 -m pytest perfbench/test_smoke.py

It takes about a minute and sits outside the tier-1 suite (tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

END_TO_END = ["wall_s", "serial_wall_s", "setup_s", "peak_rss_mb"]
KINDS = [
    "strong_pp", "weak_11", "h1_l1", "linf_bmo", "l2_multiplier", "weighted_pp",
    "weighted_weak11", "vector_valued", "refine_domination", "dr_condition",
    "fourier_bound", "indicator_identity",
]
PER_LAYER = [
    "avgops.variation_at.calls", "avgops.variation_at.self_s", "avgops.level_points",
    "avgops.ns_per_level_point", "avgops.scale_stack_at.self_s", "avgops.vector_variation.self_s",
    "gridfn.bmo_norm.self_s", "gridfn.bmo_norm.intervals", "gridfn.us_per_bmo_interval",
    "gridfn.antiderivative_edges.calls", "gridfn.antiderivative_edges.self_s",
    "gridfn.make_dyadic_family.self_s", "gridfn.make_family.self_s", "gridfn.lp_norm.self_s",
    "gridfn.write_function_csv.self_s", "gridfn.write_function_csv.rows",
    "gridfn.read_function_csv.self_s",
    "weights.ap_constant.self_s", "weights.a1_constant.self_s", "weights.intervals",
    "fourier.multiplier_sums.self_s", "fourier.xi_scale_evals", "fourier.ns_per_xi_scale_eval",
    "kernel.drlem_check.self_s", "kernel.shell_integrals.self_s",
    "kernel.indicator_identity.calls", "kernel.indicator_identity.self_s",
    "lacunary.refine.calls", "lacunary.refine.self_s", "lacunary.parse_sequence.self_s",
    "harness.run_scenario.self_s", "harness.weak_sup.self_s", "harness.emit_report.self_s",
    "harness.cases", *(f"harness.kind_s.{k}" for k in KINDS),
    "cli.main.self_s", "trace.overhead_s", "trace.self_share",
]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    units = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert sorted(result["metrics"]) == sorted(names) == sorted(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    assert any(line.startswith("failed_frac: 0.0 ratio") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
