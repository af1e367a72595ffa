"""The benchmark's workloads and the checks that judge each run's output.

A workload is built once per process (its set-up) and then run pass after
pass.  Every call into lacvar goes through a module attribute
(`harness.run_scenario`, `cli.main`, ...), never through a name bound at
import time, so that the tracer in `tracer.py` sees each call when it
patches those attributes.

The benchmark's `--seed` picks one of `REFERENCE_SEEDS` recorded scenario
seeds (`seed % REFERENCE_SEEDS`); `reference.json` holds the expected case
table digest and check verdicts for every (kind, scenario seed), recorded by
`record_reference.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lacvar
from lacvar import cli, harness

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
WORK_DIR = HERE / "out"

REFERENCE_SEEDS = 32

SCENARIO_WORKLOADS = {
    "variation_sweep": ("strong_pp", "l2_multiplier", "vector_valued"),
    "interval_families": ("linf_bmo", "weighted_pp", "weighted_weak11"),
    "small_calls": (
        "h1_l1",
        "weak_11",
        "indicator_identity",
        "refine_domination",
        "dr_condition",
        "fourier_bound",
    ),
}
CLI_WORKLOAD = "cli_variation"

# The documented `lacvar variation` call: a 64-cell random step on [0, 1)
# evaluated over 13 dyadic scales (1 .. 4096) at h = 0.004, which gives
# 1,024,250 output cells -- the one single-huge-call shape.
CLI_CELLS = 64
CLI_SEQ = "geometric:1:2:13"
CLI_EVAL_H = "0.004"
CLI_ORACLE_POINTS = 48
CLI_ORACLE_RTOL = 1e-12


def scenario_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class KindOutput:
    """What one run of one scenario kind (or one CLI call) produced."""

    kind: str
    error: str | None = None
    report: bytes = b""
    case_csv: bytes = b""
    verdicts: dict = field(default_factory=dict)
    exit_code: int = 0


class ScenarioWorkload:
    """Runs a fixed list of scenario kinds through the public harness API."""

    def __init__(self, kinds: tuple[str, ...], seed: int):
        self.scenarios = [harness.from_config({"kind": k, "seed": seed}) for k in kinds]

    def run_pass(self) -> list[KindOutput]:
        outs = []
        for sc in self.scenarios:
            try:
                rep = harness.run_scenario(sc)
                outs.append(
                    KindOutput(
                        sc.kind,
                        report=harness.emit_report(rep, "json"),
                        case_csv=harness.emit_report(rep, "csv"),
                        verdicts={c.name: bool(c.passed) for c in rep.checks},
                        exit_code=0 if rep.passed else 1,
                    )
                )
            except Exception as exc:  # a raising run is a failed run, not a crash
                outs.append(KindOutput(sc.kind, error=f"{type(exc).__name__}: {exc}"))
        return outs

    def close(self) -> None:
        pass


def cli_input_csv(values: np.ndarray) -> str:
    """The CLI workload's input, written by the benchmark itself in the
    documented function CSV format so that it does not depend on lacvar's
    own writer."""
    h = 1.0 / values.size
    rows = [f"# x0={0.0:.17g} h={h:.17g} n={values.size}", "x,value"]
    rows += [f"{i * h:.17g},{v:.17g}" for i, v in enumerate(values)]
    return "\n".join(rows) + "\n"


class CliWorkload:
    """`lacvar variation` called in-process, output captured in memory.

    In-memory output keeps disk writeback out of the timing: with a file
    target, back-to-back runs slowed by 3-4x as dirty pages piled up.
    """

    def __init__(self, seed: int):
        WORK_DIR.mkdir(exist_ok=True)
        self.input_values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=CLI_CELLS)
        self.input_path = WORK_DIR / f"cli_input_{os.getpid()}.csv"
        self.input_path.write_text(cli_input_csv(self.input_values), encoding="utf-8")
        self.argv = [
            "variation",
            "--input", str(self.input_path),
            "--seq", CLI_SEQ,
            "--allow-tail",
            "--eval-h", CLI_EVAL_H,
            "--out", "-",
        ]

    def run_pass(self) -> list[KindOutput]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self.argv)
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            return [KindOutput(CLI_WORKLOAD, error=f"{type(exc).__name__}: {exc}")]
        return [KindOutput(CLI_WORKLOAD, report=buf.getvalue().encode(), exit_code=rc)]

    def close(self) -> None:
        self.input_path.unlink(missing_ok=True)


def make_workload(name: str, seed: int):
    if name == CLI_WORKLOAD:
        return CliWorkload(seed)
    return ScenarioWorkload(SCENARIO_WORKLOADS[name], seed)


def _geometric_scales(literal: str) -> np.ndarray:
    _, base, ratio, count = literal.split(":")
    return float(base) * float(ratio) ** np.arange(int(count))


def cli_oracle_error(input_values: np.ndarray, output: bytes, seed: int) -> str | None:
    """Recompute V_s at sampled output cells by the independent route.

    `oracle_averages_at` sums cell overlaps directly and never touches the
    antiderivative the fast path reads; the two must agree to
    CLI_ORACLE_RTOL relative at every sampled midpoint.  Nothing here calls
    a traced function, so checking never shows up in the per-layer times.
    """
    f = lacvar.GridFunction(0.0, 1.0 / input_values.size, input_values)
    lines = output.decode().splitlines()
    meta = dict(tok.split("=", 1) for tok in lines[0][1:].split())
    x0, h, n = float(meta["x0"]), float(meta["h"]), int(meta["n"])
    if lines[1] != "x,value" or len(lines) != n + 2:
        return f"output has {len(lines) - 2} rows, metadata says {n}"
    rng = np.random.default_rng(10_000 + seed)
    idx = np.sort(rng.choice(n, size=CLI_ORACLE_POINTS, replace=False))
    got = np.array([float(lines[2 + i].split(",")[1]) for i in idx])
    x = x0 + h * (idx + 0.5)
    levels = np.array([lacvar.oracle_averages_at(f, nk, x) for nk in _geometric_scales(CLI_SEQ)])
    want = np.sqrt(np.sum(np.diff(levels, axis=0) ** 2, axis=0))
    bad = np.abs(got - want) > CLI_ORACLE_RTOL * np.maximum(np.abs(want), np.finfo(float).tiny)
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"V_s at x={float(x[i])!r}: output {float(got[i])!r}, oracle {float(want[i])!r}"
    return None


class Checker:
    """Counts attempted and failed runs.

    A run fails if it raised, produced report bytes that differ from an
    earlier run of the same kind (at either thread cap), or disagrees with
    the recorded reference.  A scenario run must match the reference's case
    table digest and the verdict of every reference check; a check that the
    reference does not know is ignored, so adding checks is not a failure
    (which is also why a scenario's overall pass/fail, the `verify` exit
    code, is not compared).  A CLI run must match the reference's exit code
    and output digest, and its output must agree with the overlap oracle.
    """

    def __init__(self, seed: int, reference: dict, input_values: np.ndarray | None = None):
        self.seed = seed
        self.input_values = input_values
        self.ref = reference["seeds"].get(str(seed), {})
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.oracle_checked = False
        self.oracle_problem: str | None = None

    def _fail(self, kind: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {why}")

    def check(self, outs: list[KindOutput]) -> None:
        for out in outs:
            self.attempted += 1
            why = self._problem(out)
            if why:
                self._fail(out.kind, why)

    def _problem(self, out: KindOutput) -> str | None:
        if out.error:
            return out.error
        ref = self.ref.get(out.kind)
        if ref is None:
            return f"no reference for seed {self.seed}"
        digest = sha256(out.report)
        first = self.first_digest.setdefault(out.kind, digest)
        if digest != first:
            return "report bytes differ from an earlier run of the same seed"
        if out.kind == CLI_WORKLOAD:
            if out.exit_code != ref["exit_code"]:
                return f"exit code {out.exit_code}, expected {ref['exit_code']}"
            if digest != ref["report_sha256"]:
                return "output digest differs from the reference"
            if not self.oracle_checked:
                self.oracle_checked = True
                self.oracle_problem = cli_oracle_error(self.input_values, out.report, self.seed)
            return self.oracle_problem
        if sha256(out.case_csv) != ref["case_csv_sha256"]:
            return "case table digest differs from the reference"
        for name, verdict in ref["verdicts"].items():
            if out.verdicts.get(name) is not verdict:
                return f"check {name}: {out.verdicts.get(name)}, reference {verdict}"
        return None

    def report_digests(self) -> dict:
        """Report sha256 per kind, and whether it equals the recorded bytes
        (informational: a schema change may move it without a failure)."""
        return {
            kind: {
                "sha256": digest,
                "same_as_reference": digest == self.ref.get(kind, {}).get("report_sha256"),
            }
            for kind, digest in self.first_digest.items()
        }
