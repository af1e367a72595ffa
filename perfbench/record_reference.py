"""Record the benchmark's correctness reference, perfbench/reference.json.

    python3 perfbench/record_reference.py

For every one of the REFERENCE_SEEDS scenario seeds (see workloads.py) and
every scenario kind it records the case-table sha256 (`emit_report(rep,
"csv")`), the report sha256 (`emit_report(rep, "json")`), each check's
verdict, and, for information, the exit code the `verify` command would
give.  For the CLI
workload it records the output sha256 after checking the output against
the independent overlap oracle.  Every kind runs at LACVAR_THREADS=1 and at
the affinity core count, and nothing is recorded unless the report bytes of
the two agree.

The reference is the program's behaviour at the commit it was recorded on,
verdicts included: a check that fails at some seed is recorded as failing.
Re-record only on purpose, for a change that is meant to move the case
tables, and say so with the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lacvar.harness import SCENARIO_KINDS  # noqa: E402

import workloads  # noqa: E402

DEFAULT_SEED = 0
# Chosen by a fixed rule, without looking at any verdict.
HELD_OUT_RULE = "sha256('lacvar held-out seed') mod seeds"


def held_out_seed(seeds: int) -> int:
    return int(hashlib.sha256(b"lacvar held-out seed").hexdigest(), 16) % seeds


def _record_seed(seed: int, cores: int) -> dict:
    runs = {}
    for cap in sorted({1, cores}):
        os.environ["LACVAR_THREADS"] = str(cap)
        runs[cap] = workloads.ScenarioWorkload(SCENARIO_KINDS, seed).run_pass()
    entry = {}
    for outs in zip(*runs.values()):
        first = outs[0]
        if first.error:
            raise RuntimeError(f"seed {seed} {first.kind}: {first.error}")
        if any(o.report != first.report for o in outs):
            raise RuntimeError(f"seed {seed} {first.kind}: report bytes depend on the thread cap")
        entry[first.kind] = {
            "exit_code": first.exit_code,
            "case_csv_sha256": workloads.sha256(first.case_csv),
            "report_sha256": workloads.sha256(first.report),
            "verdicts": first.verdicts,
        }
    wl = workloads.CliWorkload(seed)
    try:
        (out,) = wl.run_pass()
    finally:
        wl.close()
    problem = out.error or workloads.cli_oracle_error(wl.input_values, out.report, seed)
    if problem or out.exit_code != 0:
        raise RuntimeError(f"seed {seed} cli: {problem or f'exit code {out.exit_code}'}")
    entry[workloads.CLI_WORKLOAD] = {
        "exit_code": out.exit_code,
        "report_sha256": workloads.sha256(out.report),
    }
    return entry


def main() -> int:
    cores = len(os.sched_getaffinity(0))
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    seeds = {}
    for seed in range(workloads.REFERENCE_SEEDS):
        seeds[str(seed)] = _record_seed(seed, cores)
        print(f"seed {seed} recorded", file=sys.stderr)
    doc = {
        "recorded_at_commit": commit,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": held_out_seed(workloads.REFERENCE_SEEDS),
        "held_out_rule": HELD_OUT_RULE,
        "seeds": seeds,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
