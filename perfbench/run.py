"""lacvar benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  Each workload runs in fresh child
interpreters (perfbench/worker.py) that import lacvar from the checkout's
src/.  The metric names and units are the ones BENCHMARK.json declares.

--trace 0 prints the end-to-end metrics:
  wall_s         median pass time at LACVAR_THREADS = affinity core count
  serial_wall_s  median pass time at LACVAR_THREADS = 1
  setup_s        median over fresh interpreters of spawn -> lacvar imported
                 and the workload built
  peak_rss_mb    ru_maxrss of the child that ran the timed passes
--trace 1 prints the per-layer metrics of a traced run at LACVAR_THREADS = 1.

Every run's output is checked (see workloads.Checker); the failures are
counted in the result's `attempted`/`failed` and printed as failed_frac.
The last stdout line is the result object; the lines before it give the
machine, the sample counts and quartiles, and the report digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 11
TIME_LIMIT_S = 170.0


def _child(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its spawn instant (CLOCK_MONOTONIC) and result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--seconds", repr(seconds),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {mode} worker for {workload} ran out of time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {mode} worker for {workload} exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def _l3_size() -> str | None:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def _summary(samples: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile that
    still has at least ten samples above it (None below eleven samples)."""
    xs = sorted(samples)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0],) * 3
    high = None
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        high = {"percentile": p, "value": xs[math.ceil(p * n / 100) - 1]}
    return {"n": n, "median": statistics.median(xs), "q1": q1, "q3": q3, "high": high}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "lacvar" / "__init__.py").is_file():
        print(f"error: no lacvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        _, res = _child("trace", args.workload, args.seed, args.seconds, deadline)
        metrics = res["layers"]
        print(f"traced passes: {res['traced_passes']}; spans written to {res['spans_file']}")
    else:
        setups = []
        for _ in range(SETUP_RUNS):
            spawned, r = _child("setup", args.workload, args.seed, 0.0, deadline)
            setups.append(r["ready"] - spawned)
        spawned, res = _child("measure", args.workload, args.seed, args.seconds, deadline)
        setups.append(res["ready"] - spawned)
        stats = {
            "wall_s": _summary(res["wall"]),
            "serial_wall_s": _summary(res["serial"]),
            "setup_s": _summary(setups),
        }
        metrics = {name: s["median"] for name, s in stats.items()}
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        for name, s in stats.items():
            print(f"{name}: {json.dumps(s)}")
        print(f"wall_s ran at LACVAR_THREADS={res['threads']}, serial_wall_s at 1")

    machine = {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3": _l3_size(),
        **res["versions"],
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"seed {args.seed} -> scenario seed {res['seed']}")
    for kind, d in res["digests"].items():
        print(f"report sha256 {kind}: {d['sha256']} (reference bytes: {'same' if d['same_as_reference'] else 'differ'})")
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_frac: {res['failed'] / res['attempted']!r} ratio ({res['failed']} of {res['attempted']} runs)")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
