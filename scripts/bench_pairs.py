"""Compare two checkouts on perfbench's end-to-end metrics, in alternating pairs.

Usage:
    python3 scripts/bench_pairs.py BASE CHANGE [--pairs 10] [--seed 12]
        [--seconds 2] [--workload variation_sweep ...]

For each workload (default: every one that BASE's BENCHMARK.json lists),
runs `python3 perfbench/run.py --trace 0` from the root of BASE and from
the root of CHANGE, --pairs times each.  The side that goes first swaps
from pair to pair, so a drift in the machine's speed falls on both sides
alike.  Each run's result object, the last line perfbench prints, is read;
a run that exits non-zero or reports `correct: false` is counted as failed
and left out of the table.  For each end-to-end metric the table gives the
median [q1, q3] of each side and in how many pairs CHANGE was strictly
better, in the direction BENCHMARK.json declares.

The two roots' absolute paths must have the same length, since
peak_rss_mb moves with the path alone.  The children run with
PYTHONDONTWRITEBYTECODE=1, so neither checkout is written to beyond what
perfbench itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One perfbench run from root: its metric values, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    """Median, q1 and q3, as perfbench's own summary takes them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(sorted(xs), n=4)
    return statistics.median(xs), q1, q3


def pair_rows(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[tuple]:
    """(name, unit, base stats, change stats, wins, pairs) per declared
    metric, over the pairs (base values, change values) where both ran."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        rows.append((name, m["unit"], _quartiles(base), _quartiles(change), wins, len(pairs)))
    return rows


def _stats(q: tuple[float, float, float]) -> str:
    return f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--workload", action="append", default=None)
    args = ap.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    if len(str(base)) != len(str(change)):
        print(f"error: {base} and {change} differ in path length; peak_rss_mb moves with it", file=sys.stderr)
        return 2
    for root in (base, change):
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {root}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    bench = json.loads((base / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    print(f"base {base}\nchange {change}\nseed {args.seed}, {args.pairs} pairs x {args.seconds:g} s per run")
    print("| workload | metric | base | change | change won |\n|---|---|---|---|---|")
    for workload in workloads:
        pairs, failed = [], {"base": 0, "change": 0}
        for i in range(args.pairs):
            sides = [("base", base), ("change", change)]
            got = {side: _run(root, workload, args.seed, args.seconds) for side, root in (sides[::-1] if i % 2 else sides)}
            for side, values in got.items():
                failed[side] += values is None
            if got["base"] and got["change"]:
                pairs.append((got["base"], got["change"]))
        if failed["base"] or failed["change"]:
            print(f"| {workload} | failed runs | {failed['base']} | {failed['change']} | |")
        if not pairs:
            continue
        for name, unit, b, c, wins, n in pair_rows(bench["end_to_end"], pairs):
            print(f"| {workload} | {name} ({unit}) | {_stats(b)} | {_stats(c)} | {wins}/{n} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
