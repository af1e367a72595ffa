"""Print the sha256 of every report and of the benchmark's CLI output.

Usage:
    PYTHONPATH=src python3 scripts/report_digests.py [--seeds 0 1 12] > digests.txt

One line per (kind, seed, format) with the digest of `emit_report` in JSON
and CSV, then one line per seed with the digest of the `lacvar variation`
call that perfbench's cli_variation workload makes (a 64-cell step drawn
from that seed, 13 dyadic scales, eval step 0.004), then one line per
`lacvar fourier-bound` table on the default sequence and frequency grid of
fourier_bound (at both depths of its k_pair) and of l2_multiplier (at its
k_max).  Run it in two checkouts and diff the outputs: no diff means the
same bits.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

import numpy as np

from lacvar import (
    SCENARIO_KINDS,
    GridFunction,
    cli,
    default_scenario,
    emit_report,
    from_config,
    parse_sequence,
    run_scenario,
    write_function_csv,
)

CLI_ARGS = ["--seq", "geometric:1:2:13", "--allow-tail", "--eval-h", "0.004", "--out", "-"]


class _Sha256Writer:
    """A text sink that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def cli_digest(seed: int, tmp: str) -> str:
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=64)
    path = os.path.join(tmp, f"cli_input_{seed}.csv")
    write_function_csv(GridFunction(0.0, 1.0 / values.size, values), path)
    sink = _Sha256Writer()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(["variation", "--input", path, *CLI_ARGS])
    return f"{sink.sha.hexdigest()} exit={rc}"


def fourier_calls():
    """(kind, seq, grid, depth) of each multiplier scan the scenario defaults read."""
    for kind in ("fourier_bound", "l2_multiplier"):
        sc = default_scenario(kind)
        last = len(parse_sequence(sc.seq)) - 1
        depths = sc.options.get("k_pair", [last if sc.k_max is None else sc.k_max])
        for k in depths:
            yield kind, sc.seq, sc.options["xi_grid"], k


def fourier_digest(seq: str, grid: str, k: int, tmp: str) -> str:
    path = os.path.join(tmp, "fourier_bound.csv")
    rc = cli.main(["fourier-bound", "--seq", seq, "--xi", grid, "--k", str(k), "--out", path])
    with open(path, "rb") as fh:
        return f"{hashlib.sha256(fh.read()).hexdigest()} exit={rc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 12])
    args = ap.parse_args(argv)
    for kind in SCENARIO_KINDS:
        for seed in args.seeds:
            rep = run_scenario(from_config({"kind": kind, "seed": seed}))
            for fmt in ("json", "csv"):
                print(f"{kind} seed={seed} {fmt} {hashlib.sha256(emit_report(rep, fmt)).hexdigest()}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            print(f"cli_variation seed={seed} {cli_digest(seed, tmp)}")
        for kind, seq, grid, k in fourier_calls():
            print(f"fourier-bound {kind} seq={seq} xi={grid} k={k} {fourier_digest(seq, grid, k, tmp)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
