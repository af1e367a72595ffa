"""Run every built-in verification scenario and write one report per kind.

Usage:
    python3 scripts/run_all_scenarios.py --out-dir reports [--seed 0] [--csv] [--passes 1]

Each line gives the kind's verdict, case count, run time and the minor page
faults (`ru_minflt`) the run took: pages the process touched for the first
time or after the allocator gave them back.  These go to stdout only, never
into the report files.  With --passes N every kind runs N times, in
order, and the exit status is that of the last pass.

Exit status is the number of failed scenarios (capped at 99), so a zero exit
means everything passed.  Note that fourier_bound and refine_domination fail
by design under the default thresholds; pass --skip-known-red to leave them
out of the exit status while still writing their reports.
"""

import argparse
import os
import resource
import sys
import time

from lacvar import SCENARIO_KINDS, default_scenario, emit_report, from_config, run_scenario

KNOWN_RED = ("fourier_bound", "refine_domination")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    ap.add_argument("--csv", action="store_true", help="also write per-case CSV tables")
    ap.add_argument("--skip-known-red", action="store_true")
    ap.add_argument("--passes", type=int, default=1,
                    help="run every kind this many times in one process; later passes show the steady state")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    scenarios = []
    for kind in SCENARIO_KINDS:
        sc = default_scenario(kind)
        if args.seed is not None:
            sc = from_config({**sc.to_dict(), "seed": args.seed})
        scenarios.append(sc)
    for n in range(1, args.passes + 1):
        if args.passes > 1:
            print(f"pass {n}")
        failures = 0
        for sc in scenarios:
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            rep = run_scenario(sc)
            dt = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
            with open(os.path.join(args.out_dir, f"{sc.kind}.json"), "wb") as fh:
                fh.write(emit_report(rep, "json"))
            if args.csv:
                with open(os.path.join(args.out_dir, f"{sc.kind}.csv"), "wb") as fh:
                    fh.write(emit_report(rep, "csv"))
            verdict = "PASS" if rep.passed else "FAIL"
            bad = [c.name for c in rep.checks if not c.passed]
            note = f"  failed: {', '.join(bad)}" if bad else ""
            print(f"{sc.kind:<20} {verdict}  {len(rep.cases):>4} cases  {dt:6.2f}s  {faults:>6} minflt{note}")
            if not rep.passed and not (args.skip_known_red and sc.kind in KNOWN_RED):
                failures += 1
    return min(failures, 99)


if __name__ == "__main__":
    sys.exit(main())
