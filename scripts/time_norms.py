"""Time lp_norm of V_s f on its runs against lp_norm of its expansion, in one process.

Each kind is run once at the given seed, and every member that its runner
hands to lp_norm unweighted is kept, grid by grid: the family members of
`variations` (strong_pp, l2_multiplier) or the rho aggregates of
`vector_variations` (vector_valued), on the base grid and the refined one.
Then, round after round, each grid's members are measured both ways:

  expanded  lp_norm(v.on_grid(), p) for each member: the np.repeat
            expansion and a sum over every cell of the grid;
  runs      lp_norm(v, p) for each member, on a fresh GridRuns of the grid,
            so each round also builds the sum plan once, as a run does.

The two routes alternate which goes first from round to round, and must
give the same bits for every member.  Prints, per kind and grid, the
members, grid points and runs, the median and quartiles of each route's
time per round (all members), the plan's build time, and how many rounds
the run route won.

    PYTHONPATH=src python3 scripts/time_norms.py --seed 12 --rounds 15
"""

import argparse
import statistics
import time

import numpy as np

from lacvar import GridRuns, RunFunction, from_config, lp_norm, run_scenario, runners
from lacvar.runs import _SumPlan

KINDS = ("strong_pp", "l2_multiplier", "vector_valued")


def members_by_grid(kind: str, seed: int):
    """(p, [members of one family call, for each call in order]) from one run of kind."""
    calls = []
    variations, vector_variations = runners.variations, runners.vector_variations

    def keep_variations(*args):
        calls.append(list(variations(*args)))
        return iter(calls[-1])

    def keep_vector_variations(*args):
        calls.append(vector_variations(*args))
        return calls[-1]

    runners.variations, runners.vector_variations = keep_variations, keep_vector_variations
    try:
        sc = from_config({"kind": kind, "seed": seed})
        run_scenario(sc)
    finally:
        runners.variations, runners.vector_variations = variations, vector_variations
    return sc.p, calls


def one_round(vs, p, route: str) -> tuple[float, list[bytes]]:
    if route == "runs":
        runs = GridRuns(vs[0].grid, vs[0].runs.counts)
        vs = [RunFunction(runs, v.run_values) for v in vs]
        t0 = time.perf_counter()
        norms = [lp_norm(v, p) for v in vs]
    else:
        t0 = time.perf_counter()
        norms = [lp_norm(v.on_grid(), p) for v in vs]
    return time.perf_counter() - t0, [np.float64(x).tobytes() for x in norms]


def summary(ts: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(ts, n=4)
    return f"{statistics.median(ts) * 1e3:7.2f} ms [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--kinds", nargs="+", default=list(KINDS), choices=KINDS)
    args = ap.parse_args(argv)

    for kind in args.kinds:
        p, calls = members_by_grid(kind, args.seed)
        for vs in calls:
            times = {"expanded": [], "runs": []}
            for r in range(args.rounds):
                bits = {}
                for route in ("expanded", "runs") if r % 2 == 0 else ("runs", "expanded"):
                    t, bits[route] = one_round(vs, p, route)
                    times[route].append(t)
                if bits["expanded"] != bits["runs"]:
                    raise SystemExit(f"{kind}: the routes gave different bits on {vs[0].n} points in round {r}")
            plan = []
            for _ in range(args.rounds):
                t0 = time.perf_counter()
                _SumPlan(vs[0].runs.counts)
                plan.append(time.perf_counter() - t0)
            wins = sum(a < b for a, b in zip(times["runs"], times["expanded"]))
            print(
                f"{kind:14s} {len(vs):3d} members, {vs[0].n:7d} points, {vs[0].runs.counts.size:6d} runs: "
                f"expanded {summary(times['expanded'])}, runs {summary(times['runs'])}, "
                f"plan {statistics.median(plan) * 1e3:.3f} ms, runs faster in {wins}/{args.rounds}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
