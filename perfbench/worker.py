"""One benchmark child: a fresh interpreter that sets up one workload and runs it.

    python3 perfbench/worker.py --root <checkout> --workload <name> --seed <n>
        --mode setup|measure|trace [--seconds <s>]

`run.py` starts it; it prints one JSON object on its last stdout line.

  setup    import lacvar, build the workload, report the CLOCK_MONOTONIC
           instant it was ready, exit.
  measure  the same set-up, then passes alternating between LACVAR_THREADS
           = the affinity core count and LACVAR_THREADS = 1 until the time
           is up; reports every pass time, the process's peak RSS and the
           correctness tally.
  trace    passes at LACVAR_THREADS = 1, alternating untraced and traced,
           until the time is up; reports the per-layer metrics and writes
           the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _passes(wl, checker, seconds: float, variants) -> dict[str, list[float]]:
    """Run one pass under each of `variants` (key, context), in alternating
    order pair after pair, until `seconds` have passed; at least one pair
    runs.  Outputs are checked after the clock stops."""
    times = {key: [] for key, _ in variants}
    deadline = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < deadline:
        for key, context in variants if i % 2 == 0 else variants[::-1]:
            with context():
                t0 = time.perf_counter()
                outs = wl.run_pass()
                times[key].append(time.perf_counter() - t0)
            checker.check(outs)
            del outs
        i += 1
    return times


@contextlib.contextmanager
def _threads(n: int):
    os.environ["LACVAR_THREADS"] = str(n)
    yield


def _measure(wl, checker, seconds: float) -> dict:
    cores = len(os.sched_getaffinity(0))
    variants = [("wall", functools.partial(_threads, cores)), ("serial", functools.partial(_threads, 1))]
    times = _passes(wl, checker, seconds, variants)
    return {
        **times,
        "threads": cores,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median(values: list) -> float:
    """The median; for counts, a middle sample, so that a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _trace(wl, checker, seconds: float, out_path: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    per_pass = []

    @contextlib.contextmanager
    def traced():
        tracer.install()
        tracer.begin_pass()
        try:
            yield
        finally:
            per_pass.append(tracer.pass_metrics())
            tracer.restore()

    os.environ["LACVAR_THREADS"] = "1"
    times = _passes(wl, checker, seconds, [("plain", contextlib.nullcontext), ("traced", traced)])
    layers = {key: _median([p[key] for p in per_pass]) for key in per_pass[0]}
    layers["trace.overhead_s"] = statistics.median(times["traced"]) - statistics.median(times["plain"])
    layers["trace.self_share"] = statistics.median(
        p["trace.self_s"] / t for p, t in zip(per_pass, times["traced"])
    )
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps({**tracer.dump(), "passes": per_pass}), encoding="utf-8")
    return {"layers": layers, "traced_passes": len(per_pass), "spans_file": str(out_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import lacvar
    import numpy
    import workloads

    if not Path(lacvar.__file__).resolve().is_relative_to(src):
        print(f"error: imported lacvar from {lacvar.__file__}, not from {src}", file=sys.stderr)
        return 2
    seed = workloads.scenario_seed(args.seed)
    wl = workloads.make_workload(args.workload, seed)
    ready = time.monotonic()
    try:
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        checker = workloads.Checker(
            seed, workloads.load_reference(), getattr(wl, "input_values", None)
        )
        if args.mode == "measure":
            result = _measure(wl, checker, args.seconds)
        else:
            out = workloads.WORK_DIR / f"trace_{args.workload}_seed{seed}.json"
            result = _trace(wl, checker, args.seconds, out)
    finally:
        wl.close()
    result.update(
        ready=ready,
        seed=seed,
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        digests=checker.report_digests(),
        versions={"python": platform.python_version(), "numpy": numpy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
