"""Time gridfn.write_function_csv from one or more source trees, in one process.

Two inputs of 2^20-odd rows, written to an in-memory buffer:
  flat      V_2 f on the `lacvar variation` grid (a 64-cell random step on
            [0, 1), seed 12, geometric:1:2:13, eval h 0.004): 1,024,250 rows
            that are nearly all runs of one repeated value;
  distinct  2^20 values from default_rng(0).uniform(-1, 1), no two equal,
            the worst case for a writer that formats each run once.

Each round writes every input once with each tree's writer, in an order that
alternates between rounds, and checks that all trees wrote the same bytes.
Prints the median and quartiles of each (input, tree) and how many rounds
each tree won against the first one.

    python3 scripts/time_csv_writer.py --src ../parent/src --src src --rounds 7
"""

import argparse
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from lacvar import GridFunction, VariationSpec, default_eval_grid, parse_sequence, variation


def load_writer(src: str, tag: int):
    path = Path(src) / "lacvar" / "gridfn.py"
    spec = importlib.util.spec_from_file_location(f"_gridfn_{tag}", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.write_function_csv


def inputs() -> dict[str, GridFunction]:
    step = np.random.default_rng(12).uniform(-1.0, 1.0, size=64)
    f = GridFunction(0.0, 1.0 / step.size, step)
    seq = parse_sequence("geometric:1:2:13")
    k = len(seq) - 1
    spec = VariationSpec(s=2.0, k_max=k, enforce_tail=False)
    flat = variation(f, seq, spec, default_eval_grid(f, seq, k, h=0.004))
    distinct = GridFunction(0.0, 1.0 / 1024, np.random.default_rng(0).uniform(-1.0, 1.0, 1 << 20))
    return {"flat": flat, "distinct": distinct}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, help="a tree holding lacvar/gridfn.py")
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)

    writers = [load_writer(src, i) for i, src in enumerate(args.src)]
    times = {}
    for name, f in inputs().items():
        for r in range(args.rounds):
            order = list(range(len(writers)))
            texts = {}
            for i in order if r % 2 == 0 else order[::-1]:
                buf = io.StringIO()
                t0 = time.perf_counter()
                writers[i](f, buf)
                times.setdefault((name, i), []).append(time.perf_counter() - t0)
                texts[i] = buf.getvalue()
            if len(set(texts.values())) != 1:
                raise SystemExit(f"{name}: the trees wrote different bytes in round {r}")
        for i, src in enumerate(args.src):
            ts = times[name, i]
            q1, _, q3 = statistics.quantiles(ts, n=4)
            wins = sum(t < t0 for t, t0 in zip(ts, times[name, 0]))
            print(
                f"{name:8s} {src}: median {statistics.median(ts):.3f} s "
                f"[{q1:.3f}, {q3:.3f}], faster than {args.src[0]} in {wins}/{len(ts)}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
