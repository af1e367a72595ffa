"""Command line front end.

Subcommands:
  variation      evaluate the variation operator of a grid function
  fourier-bound  tabulate multiplier sums over a frequency grid
  dr-check       kernel difference bounds for scale pairs
  verify         run a named verification scenario and emit a report

Exit codes: 0 success (for verify and dr-check: every check passed), 1 at
least one check failed, 2 the command could not run (bad input, a guard
such as the truncation tail gate or the cell cap, or any other error),
with a one-line `error: ...` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .avgops import VariationSpec, default_eval_grid, variation
from .fourier import multiplier_sums, parse_xi_grid
from .gridfn import read_function_csv, write_function_csv
from .harness import default_scenario, emit_report, from_config, run_scenario
from .kernel import KernelSpec, drlem_check
from .lacunary import parse_sequence

MAX_EVAL_CELLS = 50_000_000


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    with open(path, "wb") as fh:
        fh.write(data)


def _parse_seq(text: str, beta: float | None):
    if "," in text:
        return parse_sequence(tuple(float(v) for v in text.split(",")), beta)
    return parse_sequence(text, beta)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError(f"range must look like 'lo:hi', got {text!r}")
    return int(lo), int(hi)


def _cmd_variation(args: argparse.Namespace) -> int:
    f = read_function_csv(args.input)
    seq = _parse_seq(args.seq, args.beta)
    k = args.k if args.k is not None else len(seq) - 1
    spec = VariationSpec(
        s=args.s,
        k_max=k,
        tail_tol=args.tail_tol,
        enforce_tail=not args.allow_tail,
    )
    grid = default_eval_grid(f, seq, k, h=args.eval_h)
    if grid.n > args.max_cells:
        raise ValueError(
            f"evaluation grid needs {grid.n} cells (cap {args.max_cells}); "
            "raise --eval-h or --max-cells"
        )
    v = variation(f, seq, spec, grid)
    del grid  # and its cached midpoints, which the writer does not need
    write_function_csv(v, sys.stdout if args.out == "-" else args.out)
    return 0


def _cmd_fourier_bound(args: argparse.Namespace) -> int:
    seq = _parse_seq(args.seq, args.beta)
    xi = parse_xi_grid(args.xi)
    k = args.k if args.k is not None else len(seq) - 1
    scan = multiplier_sums(seq, xi, k)
    lines = ["xi,I,I1,I2,Q"]
    for x, i, i1, i2, q in zip(scan.xi, scan.i_sum, scan.i_high, scan.i_low, scan.q_sum):
        lines.append(f"{x:.17g},{i:.17g},{i1:.17g},{i2:.17g},{q:.17g}")
    _write_bytes(args.out, ("\n".join(lines) + "\n").encode())
    return 0


def _cmd_dr_check(args: argparse.Namespace) -> int:
    seq = _parse_seq(args.seq, args.beta)
    kspec = KernelSpec(seq, s=args.s, k_max=len(seq) - 1)
    i_lo, i_hi = _parse_range(args.i_range)
    y = args.y if args.y is not None else seq.scales[args.j]
    rows = []
    for i in range(i_lo, i_hi + 1):
        d = drlem_check(i, args.j, y, kspec, args.r)
        rows.append(
            {
                "i": d.i,
                "lhs": d.lhs,
                "rhs": d.rhs,
                "ratio": d.lhs / d.rhs,
                "passed": d.passed,
                "c_bound": d.c_bound,
                "c_alt": d.c_alt,
            }
        )
    doc = {
        "schema": "lacvar-drcheck/1",
        "seq": list(seq.scales),
        "beta": seq.beta,
        "r": args.r,
        "s": args.s,
        "j": args.j,
        "y": y,
        "checks": rows,
        "all_passed": all(r["passed"] for r in rows),
    }
    _write_bytes(args.out, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())
    return 0 if doc["all_passed"] else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if args.scenario:
            if "kind" in cfg and cfg["kind"] != args.scenario:
                raise ValueError(
                    f"--scenario {args.scenario} disagrees with config kind {cfg['kind']}"
                )
            cfg.setdefault("kind", args.scenario)
        sc = from_config(cfg)
    elif args.scenario:
        sc = default_scenario(args.scenario)
    else:
        raise ValueError("need --scenario and/or --config")
    if args.seed is not None:
        sc = from_config({**sc.to_dict(), "seed": args.seed})
    rep = run_scenario(sc)
    _write_bytes(args.out, emit_report(rep, "json"))
    if args.csv:
        _write_bytes(args.csv, emit_report(rep, "csv"))
    failed = [c.name for c in rep.checks if not c.passed]
    verdict = "PASS" if rep.passed else "FAIL"
    summary = f"{rep.kind}: {verdict} ({len(rep.checks)} checks"
    if failed:
        summary += f"; failed: {', '.join(failed)}"
    summary += f") in {rep.elapsed_s:.2f}s"
    print(summary, file=sys.stderr)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacvar",
        description="Variation operators over lacunary scale sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("variation", help="evaluate the variation operator")
    pv.add_argument("--input", required=True, help="input function CSV")
    pv.add_argument("--seq", required=True, help="sequence literal or comma-separated scales")
    pv.add_argument("--beta", type=float, default=None, help="lacunarity constant")
    pv.add_argument("--s", type=float, default=2.0, help="variation exponent")
    pv.add_argument("--k", type=int, default=None, help="truncation depth (default: full)")
    pv.add_argument("--eval-h", type=float, default=None, help="evaluation cell width")
    pv.add_argument("--tail-tol", type=float, default=1e-8)
    pv.add_argument(
        "--allow-tail",
        action="store_true",
        help="waive the truncation tail gate",
    )
    pv.add_argument(
        "--max-cells",
        type=int,
        default=MAX_EVAL_CELLS,
        help="refuse evaluation grids with more cells than this (default %(default)s); "
        "memory grows by a few tens of bytes per cell, whatever the number of scales",
    )
    pv.add_argument("--out", required=True, help="output CSV path, '-' for stdout")
    pv.set_defaults(func=_cmd_variation)

    pf = sub.add_parser("fourier-bound", help="tabulate multiplier sums")
    pf.add_argument("--seq", required=True)
    pf.add_argument("--beta", type=float, default=None)
    pf.add_argument("--k", type=int, default=None)
    pf.add_argument("--xi", default="log:1e-6:1e6:8192", help="frequency grid literal")
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=_cmd_fourier_bound)

    pd = sub.add_parser("dr-check", help="kernel difference bounds")
    pd.add_argument("--seq", required=True)
    pd.add_argument("--beta", type=float, default=None)
    pd.add_argument("--r", type=float, required=True)
    pd.add_argument("--s", type=float, default=2.0)
    pd.add_argument("--j", type=int, required=True)
    pd.add_argument("--i-range", required=True, help="inclusive index range 'lo:hi'")
    pd.add_argument("--y", type=float, default=None, help="offset (default n_j)")
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=_cmd_dr_check)

    pr = sub.add_parser("verify", help="run a verification scenario")
    pr.add_argument("--scenario", default=None, help="scenario kind")
    pr.add_argument("--config", default=None, help="JSON scenario config")
    pr.add_argument("--seed", type=int, default=None, help="override the seed")
    pr.add_argument("--out", required=True, help="report JSON path, '-' for stdout")
    pr.add_argument("--csv", default=None, help="also write per-case CSV here")
    pr.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # any failure to run is exit 2, never 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
