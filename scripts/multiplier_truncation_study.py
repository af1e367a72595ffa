"""Trace how the multiplier sup depends on the truncation depth.

The bound checks cap the sup of I(xi) at a fixed depth, and the strict
`k_doubling_stable` check asks the grid sup to settle to 1e-6 when the depth
doubles from 20 to 40.  It does not, and the terms are not to blame: the
default grid reaches down to |xi| = 1e-6 ~ 2^-20, and depth 20 does not
cover that end of the grid.  On that grid the sup moves by 2.7e-3 from depth
20 to 40 but by only 2.0e-8 from 40 to 80.  This script prints the sup at a
ladder of depths with the per-step delta, and the width of the certified
enclosure [sup I_K, max(I_K + T_K)] built from the tail majorant T_K
(`multiplier_tail`), so the plateau is visible directly.  One
`multiplier_scans` pass over the grid gives every depth.

    python3 scripts/multiplier_truncation_study.py --seq geometric:1:2:81 \
        --depths 5,10,20,40,80 --xi log:1e-6:1e6:8192
"""

import argparse
import sys

import numpy as np

from lacvar import multiplier_scans, multiplier_tail, parse_sequence, parse_xi_grid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seq", default="geometric:1:2:81")
    ap.add_argument("--depths", default="5,10,20,40,80")
    ap.add_argument("--xi", default="log:1e-6:1e6:8192")
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args(argv)

    seq = parse_sequence(args.seq)
    xi = parse_xi_grid(args.xi)
    depths = [int(d) for d in args.depths.split(",")]
    if max(depths) > len(seq) - 1:
        print(
            f"error: depth {max(depths)} needs at least {max(depths) + 1} scales, "
            f"sequence has {len(seq)}",
            file=sys.stderr,
        )
        return 2

    rows = []
    prev = None
    print(f"{'depth':>6} {'sup I':>20} {'argmax xi':>14} {'delta':>12} {'width':>12}")
    for k, s in zip(depths, multiplier_scans(seq, xi, depths)):
        delta = s.sup_i - prev if prev is not None else float("nan")
        width = float(np.max(s.i_sum + multiplier_tail(seq, xi, k))) - s.sup_i
        print(f"{k:>6} {s.sup_i:>20.12f} {s.argmax_xi:>14.6g} {delta:>12.3e} {width:>12.3e}")
        rows.append((k, s.sup_i, s.argmax_xi, delta, width))
        prev = s.sup_i

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("depth,sup_i,argmax_xi,delta,width\n")
            for k, sup_i, arg, delta, width in rows:
                fh.write(f"{k},{sup_i:.17g},{arg:.17g},{delta:.17g},{width:.17g}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
