"""Muckenhoupt-style weight constants estimated over interval families.

A weight is a positive step function on the working grid.  Both factors of
the A_p product are exact grid averages (the dual power of a step function
is again a step function), so the only approximation anywhere is that the
supremum runs over a finite interval family instead of all intervals.
Every result is therefore a family-relative estimate, which is all the
verification harness needs: estimates only ever get larger on bigger
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction, IntervalFamily, UniformGrid


class NonPositiveWeight(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Weight:
    """Positive step function with a display label (e.g. "power:0.5")."""

    fn: GridFunction
    label: str = ""

    def __post_init__(self):
        if not np.all(self.fn.values > 0.0):
            raise NonPositiveWeight(
                f"weight {self.label or '<unlabeled>'} has non-positive samples"
            )


def _cell_ranges(fn: GridFunction, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices [i0, i1] of the cells overlapping each (lo, hi) with positive measure."""
    i0 = np.floor((lo - fn.x0) / fn.h).astype(np.int64)
    i0 += fn.x0 + (i0 + 1) * fn.h <= lo
    i1 = np.ceil((hi - fn.x0) / fn.h).astype(np.int64) - 1
    i1 -= fn.x0 + i1 * fn.h >= hi
    return i0, i1


def _inside_bounds(fn: GridFunction, family: IntervalFamily) -> tuple[np.ndarray, np.ndarray]:
    """The family's endpoints, after checking that every interval lies in fn's domain."""
    lo, hi = family.lo, family.hi
    slack = 1e-9 * fn.h
    outside = (lo < fn.x0 - slack) | (hi > fn.x1 + slack)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"interval ({float(lo[i])!r}, {float(hi[i])!r}) leaves the weight's domain "
            f"[{fn.x0!r}, {fn.x1!r}]; averages would see the zero extension"
        )
    return lo, hi


def ap_constant(w: Weight, p: float, family: IntervalFamily) -> float:
    """max over the family of (avg_I w) * (avg_I w^(-1/(p-1)))^(p-1).

    A family-relative estimate of the A_p constant; both averages are exact
    on the grid.
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p!r}")
    lo, hi = _inside_bounds(w.fn, family)
    dual = GridFunction(w.fn.x0, w.fn.h, w.fn.values ** (-1.0 / (p - 1.0)))
    prod = w.fn.mean_over(lo, hi) * dual.mean_over(lo, hi) ** (p - 1.0)
    return float(np.max(prod))


def a1_constant(w: Weight, family: IntervalFamily) -> float:
    """max over the family of (avg_I w) / (min of w on cells meeting I)."""
    lo, hi = _inside_bounds(w.fn, family)
    i0, i1 = _cell_ranges(w.fn, lo, hi)
    i0, i1 = np.maximum(i0, 0), np.minimum(i1, w.fn.n - 1)
    empty = i1 < i0
    if empty.any():
        i = int(np.argmax(empty))
        raise ValueError(f"interval ({float(lo[i])!r}, {float(hi[i])!r}) covers no grid cell")
    # min over values[i0:i1+1] for each interval: reduceat over the
    # interleaved starts and stops, keeping the even segments; the padded
    # slot makes a stop at n a valid index
    padded = np.append(w.fn.values, np.inf)
    mins = np.minimum.reduceat(padded, np.stack([i0, i1 + 1], axis=1).ravel())[::2]
    return float(np.max(w.fn.mean_over(lo, hi) / mins))


def power_weight(alpha: float, grid: UniformGrid) -> Weight:
    """w(x) = |x|^alpha sampled at cell midpoints.

    Midpoint sampling keeps the samples finite and positive for any alpha
    as long as no midpoint sits exactly at 0; if one does, the Weight
    constructor rejects the result rather than guessing.
    """
    with np.errstate(divide="ignore"):
        vals = np.abs(grid.midpoints) ** float(alpha)
    if not np.all(np.isfinite(vals)):
        raise NonPositiveWeight(
            f"|x|^{alpha!r} is not finite at some midpoint; shift the grid off 0"
        )
    return Weight(GridFunction(grid.x0, grid.h, vals), f"power:{alpha:g}")


def constant_weight(c: float, grid: UniformGrid) -> Weight:
    if not c > 0.0:
        raise NonPositiveWeight(f"constant weight must be positive, got {c!r}")
    return Weight(GridFunction(grid.x0, grid.h, np.full(grid.n, float(c))), f"constant:{c:g}")


@dataclass(frozen=True)
class WeightSpec:
    """Deferred weight: a recipe that can be sampled on any working grid.

    Literals: "constant:<c>" or "power:<alpha>".
    """

    kind: str
    param: float

    def sample(self, grid: UniformGrid) -> Weight:
        if self.kind == "constant":
            return constant_weight(self.param, grid)
        return power_weight(self.param, grid)

    def check(self, grid: UniformGrid) -> None:
        """Raise NonPositiveWeight where sample(grid) would, in O(1): a
        power |x|^alpha is monotone in |x|, so its extremes on the grid are
        at the midpoints of the ends and next to 0, which are computed with
        the arithmetic of grid.midpoints."""
        if self.kind == "power":
            t = -grid.x0 / grid.h - 0.5  # where a midpoint would be 0
            near = range(int(t) - 1, int(t) + 3) if 0.0 <= t < grid.n else ()
            i = np.array([j for j in (0, grid.n - 1, *near) if 0 <= j < grid.n], dtype=np.float64)
            with np.errstate(all="ignore"):
                vals = np.abs(grid.x0 + grid.h * (i + 0.5)) ** self.param
            if not np.all((vals > 0.0) & (vals < np.inf)):
                raise NonPositiveWeight(
                    f"{self.label} is 0 or not finite at a midpoint of the grid at x0={grid.x0!r} with step {grid.h!r}"
                )

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.param:g}"


def parse_weight(literal: str) -> WeightSpec:
    """The WeightSpec of a literal; ValueError for any other form, a non-number,
    a parameter that is not finite, or a constant that is not positive."""
    kind, _, param = str(literal).partition(":")
    if kind not in ("constant", "power"):
        raise ValueError(f"bad weight literal {literal!r}; expected constant:<c> or power:<alpha>")
    value = float(param)
    if not math.isfinite(value) or (kind == "constant" and not value > 0.0):
        need = "finite and positive" if kind == "constant" else "finite"
        raise ValueError(f"weight literal {literal!r} cannot be sampled; its parameter must be {need}")
    return WeightSpec(kind, value)
