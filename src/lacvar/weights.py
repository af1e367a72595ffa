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

from dataclasses import dataclass

import numpy as np

from .gridfn import (
    EmptyFamily,
    GridFunction,
    Interval,
    IntervalFamily,
    UniformGrid,
    read_function_csv,
    require_same_grid,
)


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


def _cell_range(fn: GridFunction, I: Interval) -> tuple[int, int]:
    """Indices [i0, i1] of cells overlapping I with positive measure."""
    i0 = int(np.floor((I.lo - fn.x0) / fn.h))
    if fn.x0 + (i0 + 1) * fn.h <= I.lo:
        i0 += 1
    i1 = int(np.ceil((I.hi - fn.x0) / fn.h)) - 1
    if fn.x0 + i1 * fn.h >= I.hi:
        i1 -= 1
    return i0, i1


def _require_inside(fn: GridFunction, I: Interval) -> None:
    slack = 1e-9 * fn.h
    if I.lo < fn.x0 - slack or I.hi > fn.x1 + slack:
        raise ValueError(
            f"interval ({I.lo!r}, {I.hi!r}) leaves the weight's domain "
            f"[{fn.x0!r}, {fn.x1!r}]; averages would see the zero extension"
        )


def _averages(fn: GridFunction, family: IntervalFamily) -> np.ndarray:
    los = np.array([I.lo for I in family])
    his = np.array([I.hi for I in family])
    return (fn.primitive_at(his) - fn.primitive_at(los)) / (his - los)


def ap_constant(w: Weight, p: float, family: IntervalFamily) -> float:
    """max over the family of (avg_I w) * (avg_I w^(-1/(p-1)))^(p-1).

    A family-relative estimate of the A_p constant; both averages are exact
    on the grid.
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p!r}")
    if not family:
        raise EmptyFamily("ap_constant needs at least one interval")
    for I in family:
        _require_inside(w.fn, I)
    dual = GridFunction(w.fn.x0, w.fn.h, w.fn.values ** (-1.0 / (p - 1.0)))
    prod = _averages(w.fn, family) * _averages(dual, family) ** (p - 1.0)
    return float(np.max(prod))


def a1_constant(w: Weight, family: IntervalFamily) -> float:
    """max over the family of (avg_I w) / (min of w on cells meeting I)."""
    if not family:
        raise EmptyFamily("a1_constant needs at least one interval")
    for I in family:
        _require_inside(w.fn, I)
    avgs = _averages(w.fn, family)
    best = 0.0
    for I, avg in zip(family, avgs):
        i0, i1 = _cell_range(w.fn, I)
        i0, i1 = max(i0, 0), min(i1, w.fn.n - 1)
        if i1 < i0:
            raise ValueError(f"interval ({I.lo!r}, {I.hi!r}) covers no grid cell")
        best = max(best, float(avg) / float(np.min(w.fn.values[i0 : i1 + 1])))
    return best


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

    Literals: "constant:<c>", "power:<alpha>", or a CSV path (which fixes
    its own grid; sampling then requires the same grid).
    """

    kind: str
    param: float | str

    def sample(self, grid: UniformGrid) -> Weight:
        if self.kind == "constant":
            return constant_weight(float(self.param), grid)
        if self.kind == "power":
            return power_weight(float(self.param), grid)
        fn = read_function_csv(str(self.param))
        require_same_grid(fn, GridFunction(grid.x0, grid.h, np.zeros(grid.n) + 1.0))
        return Weight(fn, f"csv:{self.param}")

    @property
    def label(self) -> str:
        if self.kind in ("constant", "power"):
            return f"{self.kind}:{float(self.param):g}"
        return f"csv:{self.param}"


def parse_weight(literal: str) -> WeightSpec:
    if literal.startswith("constant:"):
        return WeightSpec("constant", float(literal.split(":", 1)[1]))
    if literal.startswith("power:"):
        return WeightSpec("power", float(literal.split(":", 1)[1]))
    return WeightSpec("csv", literal)
