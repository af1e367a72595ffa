"""Step functions on uniform grids: norms, oscillation, interval families, CSV IO.

Everything downstream works with functions that are constant on the cells of
a uniform grid and identically zero outside it.  That makes averages, Lp
norms and superlevel measures exact finite sums, so the test oracles can be
exact too.

lp_norm also takes the run-length form of `runs`, summed on its runs with
the bits of the sum over every cell; everything else here reads cells.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridMismatch(ValueError):
    pass


class EmptyFamily(ValueError):
    pass


class IntervalTooSmall(ValueError):
    pass


class BadParams(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class UniformGrid:
    """Cells [x0 + i*h, x0 + (i+1)*h) for i = 0..n-1."""

    x0: float
    h: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.h)):
            raise ValueError("grid origin and step must be finite")
        if self.h <= 0.0:
            raise ValueError(f"grid step must be positive, got {self.h!r}")
        if self.n < 1:
            raise ValueError(f"grid needs at least one cell, got n={self.n!r}")

    @property
    def edges(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n + 1)

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Cell midpoints, ascending and NaN-free; built once, read-only."""
        mids = self.x0 + self.h * (np.arange(self.n) + 0.5)
        mids.setflags(write=False)
        return mids

    @property
    def x1(self) -> float:
        return self.x0 + self.h * self.n


def _read_only(v) -> np.ndarray:
    """v as a read-only float64 array: a read-only float64 array whose owner
    is read-only too is taken over as it is, without a copy; anything else
    is copied."""
    owner = v if getattr(v, "base", None) is None else v.base
    if not (isinstance(owner, np.ndarray) and not owner.flags.writeable and v.dtype == np.float64):
        v = np.array(v, dtype=np.float64)
        v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Right-open step function: values[i] on [x0 + i*h, x0 + (i+1)*h), 0 outside."""

    x0: float
    h: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _read_only(self.values)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "h", float(self.h))
        if not (np.isfinite(self.x0) and self.h > 0.0):
            raise ValueError("need finite x0 and positive h")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> UniformGrid:
        return UniformGrid(self.x0, self.h, self.n)

    @property
    def x1(self) -> float:
        return self.x0 + self.h * self.n

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        idx = np.floor((x - self.x0) / self.h).astype(np.int64)
        inside = (idx >= 0) & (idx < self.n)
        out = np.zeros(x.shape, dtype=np.float64)
        out[inside] = self.values[idx[inside]]
        return out

    def antiderivative_edges(self) -> np.ndarray:
        """Exact antiderivative S(x) = int_{x0}^{x} f at the cell edges.

        Accumulated in extended precision: the float64 running sum alone can
        drift past the 1e-12 agreement the average oracles are held to.
        """
        acc = np.cumsum(self.values.astype(np.longdouble)) * np.longdouble(self.h)
        out = np.empty(self.n + 1, dtype=np.float64)
        out[0] = 0.0
        out[1:] = acc.astype(np.float64)
        return out

    @cached_property
    def primitive_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell edges and S at them; built on first use, kept, read-only."""
        table = (self.x0 + self.h * np.arange(self.n + 1), self.antiderivative_edges())
        for a in table:
            a.setflags(write=False)
        return table

    def primitive_at(self, x) -> np.ndarray:
        """Exact S(x) = int_{-inf}^{x} f at arbitrary points.

        S is piecewise linear between cell edges, 0 left of the grid and the
        total integral right of it, interpolated in primitive_table.
        """
        edges, S = self.primitive_table
        return np.interp(x, edges, S, left=0.0, right=S[-1])

    def integral(self, a: float, b: float) -> float:
        """Exact int_a^b f for a <= b (f vanishes outside the grid)."""
        if b < a:
            raise ValueError("need a <= b")
        sa, sb = self.primitive_at([a, b])
        return float(sb - sa)

    def mean_over(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact mean of f over each [lo[i], hi[i]), with hi > lo."""
        return (self.primitive_at(hi) - self.primitive_at(lo)) / (hi - lo)


def require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.n != g.n or f.x0 != g.x0 or f.h != g.h:
        raise GridMismatch("functions live on different grids")


def _weight_cells(f: GridFunction, w) -> np.ndarray | None:
    """Per-cell weight densities aligned to f's grid; None means unweighted."""
    if w is None:
        return None
    if isinstance(w, GridFunction):
        require_same_grid(f, w)
        return w.values
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (f.n,):
        raise GridMismatch("weight must give one density value per cell of f")
    return arr


def lp_norm(f, p: float, w=None) -> float:
    """||f||_p of a GridFunction or a runs.RunFunction, optionally against
    a weight sampled on the same grid.

    The weight may be a GridFunction sharing f's grid or a bare per-cell
    array; sums are exact for the step functions involved.  The cells
    |f|^p h (times the weight) are summed by np.sum.  A RunFunction's are
    summed on its runs when unweighted (GridRuns.sum, with the same bits),
    and on its expansion when weighted.
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p!r}")
    if not isinstance(f, GridFunction):
        if w is None:
            if np.isinf(p):
                return float(np.max(np.abs(f.run_values)))
            return float(f.runs.sum(np.abs(f.run_values) ** p * f.grid.h) ** (1.0 / p))
        f = f.on_grid()
    wc = _weight_cells(f, w)
    if np.isinf(p):
        return sup_norm(f)
    cells = np.abs(f.values) ** p * f.h
    if wc is not None:
        cells *= wc
    return float(np.sum(cells) ** (1.0 / p))


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.values)))


def superlevel_measure(f: GridFunction, lam: float, w=None) -> float:
    """measure{ f > lam } restricted to the grid (strict inequality)."""
    wc = _weight_cells(f, w)
    mask = f.values > lam
    if wc is None:
        return float(np.count_nonzero(mask) * f.h)
    return float(np.sum(wc[mask]) * f.h)


def weak_sup(v: GridFunction, w_cells: np.ndarray | None = None) -> float:
    """Exact sup over lambda of lambda * measure{v > lambda}.

    The superlevel measure is a step function of lambda, so the sup equals
    max over the attained values t of t * measure{v >= t}; a descending
    sort with cumulative cell measures evaluates every candidate at once.
    """
    vals = v.values
    order = np.argsort(-vals, kind="stable")
    # the measures are gathered before the sum and the candidates formed
    # in place, so at most three N-float arrays are live beside v
    cum = np.cumsum(np.full(vals.shape, v.h) if w_cells is None else v.h * w_cells[order])
    cum *= vals[order]
    return float(np.max(cum))


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty interval [{self.lo!r}, {self.hi!r})")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, eq=False)
class IntervalFamily:
    """Intervals [lo[i], hi[i]) held as two read-only float64 endpoint arrays."""

    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)

    def __post_init__(self):
        lo = np.array(self.lo, dtype=np.float64)
        hi = np.array(self.hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be 1-d arrays of one length")
        if lo.size == 0:
            raise EmptyFamily("an interval family needs at least one interval")
        bad = ~(hi > lo)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"empty interval [{float(lo[i])!r}, {float(hi[i])!r})")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __len__(self) -> int:
        return self.lo.size


# Most candidate intervals make_dyadic_family builds (linf_bmo's defaults make about 7k)
_MAX_INTERVALS = 1 << 22


def _dyadic_lattices(domain: Interval, min_len: float, margin: float, shifts: tuple[float, ...]):
    """The padded domain's ends and make_dyadic_family's lattices (length,
    offset, j0, j1), counted in Python ints, so that a family refused for
    passing _MAX_INTERVALS candidates makes no array."""
    lo, hi = domain.lo - margin, domain.hi + margin
    if not min_len > 0.0:
        raise ValueError("min_len must be positive")
    if not math.isfinite(hi - lo):
        raise ValueError(f"the padded domain [{lo!r}, {hi!r}) has no finite length")
    m_top = int(np.floor(np.log2(hi - lo) + 1e-12))
    m_bot = int(np.ceil(np.log2(min_len) - 1e-12))
    if m_top < m_bot:
        raise EmptyFamily("no dyadic level fits between min_len and the domain length")
    lattices, total = [], 0
    for m in range(m_top, m_bot - 1, -1):
        ln = 2.0**m
        for frac in shifts:
            off = frac * ln
            j0 = int(np.floor((lo - off) / ln))
            j1 = int(np.ceil((hi - off) / ln))
            total += j1 - j0 + 1
            if total > _MAX_INTERVALS:
                raise ValueError(f"min_len {min_len!r} needs more than {_MAX_INTERVALS} intervals on a length of {hi - lo!r}")
            lattices.append((ln, off, j0, j1))
    return lo, hi, lattices


def dyadic_family_size(domain: Interval, min_len: float, *, margin: float = 0.0,
                       shifts: tuple[float, ...] = (0.0,), inside_only: bool = True) -> int:
    """How many candidate intervals make_dyadic_family would build from the
    same arguments (inside_only drops some of them afterwards), with its
    errors, counted without making an array."""
    return sum(j1 - j0 + 1 for _, _, j0, j1 in _dyadic_lattices(domain, min_len, margin, shifts)[2])


def make_dyadic_family(
    domain: Interval,
    min_len: float,
    *,
    margin: float = 0.0,
    shifts: tuple[float, ...] = (0.0,),
    inside_only: bool = True,
) -> IntervalFamily:
    """Dyadic intervals [j*2^m, (j+1)*2^m) meeting the (padded) domain.

    Levels run from the largest power of two not above the padded domain
    length down to the first level not below `min_len`.  With `inside_only`
    the family keeps only intervals contained in the padded domain.
    `shifts` adds translated copies of the lattice (as fractions of each
    interval's own length).  Intervals come level by level, shift by shift,
    in increasing j.  More than _MAX_INTERVALS candidates is a ValueError.
    """
    lo, hi, lattices = _dyadic_lattices(domain, min_len, margin, shifts)
    los, his = [], []
    for ln, off, j0, j1 in lattices:
        a = np.arange(j0, j1 + 1) * ln + off
        b = a + ln
        keep = (b > lo) & (a < hi)
        if inside_only:
            keep &= (a >= lo) & (b <= hi)
        los.append(a[keep])
        his.append(b[keep])
    return IntervalFamily(np.concatenate(los), np.concatenate(his))


# Entries per edge matrix in bmo_norm: long intervals on a fine grid are taken
# a block of rows at a time, so memory stays bounded whatever the family.
_BMO_BLOCK = 1 << 18


def bmo_norm(f: GridFunction, family: IntervalFamily) -> float:
    """sup over the family of the mean oscillation (f zero outside its grid).

    Oscillation over I is (1/|I|) int_I |f - avg_I f|; on a step function
    this is an exact sum over cell fragments, partial cells included.  The
    intervals are taken as arrays, grouped by how many cell edges they
    cross, so that each group is one matrix; every row repeats the float
    operations of a single interval, and a row sum of a C-ordered matrix
    adds in the same order as the 1-d sum of that row.
    """
    lo, hi = family.lo, family.hi
    avg = f.mean_over(lo, hi)
    # cell edges x0 + i*h with i0 <= i <= i1 are the candidate cuts; the
    # clips only keep far-away endpoints inside int64
    i0 = np.clip(np.ceil((lo - f.x0) / f.h), 0, f.n + 1).astype(np.int64)
    i1 = np.clip(np.floor((hi - f.x0) / f.h), -1, f.n).astype(np.int64)
    count = np.maximum(i1 - i0 + 1, 0)
    best = 0.0
    for c in np.flatnonzero(np.bincount(count)):
        group = np.flatnonzero(count == c)
        step = max(_BMO_BLOCK // max(c, 1), 1)
        for k in range(0, group.size, step):
            best = max(best, _max_oscillation(f, lo, hi, avg, i0, group[k : k + step], c))
    return best


def _max_oscillation(f, lo, hi, avg, i0, rows, c) -> float:
    """Largest oscillation over the intervals `rows`, each with c candidate edges."""
    edges = f.x0 + f.h * (i0[rows, None] + np.arange(c))
    keep = (edges > lo[rows, None]) & (edges < hi[rows, None])
    kept = np.count_nonzero(keep, axis=1)
    best = 0.0
    for m in np.flatnonzero(np.bincount(kept)):
        sel = kept == m
        r = rows[sel]
        inner = edges[sel][keep[sel]].reshape(r.size, m)
        cuts = np.concatenate([lo[r, None], inner, hi[r, None]], axis=1)
        mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        lens = np.diff(cuts, axis=1)
        osc = np.sum(np.abs(f(mids) - avg[r, None]) * lens, axis=1) / (hi[r] - lo[r])
        best = max(best, float(np.max(osc)))
    return best


def atom_pattern(seed: int, cells: int = 32) -> tuple[np.ndarray, float]:
    """A seeded atom draw: mean-zero cell values and their peak |v|.

    The pattern does not depend on the interval, so a caller that needs one
    seed's atom at several scales draws it once and dilates it with
    dilate_atom: the atoms of one seed at different scales are dilates of
    each other.
    """
    if cells < 2:
        raise IntervalTooSmall("an atom needs at least two cells to have zero mean")
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=cells)
    v -= v.mean()
    v -= v.mean()  # second pass mops up the rounding residue of the first
    peak = np.max(np.abs(v))
    if peak == 0.0:
        raise ValueError("degenerate atom draw; change the seed")
    v.setflags(write=False)
    return v, peak


def dilate_atom(I: Interval, pattern: tuple[np.ndarray, float]) -> GridFunction:
    """The atom of an atom_pattern on I: mean zero, supported on I, and
    scaled to peak exactly 1/|I|."""
    v, peak = pattern
    return GridFunction(I.lo, I.length / v.size, v * (1.0 / (peak * I.length)))


# The parameters each family kind reads, the first one required; all take x0.
FAMILY_PARAMS = {
    "indicator": ("scales", "cells"),
    "haar": ("scales",),
    "bump": ("scales", "cells"),
    "random_step": ("count", "seed", "cells", "length"),
    "spike": ("epsilons",),
}
# Each member's cells when `cells` is unset, as haar and spike always leave it
_CELLS = {"indicator": 1, "haar": 2, "bump": 64, "random_step": 64, "spike": 1}


def _family_shape(kind: str, params: dict) -> tuple[int, int]:
    """How many members make_family builds from checked params, and the cells of each."""
    count = params["count"] if kind == "random_step" else len(params[FAMILY_PARAMS[kind][0]])
    return int(count), int(params.get("cells", _CELLS[kind]))


def family_size(kind: str, params: dict) -> int:
    """How many cells make_family's members would hold in all, from the same
    params and with its errors, counted without making an array."""
    check_family_params(kind, params)
    count, cells = _family_shape(kind, params)
    return count * cells


def _is_finite(v, above: float = -math.inf) -> bool:
    """A real number, not a bool, in (above, inf)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and above < v < math.inf


# What a config value must hold and its test, shared with harness's options
FINITE = ("a finite number", _is_finite)
POSITIVE = ("a positive finite number", lambda v: _is_finite(v, 0))
NATURAL = ("an integer >= 0", lambda v: _is_finite(v, -1) and v == int(v))
COUNT = ("a positive integer", lambda v: _is_finite(v, 0) and v == int(v))
_LENGTHS = ("a non-empty list of positive finite numbers",
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(_is_finite(e, 0) for e in v))

# What each family parameter must hold.
PARAM_CHECKS = {
    "x0": FINITE, "seed": NATURAL, "length": POSITIVE, "count": COUNT, "cells": COUNT,
    "scales": _LENGTHS, "epsilons": _LENGTHS,
}


def check_family_params(kind: str, params: dict) -> None:
    """Raise BadParams for an unknown kind, an unknown or missing parameter, or a value PARAM_CHECKS refuses."""
    if not isinstance(kind, str) or kind not in FAMILY_PARAMS:
        raise BadParams(f"unknown family kind {kind!r}")
    names = FAMILY_PARAMS[kind]
    unknown = set(params) - {"x0", *names}
    if unknown:
        raise BadParams(f"unknown {kind} family parameters: {sorted(unknown)}")
    if names[0] not in params:
        raise BadParams(f"{kind} family needs {names[0]!r}")
    for key, val in params.items():
        what, ok = PARAM_CHECKS[key]
        if not ok(val):
            raise BadParams(f"{kind} family parameter {key!r} must be {what}, got {val!r}")


def make_family(kind: str, params: dict) -> list[GridFunction]:
    """Deterministic test-function corpora.

    kinds and their params (all accept an optional left endpoint x0):
      indicator    scales, cells=1: lengths L -> unit-height indicators of [x0, x0+L)
      haar         scales: lengths L -> +1 then -1 over two half cells
      bump         scales, cells=64: lengths L -> raised cosine, peak 1
      random_step  count, seed, cells=64, length=1.0 -> uniform(-1,1) steps
      spike        epsilons: widths e -> (1/e) * indicator of [x0, x0+e)
    """
    check_family_params(kind, params)
    count, cells = _family_shape(kind, params)
    x0 = float(params.get("x0", 0.0))
    if kind == "indicator":
        return [GridFunction(x0, float(L) / cells, np.ones(cells)) for L in params["scales"]]
    if kind == "haar":
        return [GridFunction(x0, float(L) / 2.0, np.array([1.0, -1.0])) for L in params["scales"]]
    if kind == "bump":
        t = (np.arange(cells) + 0.5) / cells
        prof = 0.5 * (1.0 - np.cos(2.0 * np.pi * t))
        return [GridFunction(x0, float(L) / cells, prof) for L in params["scales"]]
    if kind == "random_step":
        seed = int(params.get("seed", 0))
        length = float(params.get("length", 1.0))
        rng = np.random.default_rng(seed)
        return [GridFunction(x0, length / cells, rng.uniform(-1.0, 1.0, size=cells)) for _ in range(count)]
    return [GridFunction(x0, float(e), np.array([1.0 / float(e)])) for e in params["epsilons"]]


# ---------------------------------------------------------------- CSV format

_HEADER = "x,value"
# Rows formatted per write: one string of this many rows, not of the file.
_CSV_ROWS = 1 << 14


def write_function_csv(f: GridFunction, path_or_buf) -> None:
    """CSV with a metadata comment line, then one row per cell left edge.

    Values carry 17 significant digits so the round trip is bit-exact for
    float64.  Each run of values with equal bits is formatted once: a
    one-row run in its row, a longer run once for all of its rows.  A flat
    stretch thus costs one `%.17g`, all-distinct values still cost one per
    row, and the bytes are those of formatting every row.
    """
    own = isinstance(path_or_buf, (str, bytes))
    buf = open(path_or_buf, "w", encoding="utf-8") if own else path_or_buf
    try:
        buf.write(f"# x0={f.x0:.17g} h={f.h:.17g} n={f.n}\n")
        buf.write(_HEADER + "\n")
        edges = f.x0 + f.h * np.arange(f.n)
        for lo in range(0, f.n, _CSV_ROWS):
            xc, vc = edges[lo : lo + _CSV_ROWS], f.values[lo : lo + _CSV_ROWS]
            # runs of equal bits: 0.0 and -0.0 compare equal but print apart
            bits = vc.view(np.int64)
            head = np.concatenate(([True], bits[1:] != bits[:-1]))
            alone = head & np.append(head[1:], True)
            shared = head & ~alone
            # a one-row run keeps its value's %.17g in the template; a longer
            # run's value is formatted once here and its text pasted into each
            # of its rows (%.17g never prints a '%')
            vals = vc[shared]
            text = np.array(("%.17g\n" * vals.size % tuple(vals.tolist())).split("\n"), dtype=object)
            text[-1] = "%.17g"  # the split's empty last slot, taken by one-row runs
            spec = text[np.where(alone, -1, np.cumsum(shared) - 1)]
            template = "%.17g," + "\n%.17g,".join(spec.tolist()) + "\n"
            keep = np.column_stack((np.ones(vc.size, dtype=bool), alone)).ravel()
            args = np.column_stack((xc, vc)).ravel()[keep]
            buf.write(template % tuple(args.tolist()))
    finally:
        if own:
            buf.close()


def read_function_csv(path_or_buf) -> GridFunction:
    own = isinstance(path_or_buf, (str, bytes))
    buf = open(path_or_buf, "r", encoding="utf-8") if own else path_or_buf
    try:
        meta = buf.readline().strip()
        if not meta.startswith("#"):
            raise ValueError("missing metadata comment line")
        fields = dict(tok.split("=", 1) for tok in meta[1:].split())
        missing = [k for k in ("x0", "h", "n") if k not in fields]
        if missing:
            raise ValueError(f"metadata line lacks {', '.join(k + '=' for k in missing)}")
        x0, h, n = float(fields["x0"]), float(fields["h"]), int(fields["n"])
        header = buf.readline().strip()
        if header != _HEADER:
            raise ValueError(f"expected header {_HEADER!r}, got {header!r}")
        rows = np.loadtxt(io.StringIO(buf.read()), delimiter=",", ndmin=2)
        if rows.shape[0] != n:
            raise ValueError(f"metadata says n={n} but file has {rows.shape[0]} rows")
        return GridFunction(x0, h, rows[:, 1])
    finally:
        if own:
            buf.close()
