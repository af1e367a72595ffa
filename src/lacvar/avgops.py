"""One-sided averaging operators and their truncated s-variation.

The window average is A_n f(x) = (1/n) * int_0^n f(x - t) dt, i.e. the mean
of f over [x - n, x].  For a step function this is exact arithmetic: the
fast path reads two values off the antiderivative, the oracle sums cell
overlaps directly.  The variation runs over a lacunary family of windows and
takes the ell^s norm of consecutive differences, folding one scale at a time
into a compensated sum; `scale_stack_at` keeps every level instead and is
the reference route the tests hold the fold to.  At each scale the fold
interpolates only where the window's left end lies in the support: left of
it the level is a plain quotient, and right of it the level and every
difference up to that scale are zero, so those points are skipped.  Right
of the support, where every window holds all of it or none of it, V_s f is
flat between consecutive shifted supports: it is folded at one point per
flat stretch and copied.  Points out of order are sorted once, so the
stretches are cut once by binary search over the whole input, and the
points left to fold are packed into full batches, each folded by one call.
`variations_at` folds several functions on one grid at once: the zones,
stretches and batches are found once for all of them, and each step of the
fold is one array operation over every row.  Their primitives come from one
table per call, which a set of points reads by one binary search and a
gather over every row, with primitive_at's arithmetic; one function is the
one-column table.  `variation_at` is the one-row case.

`variations` is the one driver that samples a family on an eval grid;
`variation` expands its one member to every midpoint, and
`vector_variations` folds the members it yields into the rho sums on their
runs.  A grid's midpoints are ascending by construction, so the order
check is skipped, and they are cut into runs once: a folded point, or a
flat stretch's first point with the points that copy it.  Each member is
folded only at the runs' first points, its representatives, and handed
out on the runs as a RunFunction, which lp_norm sums without expanding
it.  The members are folded several per call, in groups of about
grid.n // representatives, so a group's representatives never take more
than one array over the grid; on a grid with no flat stretch that is one
member.  variations_at and variations fold through one generator, which
packs each batch straight from the points given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction, GridMismatch, UniformGrid, require_same_grid
from .runs import GridRuns, RunFunction
from .lacunary import LacunarySeq

# Points per fold batch, over the number of functions folded together: the
# fold's scratch is a few arrays of this size.
_CHUNK = 1 << 14


class NonPositiveWindow(ValueError):
    pass


class TailTooLarge(RuntimeError):
    """Truncation tail bound exceeds the requested tolerance.

    `k_needed` estimates the truncation index that would satisfy it (the
    bound decays by at least beta per extra scale); None when the tolerance
    is non-positive and no index can help.
    """

    def __init__(self, tail: float, tol: float, k_needed: int | None):
        super().__init__(
            f"tail bound {tail:.6g} exceeds tolerance {tol:.6g}; "
            f"need truncation index ~{k_needed}"
        )
        self.tail = tail
        self.tol = tol
        self.k_needed = k_needed


@dataclass(frozen=True)
class VariationSpec:
    """Parameters of the truncated variation.

    s is the variation exponent (>= 1; the inequalities under test hold for
    s >= 2).  k_max is the truncation index: differences k = 1..k_max enter
    the sum.  The truncation error is controlled relative to the computed
    value: the analytic tail bound must stay below tail_tol times the sup
    of the result, unless enforce_tail is off.
    """

    s: float = 2.0
    k_max: int = 0
    tail_tol: float = 1e-8
    enforce_tail: bool = True

    def __post_init__(self):
        if not self.s >= 1.0:
            raise ValueError(f"variation exponent s must be >= 1, got {self.s!r}")
        if math.isinf(self.s):
            raise ValueError("variation exponent s = inf is not supported")
        if self.k_max < 1:
            raise ValueError(f"truncation index k_max must be >= 1, got {self.k_max!r}")
        if not self.tail_tol > 0.0:
            raise ValueError(f"tail_tol must be positive, got {self.tail_tol!r}")

    def check_seq(self, seq: LacunarySeq) -> None:
        if self.k_max > len(seq) - 1:
            raise ValueError(
                f"truncation index k_max={self.k_max} needs {self.k_max + 1} scales, "
                f"sequence has {len(seq)}"
            )


def averages_at(f: GridFunction, n: float, x) -> np.ndarray:
    """A_n f at arbitrary points (fast antiderivative path)."""
    if not n > 0.0:
        raise NonPositiveWindow(f"window must be positive, got {n!r}")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return (f.primitive_at(x) - f.primitive_at(x - n)) / n


def oracle_averages_at(f: GridFunction, n: float, x) -> np.ndarray:
    """A_n f by direct overlap summation over every cell; cross-check only.

    Deliberately avoids the antiderivative entirely so it stays an
    independent route; points are processed in bounded-memory batches.
    """
    if not n > 0.0:
        raise NonPositiveWindow(f"window must be positive, got {n!r}")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    lo_edges = f.x0 + f.h * np.arange(f.n)
    hi_edges = lo_edges + f.h
    out = np.empty(x.size, dtype=np.float64)
    step = max(1, (4 << 20) // max(f.n, 1))
    for start in range(0, x.size, step):
        xc = x[start : start + step, None]
        overlap = np.minimum(xc, hi_edges) - np.maximum(xc - n, lo_edges)
        np.clip(overlap, 0.0, None, out=overlap)
        out[start : start + step] = overlap @ f.values / n
    return out


def scale_stack_at(f: GridFunction, seq: LacunarySeq, k_max: int, x) -> np.ndarray:
    """A_{n_k} f for k = 0..k_max at x, all levels held at once: row k is scale k."""
    if k_max > len(seq) - 1:
        raise ValueError(f"k_max={k_max} exceeds sequence length {len(seq)} - 1")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    upper = f.primitive_at(x)
    levels = np.empty((k_max + 1, x.size), dtype=np.float64)
    for k, n in enumerate(seq.scales[: k_max + 1]):
        levels[k] = (upper - f.primitive_at(x - n)) / n
    return levels


def _fold_power(acc: np.ndarray, comp: np.ndarray, term: np.ndarray, s: float, big: np.ndarray) -> None:
    """acc += term**s, Neumaier-compensated into comp, all in place.

    term is overwritten and big is scratch of the same shape.  Every term
    is >= 0 and so is acc, so the larger magnitude is the larger value:
    max/min pick the same branch as comparing absolute values would.
    Folding terms in a fixed order with this compensation keeps results
    independent of how the points are split into batches.
    """
    term **= s
    np.maximum(acc, term, out=big)
    np.minimum(acc, term, out=term)
    np.add(big, term, out=acc)
    big -= acc
    big += term
    comp += big


def l1_norm(f: GridFunction) -> float:
    return float(np.sum(np.abs(f.values)) * f.h)


def tail_bound(f: GridFunction, seq: LacunarySeq, s: float, k_max: int) -> float:
    """Upper bound on the ell^s mass of the differences past index k_max.

    Two bounds are combined.  Both start from sup |A_n f| <= ||f||_1 / n and
    n_k >= n_K * beta^(k-K):

      * geometric-pair bound: |difference k| <= 2 ||f||_1 / n_k, summing to
        (2 ||f||_1 / n_K) * (beta^-s / (1 - beta^-s))^(1/s);
      * predecessor bound: |difference k| <= ||f||_1 / n_{k-1}, summing to
        (||f||_1 / n_K) * (1 / (1 - beta^-s))^(1/s).

    The max of the two is returned.  They coincide at beta = 2; for large
    beta the second is the sharper (and is the one that is always valid).
    """
    if k_max > len(seq) - 1:
        raise ValueError("k_max exceeds sequence length - 1")
    nk = seq.scales[k_max]
    m1 = l1_norm(f)
    if m1 == 0.0:
        return 0.0
    q = seq.beta ** (-s)
    pair = (2.0 * m1 / nk) * (q / (1.0 - q)) ** (1.0 / s)
    pred = (m1 / nk) * (1.0 / (1.0 - q)) ** (1.0 / s)
    return max(pair, pred)


def default_eval_grid(f: GridFunction, seq: LacunarySeq, k_max: int, h: float | None = None) -> UniformGrid:
    """Grid covering the support of f padded by n_{k_max} on the right.

    Everything V_s f can be nonzero on lives inside this window; past it
    every truncated average vanishes (only the analytic tail survives, and
    tail_bound accounts for that).
    """
    h = f.h if h is None else float(h)
    span = f.x1 + seq.scales[k_max] - f.x0
    n = int(np.ceil(span / h - 1e-9))
    return UniformGrid(f.x0, h, max(n, 1))


def _tail_gate(tail: float, sup_val: float, spec: VariationSpec, seq: LacunarySeq) -> None:
    tol = spec.tail_tol * sup_val
    if tail <= tol:
        return
    if tol > 0.0:
        k_needed = spec.k_max + max(1, math.ceil(math.log(tail / tol) / math.log(seq.beta)))
    else:
        k_needed = None
    raise TailTooLarge(tail, tol, k_needed)


def _zone_edges(f: GridFunction, scales: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per scale n, thresholds t_L < t_R on a point x: fl(x - n) < f.x0 when
    x < t_L, and fl(x - n) >= f.x1 when x >= t_R.

    Each threshold is fl(e + n) moved away by 4 ulps of e + n and of e,
    more than the rounding of fl(e + n), fl(x - n) and the move itself can
    take back, so the zones they give are never too wide.  When e + n
    overflows, the threshold comes out NaN and becomes -inf or +inf: no
    point is put in that zone.
    """
    n = np.asarray(scales)
    with np.errstate(over="ignore"):
        c0, c1 = f.x0 + n, f.x1 + n
        pad0 = 4.0 * (np.spacing(np.abs(c0)) + np.spacing(abs(f.x0)))
        pad1 = 4.0 * (np.spacing(np.abs(c1)) + np.spacing(abs(f.x1)))
        return np.fmax(c0 - pad0, -np.inf), np.fmin(c1 + pad1, np.inf)


def _flat_stretches(x1: float, below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The gaps [lo, hi) that (-inf, x1) and the windows [t_L, t_R) leave,
    as one ascending array lo_0, hi_0, lo_1, hi_1, ...

    A point x in a gap has x >= x1, so its upper primitive is the total
    integral, and at every scale it is in zone L or zone R: each gap is one
    flat stretch of V_s f, and any point in it stands for all of them.
    """
    bounds = []
    end = x1
    for a, b in sorted(zip(below.tolist(), above.tolist())):
        if a > end:
            bounds += [end, a]
        if b > end:
            end = b
    if end < math.inf:
        bounds += [end, math.inf]
    return np.array(bounds)


class _Table:
    """The primitives of the functions on one grid, as one table with a
    column per function; one function is the one-column case.

    Row j < n holds the edge e_j, each function's S(e_j) and its slope
    (S(e_{j+1}) - S(e_j)) / (e_{j+1} - e_j); row n holds e_n, S(e_n) and
    slope 0.  A point v, clipped to [e_0, e_n], finds its row j by one
    binary search over e_1..e_n and takes slope * (v - e_j) + S(e_j) in
    every column at once.  For finite S that is primitive_at's arithmetic: its
    slope, its sum, 0 left of the grid (slope * 0 + S(e_0) at e_0) and
    S(e_n) at or past the last edge.  Only the sign of a zero can differ,
    and the fold takes absolute values.
    """

    def __init__(self, fs: list[GridFunction]):
        edges = fs[0].primitive_table[0]
        self.edges, self.inner, self.lo, self.hi = edges, edges[1:], float(edges[0]), float(edges[-1])
        self.base = np.stack([f.primitive_table[1] for f in fs], axis=1)
        self.slope = np.zeros_like(self.base)
        # np.diff's arithmetic without its call overhead, which one column notices
        np.divide(self.base[1:] - self.base[:-1], (edges[1:] - edges[:-1])[:, None], out=self.slope[:-1])
        self.count = len(fs)

    def fill(self, v: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out = S(v), one column per function; scratch, shaped like out, is overwritten."""
        # array methods, not the np.* wrappers: this runs at every scale
        t = v.clip(self.lo, self.hi)
        j = self.inner.searchsorted(t, side="right")
        t -= self.edges[j]
        # the gathers write into the caller's scratch, not into new arrays
        self.slope.take(j, axis=0, out=out, mode="clip")
        out *= t[:, None]
        self.base.take(j, axis=0, out=scratch, mode="clip")
        out += scratch


def _fold(table: _Table, scales, s: float, x: np.ndarray, below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """V_s f at ascending x, one column per function of table; zones L = x < below[k] and R = x >= above[k].

    The buffers hold one row per point, so a prefix of points is one
    contiguous block for every op, whatever the number of functions.
    """
    ends_l = np.searchsorted(x, below).tolist()
    starts_r = np.searchsorted(x, above).tolist()
    shape = (x.size, table.count)
    upper = np.empty(shape)
    shifted = np.empty_like(x)
    level = np.zeros(shape)
    prev = np.zeros(shape)
    acc = np.zeros(shape)
    comp = np.zeros(shape)
    big = np.empty(shape)
    table.fill(x, upper, big)
    for k, (n, a, b) in enumerate(zip(scales, ends_l, starts_r)):
        if a:
            # (upper - 0.0) / n is upper / n bit for bit
            np.divide(upper[:a], n, out=level[:a])
        if a < b:
            # upper - lower goes in big, which is scratch until the fold;
            # level is scratch here until the divide writes it
            np.subtract(x[a:b], n, out=shifted[a:b])
            table.fill(shifted[a:b], big[a:b], level[a:b])
            np.subtract(upper[a:b], big[a:b], out=big[a:b])
            np.divide(big[a:b], n, out=level[a:b])
        if k and b:
            # a point past b is in R here and at every smaller scale:
            # whatever the buffers took there came out +0.0, its term
            # would be |0 - 0|**s = 0, and folding a zero leaves acc and
            # comp bit-unchanged
            diff = prev[:b]
            np.subtract(level[:b], diff, out=diff)
            np.abs(diff, out=diff)
            _fold_power(acc[:b], comp[:b], diff, s, big[:b])
        level, prev = prev, level
    acc += comp
    acc **= 1.0 / s
    return acc


def _batches(spans: list[tuple[int, int]], size: int):
    """The spans [a, b) in order, cut into batches of up to size points.

    A span may be split across batches, and several spans may share one.
    """
    batch, room = [], size
    for a, b in spans:
        while a < b:
            take = min(b - a, room)
            batch.append((a, a + take))
            a += take
            room -= take
            if not room:
                yield batch
                batch, room = [], size
    if batch:
        yield batch


def _runs(f: GridFunction, below: np.ndarray, above: np.ndarray, x: np.ndarray):
    """Ascending, NaN-free x cut at f's flat stretches: the spans [a, b) to
    fold point by point, and the copied spans [a + 1, b), each repeating
    the folded point a before it, both in order."""
    cuts = np.searchsorted(x, _flat_stretches(f.x1, below, above)).tolist()
    copied = [(a + 1, b) for a, b in zip(cuts[::2], cuts[1::2]) if b - a > 1]
    ends = [0, *(i for ab in copied for i in ab), x.size]
    return [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b], copied


def _folded(fs: list[GridFunction], scales, s: float, x: np.ndarray, spans, below: np.ndarray, above: np.ndarray):
    """V_s f for each f of fs at the points of ascending x in spans, in order.

    The points are packed into full batches of _CHUNK // len(fs), each
    folded by one call, and every call reads the one primitive table built
    here.  Yields each batch's spans and its values, one column per f.
    """
    table = _Table(fs)
    for batch in _batches(spans, max(1, _CHUNK // len(fs))):
        yield batch, _fold(table, scales, s, np.concatenate([x[a:b] for a, b in batch]), below, above)


def _ascending(x: np.ndarray) -> bool:
    """x is ascending and NaN-free, checked a chunk at a time.

    A lone NaN passes the pairwise test, so each window's first point is
    tested alone.
    """
    windows = (x[lo : lo + _CHUNK + 1] for lo in range(0, x.size, _CHUNK))
    return all(w[0] == w[0] and np.all(w[1:] >= w[:-1]) for w in windows)


def _gate(f: GridFunction, row: np.ndarray, seq: LacunarySeq, spec: VariationSpec) -> None:
    """Hold V_s f to the tail gate when spec.enforce_tail is on; row holds
    its values at points that include one where it is largest."""
    if spec.enforce_tail:
        _tail_gate(tail_bound(f, seq, spec.s, spec.k_max), float(np.max(row, initial=0.0)), spec, seq)


def _check_family(fs: list[GridFunction], seq: LacunarySeq, spec: VariationSpec) -> None:
    if not fs:
        raise ValueError("need at least one function")
    for g in fs[1:]:
        require_same_grid(fs[0], g)
    spec.check_seq(seq)


def _gated_variations(fs: list[GridFunction], seq: LacunarySeq, spec: VariationSpec, x: np.ndarray) -> np.ndarray:
    """variations_at at ascending x where NaN may only come last and gives NaN, unchecked.

    When spec.enforce_tail is on, each row is held to the tail gate in turn.
    """
    scales = seq.scales[: spec.k_max + 1]
    vals = np.empty((len(fs), x.size), dtype=np.float64)
    m = int(np.searchsorted(x, np.nan))
    vals[:, m:] = np.nan
    # the functions share a grid, so they share the zones and the stretches;
    # the spans between the copied stretches are folded
    below, above = _zone_edges(fs[0], scales)
    spans, copied = _runs(fs[0], below, above, x[:m])
    for batch, res in _folded(fs, scales, spec.s, x, spans, below, above):
        at = 0
        for a, b in batch:
            vals[:, a:b] = res[at : at + b - a].T
            at += b - a
    for a, b in copied:
        vals[:, a:b] = vals[:, a - 1 : a]
    for f, row in zip(fs, vals):
        _gate(f, row, seq, spec)
    return vals


def variations_at(fs: list[GridFunction], seq: LacunarySeq, spec: VariationSpec, x) -> np.ndarray:
    """V_s f for each f of fs at arbitrary points: row i is V_s fs[i].

    The functions must share one grid (GridMismatch otherwise).  Everything
    that depends only on the grid and the points is done once for all of
    them: the order check, the zone edges, the flat stretches and the fold
    batches.  Each elementwise step of the fold is one call over every row.
    The primitives, of one function or of several, are read from one table
    built per call from each function's primitive_table (see _Table): at
    each scale one binary search finds the cells of a batch's points and
    gathers give every function's value there, with primitive_at's bits up to
    the sign of a zero.

    Input out of order or holding NaN is sorted by one stable argsort and
    the result scattered back; NaN sorts last and gives NaN.  Right of the
    support, the points that are in L or R (below) at every scale and lie
    between the same two windows run the same float operations: each such
    flat stretch is cut once over the whole input, folds its first point
    and copies that value to the rest.  The points left to fold are packed
    in order into batches of _CHUNK // len(fs); a span between stretches
    may be split across batches and several may share one.  Each scale is
    folded into a batch's running sums as soon as its levels are known, so
    the scratch memory is O(_CHUNK) whatever the number of scales and
    functions: only the result, and for input out of order the sort, grow
    with len(x).

    At scale n a batch falls into three zones, found on v = fl(x - n) by
    binary search: L, a prefix with v < x0, where the lower primitive is
    0 and the level is upper / n; M, where the primitive interpolates; R, a
    suffix with v >= x1, where the level is 0 at this scale and every
    smaller one, so the difference and the fold are skipped there.  The
    fold is elementwise, so a point gets the same bits for every split,
    order and batch.

    When spec.enforce_tail is on, each row is held to the tail gate in
    turn, and the first that fails raises TailTooLarge.
    """
    _check_family(fs, seq, spec)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if _ascending(x):
        return _gated_variations(fs, seq, spec, x)
    order = np.argsort(x, kind="stable")
    got = _gated_variations(fs, seq, spec, x[order])  # the sorted copy is freed here
    vals = np.empty_like(got)
    vals[:, order] = got
    return vals


def variation_at(f: GridFunction, seq: LacunarySeq, spec: VariationSpec, x) -> np.ndarray:
    """V_s f at arbitrary points: (sum_{k=1..k_max} |A_{n_k}f - A_{n_{k-1}}f|^s)^(1/s).

    The one-row case of variations_at, which describes the kernel.
    """
    return variations_at([f], seq, spec, x)[0]


def variation(
    f: GridFunction,
    seq: LacunarySeq,
    spec: VariationSpec,
    eval_grid: UniformGrid | None = None,
) -> GridFunction:
    """V_s f sampled at eval-grid midpoints (default grid: support + right pad).

    The one-member case of variations, expanded to every midpoint.
    """
    spec.check_seq(seq)
    if eval_grid is None:
        eval_grid = default_eval_grid(f, seq, spec.k_max)
    return next(variations([f], seq, spec, eval_grid)).on_grid()


def variations(fs: list[GridFunction], seq: LacunarySeq, spec: VariationSpec, eval_grid: UniformGrid):
    """V_s f for each f of fs sampled at eval_grid's midpoints: an iterator
    of one RunFunction per f, in order, on one GridRuns of the grid.

    The functions must share one grid; that and the sequence's length are
    checked here, before anything is folded.  The midpoints are cut into
    runs once: a folded point, or a flat stretch's first point with the
    points that copy it.  V_s f is folded only at the runs' first points,
    the representatives, several members per kernel call: in groups of
    grid.n // representatives members, _CHUNK // len(group) points per
    call, so that a group's representatives take at most one V_s array of
    the grid, packed from the midpoints a batch at a time as variations_at
    packs its points.  A group is folded when its first member is reached,
    into one read-only array whose rows the members take; beyond the
    member in hand only that group is held.  A member's on_grid() has the
    bits of variations_at([f], seq, spec, eval_grid.midpoints), and with
    spec.enforce_tail each member is held to the tail gate, on its
    representatives, as it is reached.  The members share their GridRuns,
    so lp_norm builds its sum plan once for all of them.
    """
    _check_family(fs, seq, spec)
    scales = seq.scales[: spec.k_max + 1]
    x = eval_grid.midpoints
    below, above = _zone_edges(fs[0], scales)
    spans = _runs(fs[0], below, above, x)[0]
    runs = GridRuns(eval_grid, np.diff(np.concatenate([np.arange(a, b) for a, b in spans]), append=x.size))
    reps = runs.counts.size

    def members():
        size = x.size // reps  # at least 1: every run holds a point
        for lo in range(0, len(fs), size):
            group = fs[lo : lo + size]
            vals, at = np.empty((len(group), reps)), 0
            for _, res in _folded(group, scales, spec.s, x, spans, below, above):
                vals[:, at : at + len(res)] = res.T
                at += len(res)
            vals.setflags(write=False)
            for f, row in zip(group, vals):
                _gate(f, row, seq, spec)
                yield RunFunction(runs, row)

    return members()


def vector_variations(
    fs: list[GridFunction],
    seq: LacunarySeq,
    spec: VariationSpec,
    rhos: tuple[float, ...],
    eval_grid: UniformGrid | None = None,
) -> list[RunFunction]:
    """Pointwise ell^rho aggregates (sum_j (V_s f_j)^rho)^(1/rho), one
    RunFunction per rho, on the GridRuns of the members that `variations`
    yields on the eval grid.

    Each V_s f_j is computed once, on its runs, and folded into every rho's
    sum there, _CHUNK points at a time through scratch copies.  So the sums
    take 2 len(rhos) arrays of the representatives' size, and beyond them
    one group of representatives and O(_CHUNK) scratch are held; nothing
    is expanded to the grid.
    """
    for rho in rhos:
        if not rho > 1.0:
            raise ValueError(f"aggregation exponent must exceed 1, got {rho!r}")
    if eval_grid is None:
        _check_family(fs, seq, spec)  # before the default grid reads fs[0] and scale k_max
        eval_grid = default_eval_grid(fs[0], seq, spec.k_max)
    sums, term, big = [], np.empty(_CHUNK), np.empty(_CHUNK)
    for v in variations(fs, seq, spec, eval_grid):
        r = v.run_values.size
        sums = sums or [(np.zeros(r), np.zeros(r)) for _ in rhos]
        for lo in range(0, r, _CHUNK):
            n = min(_CHUNK, r - lo)
            for rho, (acc, comp) in zip(rhos, sums):
                np.copyto(term[:n], v.run_values[lo : lo + n])
                _fold_power(acc[lo : lo + n], comp[lo : lo + n], term[:n], rho, big[:n])
    out = []
    for rho in rhos:
        acc, comp = sums.pop(0)  # each sum is freed once its result is made
        acc += comp
        acc **= 1.0 / rho
        acc.setflags(write=False)
        out.append(RunFunction(v.runs, acc))
    return out


def vector_variation(
    fs: list[GridFunction],
    seq: LacunarySeq,
    spec: VariationSpec,
    rho: float,
    eval_grid: UniformGrid | None = None,
) -> GridFunction:
    """Pointwise ell^rho aggregate (sum_j (V_s f_j)^rho)^(1/rho) at every midpoint."""
    return vector_variations(fs, seq, spec, (rho,), eval_grid)[0].on_grid()
