import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lacvar import gridfn, runs
from lacvar.gridfn import atom_pattern, dilate_atom
from lacvar import (
    Atom,
    BadParams,
    EmptyFamily,
    GridFunction,
    GridMismatch,
    Interval,
    IntervalFamily,
    IntervalTooSmall,
    UniformGrid,
    bmo_norm,
    lp_norm,
    make_atom,
    make_dyadic_family,
    make_family,
    read_function_csv,
    sup_norm,
    superlevel_measure,
    write_function_csv,
)


def test_grid_edges_and_midpoints():
    g = UniformGrid(1.0, 0.5, 3)
    assert np.array_equal(g.edges, [1.0, 1.5, 2.0, 2.5])
    assert np.array_equal(g.midpoints, [1.25, 1.75, 2.25])
    assert g.x1 == 2.5


def test_grid_rejects_bad_params():
    with pytest.raises(ValueError):
        UniformGrid(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        UniformGrid(0.0, 1.0, 0)


def test_function_is_right_open_and_zero_extended():
    f = GridFunction(0.0, 1.0, [2.0, 3.0])
    assert f(np.array([-0.5, 0.0, 0.999, 1.0, 1.999, 2.0, 5.0])).tolist() == [
        0.0, 2.0, 2.0, 3.0, 3.0, 0.0, 0.0,
    ]


def test_function_values_are_read_only():
    f = GridFunction(0.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0


def test_function_keeps_a_read_only_array_and_copies_anything_else():
    mine = np.array([1.0, 2.0, 3.0])
    f = GridFunction(0.0, 1.0, mine)
    mine[0] = 9.0
    assert f.values.tolist() == [1.0, 2.0, 3.0]
    # a read-only view of a writeable array could still change: copied too
    view = mine.view()
    view.setflags(write=False)
    g = GridFunction(0.0, 1.0, view)
    mine[1] = 9.0
    assert g.values.tolist() == [9.0, 2.0, 3.0]
    frozen = np.array([4.0, 5.0])
    frozen.setflags(write=False)
    assert GridFunction(0.0, 1.0, frozen).values is frozen
    assert GridFunction(0.0, 1.0, frozen[1:]).values.base is frozen
    # kept or copied, the shape and finite checks still run
    for bad in (np.ones((2, 2)), np.array([1.0, np.nan]), np.array([np.inf])):
        kept = bad.copy()
        kept.setflags(write=False)
        for arr in (bad, kept):
            with pytest.raises(ValueError):
                GridFunction(0.0, 1.0, arr)


def test_grid_midpoints_are_built_once_and_read_only():
    g = UniformGrid(-0.3, 0.07, 1000)
    mids = g.midpoints
    assert g.midpoints is mids
    assert not mids.flags.writeable
    assert mids.tobytes() == (-0.3 + 0.07 * (np.arange(1000) + 0.5)).tobytes()


def test_integral_handles_partial_cells():
    f = GridFunction(0.0, 1.0, [2.0, 4.0])
    assert f.integral(0.5, 1.5) == pytest.approx(1.0 + 2.0)
    assert f.integral(-3.0, 0.5) == pytest.approx(1.0)
    assert f.integral(1.5, 10.0) == pytest.approx(2.0)


def test_lp_norm_hand_value():
    f = GridFunction(0.0, 0.5, [1.0, 2.0, 3.0])
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(0.5 * 14.0))
    assert lp_norm(f, 1.0) == pytest.approx(3.0)
    assert sup_norm(f) == 3.0


def test_lp_norm_weighted_hand_value():
    f = GridFunction(0.0, 0.5, [1.0, 2.0, 3.0])
    w = GridFunction(0.0, 0.5, [1.0, 1.0, 2.0])
    # int |f|^2 w = 0.5 * (1 + 4 + 18) = 11.5
    assert lp_norm(f, 2.0, w) == pytest.approx(math.sqrt(11.5))


def _whole_array_lp_norm(f, p, w=None) -> float:
    """lp_norm as one whole-array temporary and one np.sum: the oracle of
    the leaves."""
    cell = np.abs(f.values) ** p * f.h
    if w is not None:
        cell = cell * (w.values if isinstance(w, GridFunction) else np.asarray(w, dtype=np.float64))
    return float(np.sum(cell) ** (1.0 / p))


def _assert_lp_norm_is_oracle(values, weights):
    f = GridFunction(-0.5, 1.0 / 64, values)
    for p in (1.0, 1.5, 2.0, 3.0, 7.25):
        for w in (None, weights, GridFunction(f.x0, f.h, weights)):
            got, want = lp_norm(f, p, w), _whole_array_lp_norm(f, p, w)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (f.n, p)


_LEAF = 1 << 14


@pytest.mark.parametrize(
    "n", [1, 7, 8, 129, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 8, 3 * _LEAF + 5, 131200, 300007]
)
def test_lp_norm_keeps_the_bits_of_one_whole_array_sum(n):
    # the sum has the bits of np.sum over the whole cell array, at every
    # size and exponent, and so does the sum of the same cells on runs of
    # 1 to 300 of them, to grids past the sizes of the hypothesis test below
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    _assert_lp_norm_is_oracle(values, rng.uniform(0.1, 5.0, n))
    counts = _run_lengths(n, "short runs", rng)
    f = runs.RunFunction(runs.GridRuns(UniformGrid(-0.5, 1.0 / 64, n), counts), values[: counts.size])
    for p in (1.0, 2.0, 7.25):
        want = _whole_array_lp_norm(f.on_grid(), p)
        assert np.float64(lp_norm(f, p)).tobytes() == np.float64(want).tobytes(), (n, p)


def _run_lengths(n: int, layout: str, rng) -> np.ndarray:
    """Run lengths that tile n cells: all one cell, one run, short runs of
    1 to 300 cells, or V_s f's shape, a stretch of single cells between
    long flat runs."""
    if layout == "singletons":
        return np.ones(n, dtype=np.intp)
    if layout == "one run":
        return np.array([n])
    if layout == "short runs":
        ends = np.cumsum(rng.integers(1, 301, size=n))
        return np.diff([0, *ends[ends < n].tolist(), n])
    cuts = set(rng.integers(1, n, size=int(rng.integers(0, 40))).tolist()) if n > 1 else set()
    lo = int(rng.integers(0, n))
    cuts |= set(range(lo, min(n, lo + int(rng.integers(0, 3000)))))  # the folded stretch
    return np.diff([0, *sorted(cuts - {0}), n])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 2**15)),
    st.sampled_from(["singletons", "one run", "short runs", "mixed"]),
    st.integers(0, 2**32 - 1),
)
@example(5, "mixed", 0)
@example(128, "one run", 1)
@example(129, "mixed", 2)
@example(1000, "singletons", 3)
@example(2**15, "mixed", 4)
@example(2**15 - 3, "one run", 5)
@example(5000, "short runs", 6)
def test_run_lp_norm_keeps_the_bits_of_the_expansion(n, layout, seed):
    # the sum on the runs follows numpy's pairwise tree, so it has the bits
    # of lp_norm over the np.repeat expansion and of one np.sum over the
    # whole cell array: a numpy whose pairwise rule moves fails here.  The
    # plan is also held to np.sum alone, where GridRuns would not use it
    # (one cell per run)
    rng = np.random.default_rng(seed)
    counts = _run_lengths(n, layout, rng)
    assert counts.sum() == n and counts.min() >= 1
    on = runs.GridRuns(UniformGrid(-0.5, float(rng.uniform(1e-3, 2.0)), n), counts)
    vals = rng.standard_normal(counts.size) * 10.0 ** rng.uniform(-3.0, 3.0, counts.size)
    vals[rng.random(counts.size) < 0.05] = 0.0
    f = runs.RunFunction(on, vals)
    cells = f.on_grid()
    assert np.repeat(vals, counts).tobytes() == cells.values.tobytes()
    for p in (1.0, 2.0, 2.5, 7.0):
        got = np.float64(lp_norm(f, p)).tobytes()
        assert got == np.float64(lp_norm(cells, p)).tobytes() == np.float64(_whole_array_lp_norm(cells, p)).tobytes()
        cell = np.abs(vals) ** p * on.grid.h
        assert runs._SumPlan(counts).sum(cell).tobytes() == np.sum(np.repeat(cell, counts)).tobytes()
    assert lp_norm(f, math.inf) == sup_norm(cells)


def test_run_function_expands_read_only_without_a_copy():
    grid = UniformGrid(0.0, 0.5, 4)
    with pytest.raises(ValueError, match="tile"):
        runs.GridRuns(grid, [2, 1])
    with pytest.raises(ValueError, match="tile"):
        runs.GridRuns(grid, [0, 4])
    on = runs.GridRuns(grid, [1, 3])
    with pytest.raises(ValueError, match="one value per run"):
        runs.RunFunction(on, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):  # as GridFunction refuses them
        runs.RunFunction(on, [1.0, np.nan])
    f = runs.RunFunction(on, [1.0, -2.0])
    assert not f.run_values.flags.writeable and not on.counts.flags.writeable
    g = f.on_grid()
    assert (g.x0, g.h, g.n) == (0.0, 0.5, 4) and g.values.tolist() == [1.0, -2.0, -2.0, -2.0]
    assert not g.values.flags.writeable
    # with one cell per run the run values are the grid's, handed over as they are
    one = runs.RunFunction(runs.GridRuns(grid, np.ones(4)), np.arange(4.0))
    assert one.on_grid().values is one.run_values
    # a weight needs every cell: the weighted norm is taken on the expansion
    w = GridFunction(0.0, 0.5, [1.0, 2.0, 0.5, 4.0])
    assert lp_norm(f, 2.0, w) == lp_norm(g, 2.0, w)


def test_lp_norm_weight_grid_mismatch():
    f = GridFunction(0.0, 0.5, [1.0, 2.0])
    w = GridFunction(0.0, 0.25, [1.0, 1.0])
    with pytest.raises(GridMismatch):
        lp_norm(f, 2.0, w)
    with pytest.raises(GridMismatch):
        lp_norm(f, 2.0, np.ones(3))


def test_superlevel_measure_hand_value():
    f = GridFunction(0.0, 1.0, [0.2, 0.7, 1.3])
    assert superlevel_measure(f, 0.5) == 2.0
    assert superlevel_measure(f, 0.7) == 1.0  # strict inequality
    assert superlevel_measure(f, 2.0) == 0.0


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=30),
    st.floats(min_value=-6, max_value=6),
    st.floats(min_value=0, max_value=3),
)
def test_superlevel_monotone_in_lambda(vals, lam, bump):
    f = GridFunction(0.0, 0.25, vals)
    assert superlevel_measure(f, lam + bump) <= superlevel_measure(f, lam)


@given(
    st.lists(st.integers(-8000, 8000), min_size=1, max_size=40),
    st.lists(st.integers(-8000, 8000), min_size=1, max_size=40),
    st.floats(min_value=1.0, max_value=8.0),
)
def test_lp_triangle_and_homogeneity(a, b, p):
    n = min(len(a), len(b))
    av = np.asarray(a[:n], dtype=np.float64) * 0.125
    bv = np.asarray(b[:n], dtype=np.float64) * 0.125
    f = GridFunction(0.0, 0.5, av)
    g = GridFunction(0.0, 0.5, bv)
    fg = GridFunction(0.0, 0.5, av + bv)
    assert lp_norm(fg, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-9
    cf = GridFunction(0.0, 0.5, 3.5 * av)
    assert lp_norm(cf, p) == pytest.approx(3.5 * lp_norm(f, p), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- families


def test_dyadic_family_counts_on_unit_pair():
    fam = make_dyadic_family(Interval(0.0, 2.0), 0.5)
    lens = sorted((fam.hi - fam.lo).tolist())
    assert lens == [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0]
    assert fam.lo.min() >= 0.0 and fam.hi.max() <= 2.0


def test_dyadic_family_shifts_add_intervals():
    plain = make_dyadic_family(Interval(0.0, 2.0), 0.5)
    shifted = make_dyadic_family(Interval(0.0, 2.0), 0.5, shifts=(0.0, 0.5))
    assert len(shifted) > len(plain)
    assert set(zip(plain.lo, plain.hi)).issubset(set(zip(shifted.lo, shifted.hi)))


def test_dyadic_family_margin_and_outside():
    fam = make_dyadic_family(Interval(0.0, 1.0), 1.0, margin=1.0, inside_only=False)
    assert np.any(fam.lo < 0.0)


def test_dyadic_family_empty_raises():
    with pytest.raises(EmptyFamily):
        make_dyadic_family(Interval(0.0, 1.0), 4.0)


def test_dyadic_family_refused_past_the_interval_cap(monkeypatch):
    # levels 1, 1/2 and 1/4 of [0, 1) make 2 + 3 + 5 candidates, 7 kept
    monkeypatch.setattr(gridfn, "_MAX_INTERVALS", 10)
    assert len(make_dyadic_family(Interval(0.0, 1.0), 0.25)) == 7
    monkeypatch.setattr(gridfn, "_MAX_INTERVALS", 9)
    with pytest.raises(ValueError, match="more than 9 intervals"):
        make_dyadic_family(Interval(0.0, 1.0), 0.25)


def oracle_dyadic_family(domain, min_len, *, margin=0.0, shifts=(0.0,), inside_only=True):
    """One Interval per member in a triple loop: the build make_dyadic_family replaced."""
    lo, hi = domain.lo - margin, domain.hi + margin
    if not min_len > 0.0:
        raise ValueError("min_len must be positive")
    m_top = int(np.floor(np.log2(hi - lo) + 1e-12))
    m_bot = int(np.ceil(np.log2(min_len) - 1e-12))
    if m_top < m_bot:
        raise EmptyFamily("no dyadic level fits between min_len and the domain length")
    out = []
    for m in range(m_top, m_bot - 1, -1):
        ln = 2.0**m
        for frac in shifts:
            off = frac * ln
            j0 = int(np.floor((lo - off) / ln))
            j1 = int(np.ceil((hi - off) / ln))
            for j in range(j0, j1 + 1):
                a = j * ln + off
                b = a + ln
                if b <= lo or a >= hi:
                    continue
                if inside_only and (a < lo or b > hi):
                    continue
                out.append(Interval(a, b))
    if not out:
        raise EmptyFamily("family came out empty; widen the domain or shrink min_len")
    return IntervalFamily([I.lo for I in out], [I.hi for I in out])


def _endpoints_or_error(build, *args, **kwargs):
    try:
        fam = build(*args, **kwargs)
    except ValueError as exc:
        return type(exc)
    return fam.lo.tobytes(), fam.hi.tobytes()


@given(
    x0=st.floats(-5.0, 5.0),
    length=st.floats(0.01, 10.0),
    levels=st.integers(-2, 7),
    margin=st.sampled_from([0.0, 0.5, 1.0]),
    shifts=st.sampled_from([(0.0,), (0.0, 0.5), (0.0, 1.0 / 3.0, 0.25)]),
    inside_only=st.booleans(),
)
def test_dyadic_family_matches_loop_oracle_exactly(x0, length, levels, margin, shifts, inside_only):
    # margin is 0, L/2 or L; min_len sits `levels` halvings below the
    # domain length, so low or negative counts leave no dyadic level to build
    domain = Interval(x0, x0 + length)
    kwargs = dict(margin=margin * length, shifts=shifts, inside_only=inside_only)
    min_len = length / 2.0**levels
    want = _endpoints_or_error(oracle_dyadic_family, domain, min_len, **kwargs)
    assert _endpoints_or_error(make_dyadic_family, domain, min_len, **kwargs) == want


def test_interval_family_checks_its_arrays():
    with pytest.raises(EmptyFamily):
        IntervalFamily([], [])
    with pytest.raises(ValueError, match="one length"):
        IntervalFamily([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="1-d"):
        IntervalFamily([[0.0]], [[1.0]])
    with pytest.raises(ValueError, match=r"empty interval \[2.0, 2.0\)"):
        IntervalFamily([0.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"empty interval \[3.0, 1.0\)"):
        IntervalFamily([0.0, 3.0], [1.0, 1.0])
    lo = np.array([0.0, 1.0])
    fam = IntervalFamily(lo, [1.0, 2.0])
    assert len(fam) == 2
    lo[0] = 0.5  # the family keeps its own copy
    assert fam.lo[0] == 0.0
    for arr in (fam.lo, fam.hi):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 9.0


@given(
    cells=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    x0=st.floats(-2.0, 2.0),
    h=st.floats(0.01, 1.0),
)
def test_primitive_at_matches_clipped_overlap_sum(cells, seed, x0, h):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=cells)
    f = GridFunction(x0, h, v)
    lo = x0 + h * np.arange(cells)
    hi = lo + h
    x = np.concatenate([
        [x0 - 1.0, x0 - 0.5 * h],             # left of the grid
        f.grid.edges,                          # on cell edges
        x0 + h * cells * rng.uniform(size=8),  # inside cells
        [f.x1 + 0.5 * h, f.x1 + 3.0],          # right of the grid
    ])
    got = f.primitive_at(x)
    want = np.array([np.sum(np.clip(np.minimum(t, hi) - lo, 0.0, h) * v) for t in x])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(v)) * h
    # the second call reads the cached table and must not change a bit
    assert f.primitive_at(x).tobytes() == got.tobytes()


def oracle_bmo_norm(f: GridFunction, family) -> float:
    """Interval-by-interval mean oscillation: the loop bmo_norm replaced.

    It repeats the float operations of the array version one interval at a
    time, so the two must agree bit for bit.
    """
    s_hi = f.primitive_at(family.hi)
    s_lo = f.primitive_at(family.lo)
    best = 0.0
    for lo, hi, a, b in zip(family.lo, family.hi, s_lo, s_hi):
        avg = (b - a) / (hi - lo)
        i0 = max(int(np.ceil((lo - f.x0) / f.h)), 0)
        i1 = min(int(np.floor((hi - f.x0) / f.h)), f.n)
        inner = f.x0 + f.h * np.arange(i0, i1 + 1)
        inner = inner[(inner > lo) & (inner < hi)]
        cuts = np.concatenate([[lo], inner, [hi]])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        lens = np.diff(cuts)
        osc = float(np.sum(np.abs(f(mids) - avg) * lens)) / (hi - lo)
        best = max(best, osc)
    return best


def _mixed_family(f: GridFunction, rng, margin: float, shift: float, depth: int):
    """Dyadic with margin, a shifted lattice, cell-cutting, outside and one-cell intervals."""
    L = f.x1 - f.x0
    fam = make_dyadic_family(
        Interval(f.x0, f.x1), (1.0 + 2.0 * margin) * L / 2.0**depth, margin=margin * L,
        shifts=(0.0, shift), inside_only=False,
    )
    ends = np.sort(rng.uniform(f.x0 - L, f.x1 + L, size=(12, 2)), axis=1)
    cutting = ends[ends[:, 1] > ends[:, 0]]
    gap, width = rng.uniform(0.01, 2.0, size=2) * L
    cells = rng.integers(0, f.n, size=3)
    return IntervalFamily(
        np.concatenate([fam.lo, cutting[:, 0], [f.x1 + gap, f.x0 - gap - width], f.x0 + f.h * cells]),
        np.concatenate([fam.hi, cutting[:, 1], [f.x1 + gap + width, f.x0 - gap], f.x0 + f.h * (cells + 1)]),
    )


@given(
    cells=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    x0=st.floats(-3.0, 3.0),
    h=st.floats(0.005, 1.0),
    margin=st.sampled_from([0.0, 0.5, 1.0]),
    shift=st.sampled_from([0.0, 0.25, 0.5, 1.0 / 3.0]),
    depth=st.integers(1, 8),
)
def test_bmo_norm_matches_oracle_exactly(cells, seed, x0, h, margin, shift, depth):
    rng = np.random.default_rng(seed)
    f = GridFunction(x0, h, rng.uniform(-1.0, 1.0, size=cells))
    fam = _mixed_family(f, rng, margin, shift, depth)
    assert bmo_norm(f, fam) == oracle_bmo_norm(f, fam)
    for lo, hi in zip(fam.lo[::7], fam.hi[::7]):
        one = IntervalFamily([lo], [hi])
        assert bmo_norm(f, one) == oracle_bmo_norm(f, one)


def test_bmo_norm_blocks_long_intervals(monkeypatch):
    # a tiny block forces the row blocking that bounds memory on long
    # intervals; in each prefix of the family the newest interval sits in the
    # last block of its group, so a block left out shows as a missed maximum
    rng = np.random.default_rng(5)
    f = GridFunction(-0.3, 1.0 / 96, rng.uniform(-1.0, 1.0, size=96))
    fam = _mixed_family(f, rng, 1.0, 0.5, 6)
    want = np.maximum.accumulate(
        [oracle_bmo_norm(f, IntervalFamily([lo], [hi])) for lo, hi in zip(fam.lo, fam.hi)]
    )
    monkeypatch.setattr(gridfn, "_BMO_BLOCK", 5)
    got = [bmo_norm(f, IntervalFamily(fam.lo[: j + 1], fam.hi[: j + 1])) for j in range(len(fam))]
    assert got == want.tolist()


def test_bmo_hand_value():
    f = GridFunction(0.0, 0.5, [1.0, 1.0, -1.0, -1.0])
    assert bmo_norm(f, IntervalFamily([0.0], [2.0])) == pytest.approx(1.0)
    # single-sign interval has no oscillation
    assert bmo_norm(f, IntervalFamily([0.0], [1.0])) == 0.0


def test_bmo_partial_cell_fragments():
    f = GridFunction(0.0, 1.0, [0.0, 2.0])
    # over (0.5, 1.5): avg = 1, |f - 1| = 1 throughout, osc = 1
    assert bmo_norm(f, IntervalFamily([0.5], [1.5])) == pytest.approx(1.0)


def test_bmo_empty_family_raises():
    with pytest.raises(EmptyFamily):
        bmo_norm(GridFunction(0.0, 1.0, [1.0]), IntervalFamily([], []))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=50), st.integers(0, 5))
def test_bmo_at_most_twice_sup(vals, seed):
    f = GridFunction(0.0, 1.0 / len(vals), vals)
    fam = make_dyadic_family(Interval(0.0, 1.0), 0.25, margin=1.0, inside_only=False)
    assert bmo_norm(f, fam) <= 2.0 * sup_norm(f) + 1e-9


# ------------------------------------------------------------------- atoms


def test_atom_frozen_shape():
    I = Interval(0.0, 2.0)
    atom = make_atom(I, seed=7, cells=16)
    assert isinstance(atom, Atom)
    assert atom.interval == I
    assert atom.fn.n == 16
    assert atom.fn.x0 == 0.0 and atom.fn.x1 == 2.0
    assert sup_norm(atom.fn) == pytest.approx(1.0 / I.length, rel=1e-15)
    assert abs(atom.fn.integral(I.lo, I.hi)) <= 1e-14 * sup_norm(atom.fn) * I.length


def test_atoms_at_different_scales_are_dilates():
    a = make_atom(Interval(0.0, 1.0), seed=3, cells=8)
    b = make_atom(Interval(0.0, 4.0), seed=3, cells=8)
    assert np.allclose(b.fn.values * 4.0, a.fn.values, rtol=1e-15)


@pytest.mark.parametrize("length", [0.03125, 1.0, 3.0, 0.1, 2.0**5])
def test_atom_keeps_the_bits_of_one_draw_per_call(length):
    # the old make_atom, drawing and scaling in one go, is the oracle of the
    # draw that h1_l1 makes once per seed and dilates to every scale
    I = Interval(-0.5, -0.5 + length)
    v = np.random.default_rng(11).uniform(-1.0, 1.0, size=16)
    v -= v.mean()
    v -= v.mean()
    v *= 1.0 / (np.max(np.abs(v)) * I.length)
    pattern = atom_pattern(11, 16)
    for atom in (make_atom(I, 11, 16), dilate_atom(I, pattern)):
        assert atom.interval == I
        assert (atom.fn.x0, atom.fn.h) == (I.lo, I.length / 16)
        assert atom.fn.values.tobytes() == v.tobytes()
    assert not pattern[0].flags.writeable


def test_atom_needs_two_cells():
    with pytest.raises(IntervalTooSmall):
        make_atom(Interval(0.0, 1.0), seed=0, cells=1)


def test_family_indicator_and_spike():
    ind = make_family("indicator", {"scales": [1.0, 2.0]})
    assert [f.x1 for f in ind] == [1.0, 2.0]
    assert all(np.all(f.values == 1.0) for f in ind)
    spk = make_family("spike", {"epsilons": [0.25]})
    assert spk[0].values.tolist() == [4.0]
    assert lp_norm(spk[0], 1.0) == pytest.approx(1.0)


def test_family_haar_and_bump():
    haar = make_family("haar", {"scales": [2.0]})[0]
    assert haar.values.tolist() == [1.0, -1.0]
    assert haar.integral(0.0, 2.0) == 0.0
    bump = make_family("bump", {"scales": [1.0], "cells": 32})[0]
    assert np.all(bump.values >= 0.0)
    assert sup_norm(bump) <= 1.0


def test_family_random_step_seeded():
    a = make_family("random_step", {"count": 3, "seed": 5, "cells": 8})
    b = make_family("random_step", {"count": 3, "seed": 5, "cells": 8})
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)


def test_family_respects_origin_param():
    f = make_family("indicator", {"scales": [2.0], "x0": -1.0})[0]
    assert f.x0 == -1.0 and f.x1 == 1.0


@pytest.mark.parametrize("kind, params", [
    ("indicator", {"scales": [1.0, 2.0]}), ("indicator", {"scales": [1.0], "cells": 5}),
    ("haar", {"scales": [1.0, 2.0, 4.0]}), ("bump", {"scales": [1.0, 2.0]}), ("bump", {"scales": [1.0], "cells": 7}),
    ("random_step", {"count": 3}), ("random_step", {"count": 2.0, "cells": 8.0}), ("spike", {"epsilons": [0.5, 0.25]}),
])
def test_family_size_counts_the_cells_make_family_builds(kind, params):
    assert gridfn.family_size(kind, params) == sum(f.n for f in make_family(kind, params))


def test_family_bad_params():
    with pytest.raises(BadParams):
        make_family("indicator", {})
    with pytest.raises(BadParams):
        make_family("random_step", {"count": 0})
    with pytest.raises(BadParams):
        make_family("nosuch", {})


@pytest.mark.parametrize(
    "kind, params, bad",
    [
        ("random_step", {"count": "many"}, "count"),
        ("random_step", {"count": 2.5}, "count"),
        ("random_step", {"count": 2, "cells": 0}, "cells"),
        ("random_step", {"count": 2, "length": -1}, "length"),
        ("random_step", {"count": 2, "length": float("inf")}, "length"),
        ("random_step", {"count": 2, "seed": -1}, "seed"),
        ("random_step", {"count": 2, "x0": "a"}, "x0"),
        ("random_step", {"count": 2, "x0": float("nan")}, "x0"),
        ("spike", {"epsilons": [0]}, "epsilons"),
        ("spike", {"epsilons": [-1]}, "epsilons"),
        ("spike", {"epsilons": []}, "epsilons"),
        ("bump", {"scales": [1.0], "cells": True}, "cells"),
        ("indicator", {"scales": "1"}, "scales"),
        ("haar", {}, "scales"),
    ],
)
def test_family_param_values_checked_before_any_member(kind, params, bad):
    # these used to raise ZeroDivisionError, or a ValueError naming no parameter
    with pytest.raises(BadParams, match=bad):
        make_family(kind, params)


def test_family_accepts_whole_float_counts():
    fam = make_family("random_step", {"count": 2.0, "cells": 8.0, "seed": 3.0})
    assert len(fam) == 2 and fam[0].n == 8
    assert np.array_equal(fam[1].values, make_family("random_step", {"count": 2, "cells": 8, "seed": 3})[1].values)


# --------------------------------------------------------------------- CSV


def test_csv_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    f = GridFunction(-0.375, 1.0 / 3.0, rng.standard_normal(9))
    buf = io.StringIO()
    write_function_csv(f, buf)
    buf.seek(0)
    g = read_function_csv(buf)
    assert g.x0 == f.x0 and g.h == f.h and g.n == f.n
    assert np.array_equal(g.values, f.values)


def test_csv_layout_metadata_then_header_then_left_edges():
    f = GridFunction(0.5, 0.25, [1.0, -2.0, 3.0])
    buf = io.StringIO()
    write_function_csv(f, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# x0=0.5 h=0.25 n=3"
    assert lines[1] == "x,value"
    assert len(lines) == 5
    assert lines[2].split(",")[0] == "0.5"
    assert lines[4].split(",")[0] == "1"


def _row_by_row_csv(f):
    # the row-at-a-time writer the chunked one replaced, as a byte oracle
    return f"# x0={f.x0:.17g} h={f.h:.17g} n={f.n}\nx,value\n" + "".join(
        f"{x:.17g},{v:.17g}\n" for x, v in zip(f.x0 + f.h * np.arange(f.n), f.values)
    )


_CSV_CASES = {
    "all_distinct": np.concatenate([[0.0, -0.0, 5e-324], np.random.default_rng(5).uniform(-1e3, 1e3, 37)]),
    # runs of 1..7 rows that cross every chunk boundary below, ending in a run
    "runs": np.repeat([0.25, -1.0 / 3.0, 0.25, 7e-300, 1e300, -2.5, 0.1], [3, 1, 7, 2, 5, 4, 6]),
    # 0.0 and -0.0 compare equal and 5e-324 is one bit from 0.0: each is its own run
    "zeros": np.array([0.0, 0.0, -0.0, -0.0, 0.0, 5e-324, 5e-324, 0.0, -5e-324, -0.0, -0.0]),
    "one_row": np.array([-0.0]),
}


@pytest.mark.parametrize("rows_per_write", [1, 2, 3, 10, 1 << 14])
def test_csv_rows_match_row_by_row_format(monkeypatch, rows_per_write):
    monkeypatch.setattr(gridfn, "_CSV_ROWS", rows_per_write)
    for case, values in _CSV_CASES.items():
        f = GridFunction(-0.3, 0.004, values)
        buf = io.StringIO()
        write_function_csv(f, buf)
        assert buf.getvalue() == _row_by_row_csv(f), case


_CSV_POOL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0 / 3.0, 0.1, 2.5e300, -1e-300, 123456.789]


@given(
    runs=st.lists(st.tuples(st.sampled_from(_CSV_POOL), st.integers(1, 9)), min_size=1, max_size=30),
    rows_per_write=st.sampled_from([1, 2, 3, 10, 1 << 14]),
    x0=st.floats(-5.0, 5.0),
    h=st.floats(1e-3, 2.0),
)
def test_csv_runs_match_row_by_row_format(runs, rows_per_write, x0, h):
    values = np.repeat([v for v, _ in runs], [n for _, n in runs])
    f = GridFunction(x0, h, values)
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridfn, "_CSV_ROWS", rows_per_write)
        write_function_csv(f, buf)
    assert buf.getvalue() == _row_by_row_csv(f)


def test_csv_rejects_row_count_mismatch():
    text = "# x0=0 h=1 n=3\nx,value\n0,1\n1,2\n"
    with pytest.raises(ValueError):
        read_function_csv(io.StringIO(text))


def test_csv_rejects_bad_header():
    text = "# x0=0 h=1 n=1\nxx,value\n0,1\n"
    with pytest.raises(ValueError):
        read_function_csv(io.StringIO(text))


def test_csv_file_path_round_trip(tmp_path):
    f = GridFunction(0.0, 0.125, np.linspace(-1, 1, 16))
    path = str(tmp_path / "f.csv")
    write_function_csv(f, path)
    g = read_function_csv(path)
    assert np.array_equal(g.values, f.values)
