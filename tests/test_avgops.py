import collections
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacvar import (
    GridFunction,
    NonPositiveWindow,
    TailTooLarge,
    UniformGrid,
    VariationSpec,
    averages_at,
    default_eval_grid,
    oracle_averages_at,
    parse_sequence,
    refine,
    scale_stack_at,
    tail_bound,
    variation,
    variation_at,
    variations,
    variations_at,
    vector_variation,
)
from lacvar import avgops, make_family
from lacvar.gridfn import GridMismatch
from lacvar.runs import RunFunction
from lacvar.avgops import _fold_power, l1_norm, vector_variations


def _spec(**kw):
    kw.setdefault("s", 2.0)
    kw.setdefault("k_max", 1)
    kw.setdefault("enforce_tail", False)
    return VariationSpec(**kw)


# ------------------------------------------------------------ plain windows


def test_average_of_indicator_hand_value():
    f = GridFunction(0.0, 0.125, np.ones(8))  # indicator of [0, 1)
    # window [0, 2] sees mass 1 over width 2
    assert averages_at(f, 2.0, 2.0)[0] == pytest.approx(0.5, rel=1e-15)
    assert oracle_averages_at(f, 2.0, 2.0)[0] == pytest.approx(0.5, rel=1e-15)


def test_average_of_linear_function_is_exact():
    # step values at midpoints of y = x make cell-aligned window sums exact
    grid = UniformGrid(0.0, 0.5, 120)
    f = GridFunction(grid.x0, grid.h, grid.midpoints)
    got = averages_at(f, 10.0, 50.0)[0]
    assert got == pytest.approx(45.0, abs=1e-12)
    assert oracle_averages_at(f, 10.0, 50.0)[0] == pytest.approx(45.0, abs=1e-12)


def test_window_must_be_positive():
    f = GridFunction(0.0, 1.0, [1.0])
    with pytest.raises(NonPositiveWindow):
        averages_at(f, 0.0, 1.0)
    with pytest.raises(NonPositiveWindow):
        oracle_averages_at(f, -1.0, 1.0)


def test_average_vanishes_off_support():
    f = GridFunction(0.0, 0.25, np.ones(4))
    # window entirely right of the support, and entirely left
    assert averages_at(f, 1.0, 5.0)[0] == 0.0
    assert averages_at(f, 1.0, -3.0)[0] == 0.0


@given(
    st.integers(0, 2**32 - 1),
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_fast_path_matches_oracle(seed, cells, window):
    rng = np.random.default_rng(seed)
    f = GridFunction(-1.0, 2.0 / cells, rng.uniform(-1.0, 1.0, size=cells))
    x = rng.uniform(-3.0, 4.0, size=64)
    a = averages_at(f, window, x)
    b = oracle_averages_at(f, window, x)
    denom = max(np.max(np.abs(b)), 1e-30)
    assert np.max(np.abs(a - b)) / denom <= 1e-12


def test_average_grid_variants_agree(dyadic13, step_fn):
    f = step_fn(seed=4)
    grid = default_eval_grid(f, dyadic13, 5)
    fa = averages_at(f, dyadic13.scales[3], grid.midpoints)
    fo = oracle_averages_at(f, dyadic13.scales[3], grid.midpoints)
    assert fa.size == fo.size == grid.n
    assert np.max(np.abs(fa - fo)) <= 1e-13


# --------------------------------------------------------------- variation


def test_variation_of_indicator_dyadic_hand_value():
    # A_{2^k} of the unit indicator at x = 1 is exactly 2^-k, so the squared
    # differences telescope to (1 - 4^-K) / 3
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:13")
    for K in (1, 4, 12):
        got = variation_at(f, seq, _spec(k_max=K), 1.0)[0]
        assert got == pytest.approx(math.sqrt((1.0 - 4.0**-K) / 3.0), rel=1e-13)


def test_variation_s1_hand_value():
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:13")
    got = variation_at(f, seq, _spec(s=1.0, k_max=12), 1.0)[0]
    assert got == pytest.approx(1.0 - 2.0**-12, rel=1e-14)


def test_refinement_can_raise_variation():
    # Inserting a scale does not dominate V_s pointwise for s > 1.  For the
    # unit indicator at x = 1/2, (1, 8) refines to (1, 2, 8) with averages
    # 1/2, 1/4, 1/16: V_o = 7/16 but V_r = sqrt(4^2 + 3^2) / 16 = 5/16.  The
    # Hoelder bound V_o <= M^(1 - 1/s) V_r with M = 2 refined steps still holds.
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence((1.0, 8.0), beta=2.0)
    ref = refine(seq)
    assert ref.scales == (1.0, 2.0, 8.0)
    v_o = variation_at(f, seq, _spec(k_max=1), 0.5)[0]
    v_r = variation_at(f, ref, _spec(k_max=2), 0.5)[0]
    assert v_o == pytest.approx(7.0 / 16.0, abs=1e-15)
    assert v_r == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert v_o > v_r
    assert v_o <= math.sqrt(2.0) * v_r


def test_variation_homogeneity(step_fn):
    f = step_fn(seed=9)
    g = GridFunction(f.x0, f.h, 7.25 * f.values)
    seq = parse_sequence("geometric:0.25:2:6")
    x = np.linspace(-0.5, 4.0, 37)
    vf = variation_at(f, seq, _spec(k_max=5), x)
    vg = variation_at(g, seq, _spec(k_max=5), x)
    assert np.allclose(vg, 7.25 * vf, rtol=1e-12, atol=1e-15)


def test_variation_translation_equivariance(step_fn):
    # shifting by an exact multiple of the cell width shifts the variation
    f = step_fn(seed=2, cells=16)
    shift = 5 * f.h
    g = GridFunction(f.x0 + shift, f.h, f.values)
    seq = parse_sequence("geometric:0.5:2:5")
    x = np.arange(29) * 0.125  # exactly representable, so x + shift is too
    vf = variation_at(f, seq, _spec(k_max=4), x)
    vg = variation_at(g, seq, _spec(k_max=4), x + shift)
    assert np.array_equal(vf, vg)


def test_variation_dilation_covariance(step_fn):
    # V(f(./2)) over doubled scales at 2x equals V(f) over the base scales
    f = step_fn(seed=6, cells=16)
    g = GridFunction(2.0 * f.x0, 2.0 * f.h, f.values)
    seq = parse_sequence("geometric:0.5:2:5")
    seq2 = parse_sequence("geometric:1:2:5")
    x = np.linspace(0.25, 2.5, 19)
    vf = variation_at(f, seq, _spec(k_max=4), x)
    vg = variation_at(g, seq2, _spec(k_max=4), 2.0 * x)
    assert np.allclose(vf, vg, rtol=1e-13, atol=1e-16)


@given(st.integers(0, 1000), st.floats(min_value=1.0, max_value=4.0), st.floats(min_value=1.0, max_value=4.0))
def test_variation_nesting_in_s(seed, s1, s2):
    lo, hi = sorted((s1, s2))
    rng = np.random.default_rng(seed)
    f = GridFunction(0.0, 0.25, rng.uniform(-1.0, 1.0, size=8))
    seq = parse_sequence("geometric:0.5:2:6")
    x = rng.uniform(-1.0, 4.0, size=16)
    v_lo = variation_at(f, seq, _spec(s=lo, k_max=5), x)
    v_hi = variation_at(f, seq, _spec(s=hi, k_max=5), x)
    assert np.all(v_hi <= v_lo * (1.0 + 1e-12) + 1e-15)


@given(st.integers(0, 1000))
def test_variation_subadditive(seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(0.0, 0.25, rng.uniform(-1.0, 1.0, size=8))
    g = GridFunction(0.0, 0.25, rng.uniform(-1.0, 1.0, size=8))
    fg = GridFunction(0.0, 0.25, f.values + g.values)
    seq = parse_sequence("geometric:0.5:2:6")
    x = rng.uniform(-1.0, 4.0, size=16)
    spec = _spec(k_max=5)
    vf = variation_at(f, seq, spec, x)
    vg = variation_at(g, seq, spec, x)
    vfg = variation_at(fg, seq, spec, x)
    assert np.all(vfg <= vf + vg + 1e-12)


def test_scale_stack_shape(dyadic13, step_fn):
    f = step_fn(seed=1)
    stack = scale_stack_at(f, dyadic13, 6, np.linspace(0, 2, 11))
    assert stack.shape == (7, 11)


def test_variation_grid_output(dyadic13, step_fn):
    f = step_fn(seed=3)
    spec = _spec(k_max=12)
    v = variation(f, dyadic13, spec)
    grid = default_eval_grid(f, dyadic13, 12)
    assert v.n == grid.n
    assert v.x0 == grid.x0
    # support + pad covers everything nonzero
    assert grid.x1 >= f.x1 + dyadic13.scales[12]


# -------------------------------------------------------------------- tail


def test_tail_bound_frozen_value():
    # unit-mass indicator, beta = 2, s = 2, top scale 2^20: the two bounds
    # coincide at 2 / (2^20 * sqrt(3))
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:21")
    got = tail_bound(f, seq, 2.0, 20)
    assert got == pytest.approx(2.0 / (2.0**20 * math.sqrt(3.0)), rel=1e-14)


def test_tail_bound_scales_with_mass():
    f1 = GridFunction(0.0, 0.5, np.ones(2))
    f3 = GridFunction(0.0, 0.5, 3.0 * np.ones(2))
    seq = parse_sequence("geometric:1:2:6")
    assert tail_bound(f3, seq, 2.0, 5) == pytest.approx(3.0 * tail_bound(f1, seq, 2.0, 5))
    assert l1_norm(f3) == pytest.approx(3.0)


def test_tail_gate_raises_and_estimates_depth():
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:30")
    tight = VariationSpec(s=2.0, k_max=4, tail_tol=1e-6)
    with pytest.raises(TailTooLarge) as exc:
        variation_at(f, seq, tight, np.array([0.5]))
    k_needed = exc.value.k_needed
    assert k_needed is not None and 4 < k_needed <= 29
    # the suggested depth satisfies the same tolerance
    relaxed = VariationSpec(s=2.0, k_max=k_needed, tail_tol=1e-6)
    variation_at(f, seq, relaxed, np.array([0.5]))


def test_tail_gate_waived_by_flag():
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:30")
    spec = VariationSpec(s=2.0, k_max=2, tail_tol=1e-12, enforce_tail=False)
    variation_at(f, seq, spec, np.array([0.5]))  # must not raise


def test_waived_tail_gate_skips_the_tail_bound(monkeypatch):
    # the bound is a pass over f and the gate a pass over the result: both
    # are work for nothing when the gate is off
    def refuse(*args):
        raise AssertionError("tail_bound evaluated with the gate off")

    monkeypatch.setattr(avgops, "tail_bound", refuse)
    f = GridFunction(0.0, 0.125, np.ones(8))
    spec = VariationSpec(s=2.0, k_max=4, enforce_tail=False)
    vals = variation_at(f, parse_sequence("geometric:1:2:6"), spec, np.array([0.5, 3.0]))
    assert np.all(vals > 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        VariationSpec(s=0.5, k_max=1)
    with pytest.raises(ValueError):
        VariationSpec(s=2.0, k_max=0)
    with pytest.raises(ValueError):
        VariationSpec(s=2.0, k_max=1, tail_tol=0.0)
    spec = VariationSpec(s=2.0, k_max=9)
    with pytest.raises(ValueError):
        spec.check_seq(parse_sequence("geometric:1:2:5"))


# ------------------------------------------------------------------ vector


def test_vector_variation_single_function_reduces(step_fn):
    f = step_fn(seed=12)
    seq = parse_sequence("geometric:0.5:2:6")
    spec = _spec(k_max=5)
    grid = default_eval_grid(f, seq, 5)
    vv = vector_variation([f], seq, spec, 2.0, grid)
    v = variation(f, seq, spec, grid)
    assert np.allclose(vv.values, v.values, rtol=1e-14, atol=1e-300)


def test_vector_variation_monotone_in_rho(step_fn):
    fs = [step_fn(seed=s) for s in range(4)]
    seq = parse_sequence("geometric:0.5:2:6")
    spec = _spec(k_max=5)
    grid = default_eval_grid(fs[0], seq, 5)
    v15 = vector_variation(fs, seq, spec, 1.5, grid)
    v2 = vector_variation(fs, seq, spec, 2.0, grid)
    v3 = vector_variation(fs, seq, spec, 3.0, grid)
    assert np.all(v2.values <= v15.values * (1.0 + 1e-12))
    assert np.all(v3.values <= v2.values * (1.0 + 1e-12))


def test_vector_variation_rejects_mixed_grids(step_fn):
    f = step_fn(seed=0)
    g = step_fn(seed=0, cells=16)
    seq = parse_sequence("geometric:0.5:2:6")
    with pytest.raises(Exception):
        vector_variation([f, g], seq, _spec(k_max=5), 2.0)


# ----------------------------------------------------- compensated summing


def _old_compensated_power_sum(rows: np.ndarray, s: float) -> np.ndarray:
    """sum_k rows[k]**s per column: the loop the streamed kernel replaced."""
    acc = np.zeros(rows.shape[1], dtype=np.float64)
    comp = np.zeros_like(acc)
    for k in range(rows.shape[0]):
        term = rows[k] ** s
        total = acc + term
        acc_big = np.abs(acc) >= np.abs(term)
        comp += np.where(acc_big, (acc - total) + term, (term - total) + acc)
        acc = total
    return acc + comp


def oracle_variation_at(f, seq, spec, x) -> np.ndarray:
    """V_s f through the whole scale stack, then np.diff, then the old sum."""
    diffs = np.abs(np.diff(scale_stack_at(f, seq, spec.k_max, x), axis=0))
    return _old_compensated_power_sum(diffs, spec.s) ** (1.0 / spec.s)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_compensated_power_sum_matches_fsum(diffs, s):
    acc, comp, big = np.zeros(1), np.zeros(1), np.empty(1)
    for d in diffs:
        _fold_power(acc, comp, np.array([d]), s, big)
    got = (acc + comp)[0]
    want = math.fsum(float(d) ** s for d in diffs)
    assert got == pytest.approx(want, rel=1e-15, abs=1e-300)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.3]),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["shuffled", "sorted", "midpoints"]),
)
def test_streamed_variation_matches_stack_route_exactly(seed, s, chunk, npts, order):
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(1, 40))
    x0 = float(rng.choice([rng.uniform(-2.0, 2.0), -rng.uniform(1.0, 1e4), 0.0]))
    f = GridFunction(x0, float(rng.uniform(0.01, 0.5)), rng.uniform(-1.0, 1.0, size=cells))
    seq = parse_sequence(f"geometric:{rng.uniform(0.01, 1.0):.6g}:2:{int(rng.integers(2, 10))}")
    spec = _spec(s=s, k_max=int(rng.integers(1, len(seq))))
    if order == "midpoints":
        x = default_eval_grid(f, seq, spec.k_max, h=f.h * rng.uniform(0.3, 2.0)).midpoints
    else:
        # points left of the support and past the largest window; the
        # window's left end at each zone edge and one ulp either side; NaN
        # and +-inf
        edges = np.array([e + n for e in (f.x0, f.x1) for n in seq.scales])
        x = np.concatenate([
            rng.uniform(f.x0 - 3.0, f.x1 + 2.0 * seq.scales[-1], size=npts),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [np.nan, np.inf, -np.inf],
        ])
        x = np.sort(x) if order == "sorted" else rng.permutation(x)
    want = oracle_variation_at(f, seq, spec, x)
    with mock.patch.object(avgops, "_CHUNK", chunk):
        got = variation_at(f, seq, spec, x)
    assert got.tobytes() == want.tobytes()
    assert variation_at(f, seq, spec, x).tobytes() == want.tobytes()
    assert variation_at(f, seq, spec, x[:0]).size == 0


def test_streamed_variation_with_edges_past_the_float_range():
    # x1 + n_1 overflows: no point may be put right of the support there
    f = GridFunction(0.0, 1e307, np.arange(1.0, 9.0) * 1e-3)
    seq = parse_sequence((1e307, 1.6e308), beta=2.0)
    spec = _spec(k_max=1)
    x = np.linspace(0.0, 1.7e308, 50)
    want = oracle_variation_at(f, seq, spec, x)
    assert np.count_nonzero(want) == 49
    assert variation_at(f, seq, spec, x).tobytes() == want.tobytes()


def test_variation_interpolates_only_where_windows_cut_the_support(monkeypatch):
    # strong_pp's shape: 64 cells, 16 scales, 65,600 midpoints, nearly all
    # on flat stretches past the support.  The upper primitive is needed
    # only next to the support, inside a window [t_L, t_R) and at one point
    # per stretch, and the lower one only where [x - n_k, x] has its left
    # end in the support: about 2 x cells x scales points in all, counted
    # where the fold reads its primitive table
    rng = np.random.default_rng(0)
    f = GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64))
    seq = parse_sequence("geometric:0.03125:2:16")
    x = default_eval_grid(f, seq, 15).midpoints
    assert x.size == 65_600
    seen = []
    fill = avgops._Table.fill

    def spy(self, v, out, scratch):
        seen.append(v.size)
        fill(self, v, out, scratch)

    monkeypatch.setattr(avgops._Table, "fill", spy)
    variation_at(f, seq, _spec(k_max=15), x)
    assert 0 < sum(seen) < 3 * f.n * len(seq)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 2.0, 2.5, 7.3]),
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, None]),
)
def test_flat_stretches_match_stack_route_exactly(seed, s, chunk):
    # right of the support V_s f is folded at the first point of each flat
    # stretch in a chunk and copied; the points sit on every zone threshold
    # t_L, t_R and on x1, one ulp either side, and at +-inf.  The ascending
    # run is taken as it is; followed by the same run with one pair swapped
    # and a NaN, it is sorted first, and its stretches are cut anew.
    rng = np.random.default_rng(seed)
    chunk = chunk or avgops._CHUNK
    cells = int(rng.integers(1, 40))
    x0 = float(rng.choice([rng.uniform(-2.0, 2.0), -rng.uniform(1.0, 1e4), 0.0]))
    f = GridFunction(x0, float(rng.uniform(0.01, 0.5)), rng.uniform(-1.0, 1.0, size=cells))
    seq = parse_sequence(f"geometric:{rng.uniform(0.01, 1.0):.6g}:2:{int(rng.integers(2, 10))}")
    spec = _spec(s=s, k_max=int(rng.integers(1, len(seq))))
    below, above = avgops._zone_edges(f, seq.scales[: spec.k_max + 1])
    edges = np.concatenate([below, above, [f.x1]])
    edges = edges[np.isfinite(edges)]
    run = np.sort(np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        rng.uniform(f.x0 - 1.0, f.x1 + 2.0 * seq.scales[spec.k_max], size=int(rng.integers(0, 40))),
        [np.inf, -np.inf],
    ]))
    swapped = run.copy()
    i = int(rng.integers(0, run.size - 1))
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    x = np.concatenate([run, swapped, [np.nan]])
    want = oracle_variation_at(f, seq, spec, x)
    with mock.patch.object(avgops, "_CHUNK", chunk):
        got = variation_at(f, seq, spec, x)
        alone = variation_at(f, seq, spec, run)
    assert got.tobytes() == want.tobytes()
    assert alone.tobytes() == want[: run.size].tobytes()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(min_value=1, max_value=7),
)
def test_vector_variation_matches_stacked_route_exactly(seed, chunk):
    rng = np.random.default_rng(seed)
    fs = [GridFunction(0.0, 0.125, rng.uniform(-1.0, 1.0, size=8))
          for _ in range(int(rng.integers(1, 6)))]
    seq = parse_sequence("geometric:0.25:2:6")
    spec = _spec(s=2.5, k_max=5)
    grid = UniformGrid(-1.0, float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 60)))
    parts = np.stack([oracle_variation_at(g, seq, spec, grid.midpoints) for g in fs])
    rhos = (1.5, 2.0, 3.0)
    with mock.patch.object(avgops, "_CHUNK", chunk):
        together = vector_variations(fs, seq, spec, rhos, grid)
        alone = [vector_variation(fs, seq, spec, rho, grid) for rho in rhos]
    for rho, got, one in zip(rhos, together, alone):
        want = _old_compensated_power_sum(parts, rho) ** (1.0 / rho)
        assert got.on_grid().values.tobytes() == want.tobytes() == one.values.tobytes()


def test_vector_variations_hold_one_member_array_at_a_time():
    # 8 members and 3 exponents on 2^17 midpoints, 1,672 of them run
    # representatives: the three aggregates take 3 x.nbytes (each is
    # handed over without a copy), the midpoints 1, and the sums and the
    # one group of representatives a fraction of one (4.5 in all; grid-
    # sized sums took 9); holding every member's grid array would add 8
    rng = np.random.default_rng(0)
    fs = [GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64)) for _ in range(8)]
    seq = parse_sequence("geometric:0.03125:2:16")
    grid = UniformGrid(-1.0, 1026.0 / (1 << 17), 1 << 17)
    for f in fs:
        f.primitive_at(0.0)  # build the cached edge tables outside the traced call
    tracemalloc.start()
    try:
        vector_variations(fs, seq, _spec(k_max=15), (1.5, 2.0, 3.0), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * grid.n * 8


def test_variation_scratch_does_not_grow_with_scales():
    # 2^18 points over 16 scales: the stacked route peaked at 46 x.nbytes
    rng = np.random.default_rng(0)
    f = GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64))
    seq = parse_sequence("geometric:0.03125:2:16")
    spec = _spec(k_max=15)
    x = np.linspace(-1.0, 1025.0, 1 << 18)
    f.primitive_at(0.0)  # build the cached edge table outside the traced call
    tracemalloc.start()
    try:
        variation_at(f, seq, spec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.nbytes


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2.0, 3.0]),
    st.integers(min_value=2, max_value=5),
    st.sampled_from([1, 3, 8, 16]),
    st.sampled_from(["ascending", "shuffled", "nan"]),
)
def test_variations_rows_match_one_function_calls_exactly(seed, s, count, chunk, order):
    # with _CHUNK patched, a batch of `count` rows takes chunk // count
    # points at a time, so the 40..80 points cross several chunk edges;
    # variation_at runs at the default _CHUNK, so each row must also be
    # independent of the split
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(2, 24))
    x0 = float(rng.uniform(-2.0, 2.0))
    h = float(rng.uniform(0.01, 0.5))
    fs = [GridFunction(x0, h, rng.uniform(-1.0, 1.0, size=cells)) for _ in range(count)]
    seq = parse_sequence(f"geometric:{rng.uniform(0.01, 1.0):.6g}:2:{int(rng.integers(2, 10))}")
    spec = _spec(s=s, k_max=len(seq) - 1)
    x = np.sort(rng.uniform(x0 - 1.0, fs[0].x1 + 2.0 * seq.scales[-1], size=int(rng.integers(40, 81))))
    if order != "ascending":
        x = rng.permutation(x)
    if order == "nan":
        x[rng.integers(0, x.size, size=3)] = np.nan
    with mock.patch.object(avgops, "_CHUNK", chunk):
        got = variations_at(fs, seq, spec, x)
    assert got.shape == (count, x.size)
    for f, row in zip(fs, got):
        want = variation_at(f, seq, spec, x)
        assert row.tobytes() == want.tobytes()
        assert want.tobytes() == oracle_variation_at(f, seq, spec, x).tobytes()


def test_variations_need_functions_on_one_grid():
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:4")
    spec = _spec(k_max=3)
    for other in (GridFunction(0.5, 0.125, np.ones(8)), GridFunction(0.0, 0.25, np.ones(8)),
                  GridFunction(0.0, 0.125, np.ones(9))):
        with pytest.raises(GridMismatch):
            variations_at([f, other], seq, spec, [0.5])
    with pytest.raises(ValueError, match="at least one"):
        variations_at([], seq, spec, [0.5])


def test_variations_hold_each_row_to_the_tail_gate():
    # the zero function passes any gate; the indicator behind it does not
    zero = GridFunction(0.0, 0.125, np.zeros(8))
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:30")
    tight = VariationSpec(s=2.0, k_max=4, tail_tol=1e-6)
    with pytest.raises(TailTooLarge) as batch:
        variations_at([zero, f], seq, tight, [0.5])
    with pytest.raises(TailTooLarge) as alone:
        variation_at(f, seq, tight, [0.5])
    assert str(batch.value) == str(alone.value)
    variations_at([zero, zero], seq, tight, [0.5])


def test_variations_scratch_does_not_grow_with_functions():
    # 8 functions at 2^17 points that all fold: beyond the 8-row result,
    # a batch takes _CHUNK // 8 points at a time, so its scratch is a few
    # _CHUNK-element arrays (about 9); full chunks per row would take 48
    rng = np.random.default_rng(0)
    fs = [GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64)) for _ in range(8)]
    seq = parse_sequence("geometric:0.03125:2:16")
    x = np.linspace(-1.0, 1.5, 1 << 17)
    for f in fs:
        f.primitive_at(0.0)  # build the cached edge tables outside the traced call
    tracemalloc.start()
    try:
        variations_at(fs, seq, _spec(k_max=15), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 8 * x.nbytes < 12 * avgops._CHUNK * 8


def test_variation_out_of_order_costs_one_sort():
    # the same points shuffled, some of them NaN: the argsort, the sorted
    # copy and the result in sorted order take about x.nbytes each, and the
    # sorted copy is freed before the result is scattered
    rng = np.random.default_rng(0)
    f = GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64))
    seq = parse_sequence("geometric:0.03125:2:16")
    spec = _spec(k_max=15)
    x = rng.permutation(np.linspace(-1.0, 1025.0, 1 << 18))
    x[::1000] = np.nan
    f.primitive_at(0.0)  # build the cached edge table outside the traced call
    tracemalloc.start()
    try:
        got = variation_at(f, seq, spec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * x.nbytes
    # NaN sorts last and is not folded; the scatter puts it back in place
    assert np.array_equal(np.isnan(got), np.isnan(x))


# ------------------------------------------------------ packed fold batches


def _counting_fold(sizes: list):
    """A stand-in for _fold that records each call's point count."""
    fold = avgops._fold

    def spy(fs, scales, s, x, below, above):
        sizes.append(x.size)
        return fold(fs, scales, s, x, below, above)

    return spy


def test_l2_multiplier_shape_folds_in_one_call(monkeypatch):
    # 64 cells on [0, 1), 13 scales, 65,536 midpoints over the support plus
    # n_12: 8,070 points are left to fold after the flat stretches, so one
    # batch holds them all (fixed 2^14-point chunks of the input took 4
    # calls here)
    rng = np.random.default_rng(0)
    f = GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64))
    seq = parse_sequence("geometric:0.015625:2:13")
    grid = UniformGrid(f.x0, (f.x1 + seq.scales[12] - f.x0) / 65_536, 65_536)
    sizes = []
    monkeypatch.setattr(avgops, "_fold", _counting_fold(sizes))
    got = variation(f, seq, _spec(k_max=12), grid)
    assert len(sizes) == 1
    assert 0 < sizes[0] <= avgops._CHUNK
    assert got.values.tobytes() == oracle_variation_at(f, seq, _spec(k_max=12), grid.midpoints).tobytes()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["ascending", "nan", "shuffled"]),
)
def test_fold_batches_are_full_and_keep_the_bits(seed, chunk, count, order):
    # f on [0, 1) and windows [n, n + 1) for n = 2, 4, .., 64: 0-3 points
    # in the support and in each window, and 2-4 in each gap, which leave
    # short spans to fold between the copied points.  With batches of 1-7
    # points, spans share batches and cross batch edges; every batch but
    # the last is full, and the bits are the stacked route's
    rng = np.random.default_rng(seed)
    fs = [GridFunction(0.0, 0.125, rng.uniform(-1.0, 1.0, size=8)) for _ in range(count)]
    seq = parse_sequence("geometric:2:2:6")
    spec = _spec(s=float(rng.choice([1.0, 2.0, 2.5])), k_max=5)
    n = seq.scales
    pieces = [rng.uniform(-1.0, 1.0, size=rng.integers(0, 4)), rng.uniform(1.0, n[0], size=rng.integers(2, 5))]
    for a, b in zip(n, (*n[1:], 2.0 * n[-1])):
        pieces.append(rng.uniform(a, a + 1.0, size=rng.integers(0, 4)))
        pieces.append(rng.uniform(a + 1.0, b, size=rng.integers(2, 5)))
    x = np.sort(np.concatenate(pieces))
    # a flat point copies the point before it when both lie in one gap
    # between the zone thresholds
    below, above = avgops._zone_edges(fs[0], n)
    gap = np.searchsorted(np.sort(np.concatenate([below, above])), x, side="right")
    flat = (x >= 1.0) & (gap % 2 == 0)
    folded = x.size - int(np.count_nonzero(flat[1:] & flat[:-1] & (gap[1:] == gap[:-1])))
    if order == "nan":
        x = np.concatenate([x, [np.nan, np.nan]])
    elif order == "shuffled":
        x = rng.permutation(x)
    sizes = []
    size = max(1, chunk // count)
    with mock.patch.object(avgops, "_CHUNK", chunk), mock.patch.object(avgops, "_fold", _counting_fold(sizes)):
        got = variations_at(fs, seq, spec, x)
    assert sum(sizes) == folded
    assert sizes[:-1] == [size] * (len(sizes) - 1) and 0 < sizes[-1] <= size
    for f, row in zip(fs, got):
        assert row.tobytes() == oracle_variation_at(f, seq, spec, x).tobytes()


# ----------------------------------------------------------- result hand-off


def test_variation_hands_its_result_over_without_a_copy():
    # 2^18 midpoints over [-1, 1025), nearly all on flat stretches: the
    # result takes x.nbytes and the fold a few batches' scratch; a second
    # copy of the result would add x.nbytes more
    rng = np.random.default_rng(0)
    f = GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64))
    seq = parse_sequence("geometric:0.03125:2:16")
    grid = UniformGrid(-1.0, 1026.0 / (1 << 18), 1 << 18)
    f.primitive_at(0.0)  # build the cached edge table outside the traced call
    nbytes = grid.midpoints.nbytes  # and the midpoints
    tracemalloc.start()
    try:
        v = variation(f, seq, _spec(k_max=15), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not v.values.flags.writeable
    with pytest.raises(ValueError):
        v.values[0] = 1.0
    assert peak < 1.5 * nbytes
    assert v.values.tobytes() == variation_at(f, seq, _spec(k_max=15), grid.midpoints).tobytes()


def test_vector_variations_hand_their_results_over_read_only(monkeypatch):
    # each aggregate reaches RunFunction read-only and is kept as it is; the
    # members that `variations` hands over come first, one per function
    handed = []

    def recording(runs, values):
        handed.append(values)
        return RunFunction(runs, values)

    monkeypatch.setattr(avgops, "RunFunction", recording)
    rng = np.random.default_rng(0)
    fs = [GridFunction(0.0, 0.125, rng.uniform(-1.0, 1.0, size=8)) for _ in range(3)]
    aggs = vector_variations(fs, parse_sequence("geometric:0.25:2:6"), _spec(k_max=5), (1.5, 2.0))
    assert len(handed) == len(fs) + len(aggs)
    handed = handed[len(fs):]
    assert aggs[0].runs is aggs[1].runs
    for agg, values in zip(aggs, handed):
        assert not values.flags.writeable
        assert agg.run_values is values


@given(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=1, max_value=3000),
)
def test_grid_midpoints_pass_the_order_check(x0, h, n):
    # `variation` skips the order check on a grid's midpoints because they
    # always pass it: ascending (perhaps up to +inf) and NaN-free
    mids = UniformGrid(x0, h, n).midpoints
    assert avgops._ascending(mids)
    assert not np.isnan(mids).any()


# ------------------------------------------------------- primitive table


def _table_points(edges: np.ndarray, rng) -> np.ndarray:
    """Every edge, 1..8 ulps either side of each end (which covers the
    4-ulp zone pads), points far off and at infinity, and random points
    inside."""
    x0, x1 = float(edges[0]), float(edges[-1])
    near = []
    for e in (x0, x1):
        lo = hi = e
        for _ in range(8):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
    span = x1 - x0
    far = [-np.inf, -1e300, x0 - 1e3 * span, x1 + 1e3 * span, 1e300, np.inf]
    return rng.permutation(np.concatenate([edges, near, far, rng.uniform(x0, x1, size=64)]))


@given(
    st.integers(0, 2**32 - 1),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=10.0),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
)
def test_primitive_table_matches_interp_column_by_column(seed, x0, h, cells, count):
    # values hold -0.0, 0.0 and subnormals, and past one column (which is
    # what a single-function fold reads) the last row is all -0.0, whose S
    # is 0.0 then -0.0: the table may only differ from np.interp in the
    # sign of a zero, which the fold's absolute values remove
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=(count, cells))
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-310, -1e-315])
    mask = rng.random(vals.shape) < 0.3
    vals[mask] = rng.choice(special, size=int(np.count_nonzero(mask)))
    if count > 1:
        vals[-1] = -0.0
    fs = [GridFunction(x0, h, row) for row in vals]
    x = _table_points(fs[0].primitive_table[0], rng)
    before = x.tobytes()
    out = np.empty((x.size, count))
    avgops._Table(fs).fill(x, out, np.empty_like(out))
    assert x.tobytes() == before
    for f, col in zip(fs, out.T):
        want = f.primitive_at(x)
        assert np.array_equal(col, want)
        assert (col + 0.0).tobytes() == (want + 0.0).tobytes()


def test_variations_read_each_primitive_once(monkeypatch):
    # h1_l1's shape: 20 atoms on one interval, 11 scales, the points packed
    # into several fold batches.  Each function's cached edge table is read
    # once, into one table for the call, which every batch reads;
    # interpolating each function at every scale of every batch took about
    # 20 x 12 x batches calls
    rng = np.random.default_rng(0)
    fs = [GridFunction(0.0, 1.0 / 32, rng.uniform(-1.0, 1.0, size=32)) for _ in range(20)]
    seq = parse_sequence("geometric:0.25:2:11")
    spec = _spec(k_max=10)
    x = np.linspace(-1.0, 2.0 + seq.scales[-1], 2048)
    want = [variation_at(f, seq, spec, x) for f in fs]
    builds, fills = [], []

    class Counting(avgops._Table):
        def __init__(self, group):
            builds.append(len(group))
            super().__init__(group)

        def fill(self, v, out, scratch):
            fills.append(id(self))
            super().fill(v, out, scratch)

    sizes = []
    monkeypatch.setattr(avgops, "_Table", Counting)
    monkeypatch.setattr(avgops, "_fold", _counting_fold(sizes))
    monkeypatch.setattr(avgops, "_CHUNK", 20 * 64)
    got = variations_at(fs, seq, spec, x)
    assert len(sizes) > 1
    assert builds == [len(fs)]
    assert len(fills) > len(sizes) and len(set(fills)) == 1
    for row, w in zip(got, want):
        assert row.tobytes() == w.tobytes()


# ------------------------------------------------------- the family route


def _grid_features(f, scales, x):
    """The lengths of the flat stretches among the ascending points x,
    found by counting the zone thresholds at or below each point (windows
    [t_L, t_R) that do not overlap), independent of _flat_stretches."""
    below, above = avgops._zone_edges(f, scales)
    gap = np.searchsorted(np.sort(np.concatenate([below, above])), x, side="right")
    flat = (x >= f.x1) & (gap % 2 == 0)
    lengths = collections.Counter(int(g) for g, fl in zip(gap, flat) if fl)
    return set(lengths.values())


def test_variations_match_one_member_calls_exactly(monkeypatch):
    # 7 members on [0, 1), windows [n, n + 1) for n = 2, 4, .., 64, and
    # midpoints from -0.5 to L: L = 1 leaves no flat stretch, and larger L
    # leave more of the grid flat, so the derived group size grid.n //
    # representatives runs from 1 through every size up to all 7 members
    # (groups of 2, 3, 4, 5 and 6 leave a shorter last group).  Steps 0.5
    # and 0.75 give flat stretches of 1 and 2 points, either side of the
    # b - a > 1 edge of the copy
    rng = np.random.default_rng(0)
    fs = [GridFunction(0.0, 0.125, rng.uniform(-1.0, 1.0, size=8)) for _ in range(7)]
    seq = parse_sequence("geometric:2:2:6")
    columns = []
    fold = avgops._fold

    def spy(prims, scales, s, x, below, above):
        columns.append(prims.count)
        return fold(prims, scales, s, x, below, above)

    monkeypatch.setattr(avgops, "_fold", spy)
    groups, stretches = set(), set()
    for i, (h, L) in enumerate((h, L) for h in (0.5, 0.75) for L in (1, 2, 5, 12, 17, 30, 40, 64, 100, 200)):
        spec = _spec(s=(1.0, 2.0, 2.5, 7.3)[i % 4], k_max=5)
        grid = UniformGrid(-0.5, h, int((L + 0.5) / h))
        x = grid.midpoints
        counts = next(variations(fs[:1], seq, spec, grid)).runs.counts
        size = grid.n // counts.size
        if L == 1:
            assert counts.size == grid.n and size == 1
        columns.clear()
        got = list(variations(fs, seq, spec, grid))
        sizes = [min(size, len(fs) - lo) for lo in range(0, len(fs), size)]
        assert columns == sizes  # the representatives fit one batch here
        assert all(v.runs is got[0].runs and v.grid is grid for v in got)
        for f, v in zip(fs, got):
            v = v.on_grid()
            assert (v.x0, v.h, v.n) == (grid.x0, grid.h, grid.n)
            want = variations_at([f], seq, spec, x)[0]
            assert v.values.tobytes() == want.tobytes()
            assert want.tobytes() == oracle_variation_at(f, seq, spec, x).tobytes()
        groups.add(min(size, len(fs)))
        stretches |= _grid_features(fs[0], seq.scales, x)
    assert groups == set(range(1, 8))
    assert {1, 2} <= stretches


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 2.0, 2.5, 7.3]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=7),
)
def test_representatives_repeat_to_the_midpoint_samples(seed, s, count, chunk):
    # every run has at least one point and the runs tile the grid; with
    # _CHUNK patched, a group's representatives cross several batch edges
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(1, 24))
    x0 = float(rng.choice([rng.uniform(-2.0, 2.0), -rng.uniform(1.0, 1e4), 0.0]))
    h = float(rng.uniform(0.01, 0.5))
    fs = [GridFunction(x0, h, rng.uniform(-1.0, 1.0, size=cells)) for _ in range(count)]
    seq = parse_sequence(f"geometric:{rng.uniform(0.01, 1.0):.6g}:2:{int(rng.integers(2, 10))}")
    spec = _spec(s=s, k_max=int(rng.integers(1, len(seq))))
    grid = default_eval_grid(fs[0], seq, spec.k_max, h=h * rng.uniform(0.1, 2.0))
    grid = UniformGrid(grid.x0 - rng.uniform(0.0, 1.0), grid.h, grid.n + int(rng.integers(0, 200)))
    want = variations_at(fs, seq, spec, grid.midpoints)
    with mock.patch.object(avgops, "_CHUNK", chunk):
        got = list(variations(fs, seq, spec, grid))
    counts = got[0].runs.counts
    assert counts.sum() == grid.n and counts.min() >= 1
    assert len(got) == count and all(v.runs is got[0].runs for v in got)
    for row, v, w in zip((v.run_values for v in got), got, want):
        assert row.size == counts.size
        assert np.repeat(row, counts).tobytes() == w.tobytes() == v.on_grid().values.tobytes()


def test_variations_hold_each_member_to_the_tail_gate():
    # the zero function passes any gate, the indicator between two of them
    # does not: the family route yields the first, then raises what the
    # one-member route raises for the indicator on the same grid, and so
    # does vector_variations
    zero = GridFunction(0.0, 0.125, np.zeros(8))
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:30")
    tight = VariationSpec(s=2.0, k_max=4, tail_tol=1e-6)
    grid = default_eval_grid(f, seq, 4, h=0.0625)
    with pytest.raises(TailTooLarge) as alone:
        variation(f, seq, tight, grid)
    members = variations([zero, f, zero], seq, tight, grid)
    assert not np.any(next(members).run_values)
    with pytest.raises(TailTooLarge) as family:
        next(members)
    with pytest.raises(TailTooLarge) as aggregate:
        vector_variations([zero, f], seq, tight, (2.0,), grid)
    for err in (family.value, aggregate.value):
        assert (err.tail, err.tol, err.k_needed) == (alone.value.tail, alone.value.tol, alone.value.k_needed)
    assert list(variations([zero, zero], seq, tight, grid))


def test_family_routes_check_the_sequence_first():
    # k_max = 9 needs 10 scales; the default grid used to read scale 9 of
    # a 6-scale sequence first and raise IndexError
    f = GridFunction(0.0, 0.125, np.ones(8))
    seq = parse_sequence("geometric:1:2:6")
    spec = VariationSpec(k_max=9)
    need = "k_max=9 needs 10 scales, sequence has 6"
    for grid in (None, UniformGrid(0.0, 0.5, 8)):
        with pytest.raises(ValueError, match=need):
            vector_variation([f], seq, spec, 2.0, grid)
    with pytest.raises(ValueError, match=need):
        variations([f], seq, spec, UniformGrid(0.0, 0.5, 8))  # at the call, not at the first member
    with pytest.raises(GridMismatch):
        variations([f, GridFunction(0.0, 0.25, np.ones(8))], seq, _spec(k_max=5), UniformGrid(0.0, 0.5, 8))


def test_variations_scratch_is_one_member_and_one_group():
    # l2_multiplier's family: 100 members, 64 cells, 13 scales, 65,536
    # midpoints of which 8,070 are representatives, so groups of 8.  Beyond
    # the member in hand (grid.nbytes), the route holds one group of
    # representatives, their points and run lengths, and a batch's scratch:
    # the fold's six buffers of _CHUNK values and its per-point temporaries
    # (1.99 MiB in all; the bound is 2.18, one group of all 100 members
    # alone would take 6.2)
    fs = make_family("random_step", {"count": 100, "cells": 64, "length": 1.0, "seed": 12})
    seq = parse_sequence("geometric:0.015625:2:13")
    spec = _spec(k_max=12)
    f0 = fs[0]
    grid = UniformGrid(f0.x0, (f0.x1 + seq.scales[12] - f0.x0) / 65_536, 65_536)
    for f in fs:
        f.primitive_at(0.0)  # build the cached edge tables outside the traced call
    # and the midpoints, which this call caches on the grid
    reps = next(variations(fs[:1], seq, spec, grid)).runs.counts.size
    size = grid.n // reps
    assert (reps, size) == (8070, 8)
    tracemalloc.start()
    try:
        lengths = list(map(lambda v: v.n, variations(fs, seq, spec, grid)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lengths == [grid.n] * len(fs)
    assert peak < grid.n * 8 + size * reps * 8 + 3 * reps * 8 + 8 * avgops._CHUNK * 8


def test_vector_variations_sums_are_sized_by_the_representatives():
    # vector_valued's refined grid: 8 members, 131,200 midpoints, 1,545
    # representatives, so all 8 members fold in one group.  The three
    # aggregates are the result (3 grid.nbytes); beside them the route
    # holds the 2 x 3 sums, the group's representatives, their points and
    # run lengths, and a batch's scratch (0.51 MiB in all, bound 1.2).
    # Grid-sized sums took 6 grid.nbytes, 6 MiB, more
    rng = np.random.default_rng(0)
    fs = [GridFunction(0.0, 1.0 / 64, rng.uniform(-1.0, 1.0, size=64)) for _ in range(8)]
    seq = parse_sequence("geometric:0.03125:2:16")
    spec = _spec(k_max=15)
    grid = default_eval_grid(fs[0], seq, 15, h=1.0 / 128)
    grid.midpoints  # cached outside the traced call
    for f in fs:
        f.primitive_at(0.0)
    reps = next(variations(fs[:1], seq, spec, grid)).runs.counts.size
    assert (grid.n, reps) == (131_200, 1_545)
    rhos = (1.5, 2.0, 3.0)
    tracemalloc.start()
    try:
        aggs = vector_variations(fs, seq, spec, rhos, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(aggs) == 3
    sums = 2 * len(rhos) * reps * 8
    assert peak - 3 * grid.n * 8 < sums + len(fs) * reps * 8 + 3 * reps * 8 + 8 * avgops._CHUNK * 8
