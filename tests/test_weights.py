import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacvar import (
    EmptyFamily,
    GridFunction,
    Interval,
    IntervalFamily,
    NonPositiveWeight,
    UniformGrid,
    Weight,
    a1_constant,
    ap_constant,
    constant_weight,
    make_dyadic_family,
    parse_weight,
    power_weight,
)


def _weight(vals, x0=0.0, h=1.0, label="w"):
    return Weight(GridFunction(x0, h, vals), label)


def test_weight_rejects_nonpositive_samples():
    with pytest.raises(NonPositiveWeight):
        _weight([1.0, 0.0])
    with pytest.raises(NonPositiveWeight):
        _weight([1.0, -2.0])


def test_ap_hand_value():
    w = _weight([1.0, 4.0])
    # over (0,2): avg w = 2.5, avg w^-1 = 0.625, product 1.5625
    assert ap_constant(w, 2.0, IntervalFamily([0.0], [2.0])) == pytest.approx(1.5625)


def test_ap_partial_cells_are_exact():
    w = _weight([1.0, 4.0])
    # over (0.5, 1.5): avg w = (0.5 + 2.0) / 1 = 2.5; avg w^-1 = (0.5 + 0.125) / 1 = 0.625
    assert ap_constant(w, 2.0, IntervalFamily([0.5], [1.5])) == pytest.approx(1.5625)


def test_ap_constant_weight_is_one():
    g = UniformGrid(0.0, 0.25, 16)
    w = constant_weight(3.0, g)
    fam = make_dyadic_family(Interval(0.0, 4.0), 0.5)
    assert ap_constant(w, 2.0, fam) == pytest.approx(1.0, rel=1e-12)


def test_a1_hand_value():
    w = _weight([2.0, 1.0, 4.0, 8.0], h=0.5)
    fam = IntervalFamily([0.0, 0.0], [1.0, 2.0])
    # (0,1): avg 1.5 over min 1 -> 1.5; (0,2): avg 3.75 over min 1 -> 3.75
    assert a1_constant(w, fam) == pytest.approx(3.75)


def test_ap_requires_family_inside_domain():
    w = _weight([1.0, 2.0])
    with pytest.raises(ValueError, match=r"interval \(-1.0, 1.0\) leaves"):
        ap_constant(w, 2.0, IntervalFamily([0.0, -1.0, 0.0], [1.0, 1.0, 3.0]))
    with pytest.raises(EmptyFamily):
        ap_constant(w, 2.0, IntervalFamily([], []))


def test_ap_needs_p_above_one():
    w = _weight([1.0, 2.0])
    with pytest.raises(ValueError):
        ap_constant(w, 1.0, IntervalFamily([0.0], [2.0]))


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=32),
    st.floats(min_value=1.1, max_value=4.0),
)
def test_ap_at_least_one(vals, p):
    w = _weight(vals, h=1.0 / len(vals))
    fam = IntervalFamily([0.0, 0.0], [1.0, 0.5])
    assert ap_constant(w, p, fam) >= 1.0 - 1e-10


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=32),
    st.floats(min_value=1.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_ap_monotone_in_p(vals, p, dp):
    # the dual factor is a decreasing function of p, so A_{p+dp} <= A_p
    # interval by interval; with a single interval the sup inherits it
    w = _weight(vals, h=1.0 / len(vals))
    fam = IntervalFamily([0.0], [1.0])
    assert ap_constant(w, p + dp, fam) <= ap_constant(w, p, fam) * (1.0 + 1e-10)


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=32))
def test_ap_monotone_in_family(vals):
    w = _weight(vals, h=1.0 / len(vals))
    small = make_dyadic_family(Interval(0.0, 1.0), 0.5)
    big = IntervalFamily(np.append(small.lo, [0.0, 0.25]), np.append(small.hi, [0.25, 0.75]))
    assert ap_constant(w, 2.0, big) >= ap_constant(w, 2.0, small)


def oracle_a1_constant(w: Weight, family) -> float:
    """Interval-by-interval A_1 estimate: the loop a1_constant replaced."""
    fn = w.fn
    slack = 1e-9 * fn.h
    for lo, hi in zip(family.lo, family.hi):
        if lo < fn.x0 - slack or hi > fn.x1 + slack:
            raise ValueError(
                f"interval ({float(lo)!r}, {float(hi)!r}) leaves the weight's domain "
                f"[{fn.x0!r}, {fn.x1!r}]; averages would see the zero extension"
            )
    best = 0.0
    for lo, hi in zip(family.lo, family.hi):
        avg = fn.integral(lo, hi) / (hi - lo)
        i0 = int(np.floor((lo - fn.x0) / fn.h))
        if fn.x0 + (i0 + 1) * fn.h <= lo:
            i0 += 1
        i1 = int(np.ceil((hi - fn.x0) / fn.h)) - 1
        if fn.x0 + i1 * fn.h >= hi:
            i1 -= 1
        i0, i1 = max(i0, 0), min(i1, fn.n - 1)
        if i1 < i0:
            raise ValueError(f"interval ({float(lo)!r}, {float(hi)!r}) covers no grid cell")
        best = max(best, avg / float(np.min(fn.values[i0 : i1 + 1])))
    return best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@given(
    cells=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    x0=st.floats(-3.0, 3.0),
    h=st.floats(0.01, 1.0),
    shift=st.sampled_from([0.0, 0.25, 0.5]),
    stray=st.sampled_from(["none", "outside", "sliver"]),
)
def test_a1_matches_oracle_exactly(cells, seed, x0, h, shift, stray):
    rng = np.random.default_rng(seed)
    w = _weight(rng.uniform(0.05, 20.0, size=cells), x0=x0, h=h)
    fn = w.fn
    dyadic = make_dyadic_family(Interval(fn.x0, fn.x1), (fn.x1 - fn.x0) / 64, shifts=(0.0, shift))
    ends = np.sort(rng.uniform(fn.x0, fn.x1, size=(10, 2)), axis=1)
    ends = ends[ends[:, 1] > ends[:, 0]]
    i = rng.integers(0, cells, 3)
    lo = np.concatenate([dyadic.lo, ends[:, 0], fn.x0 + fn.h * i])
    hi = np.concatenate([dyadic.hi, ends[:, 1], fn.x0 + fn.h * (i + 1)])
    # a stray interval mid-family: the first offender must be named, as before
    extra_lo, extra_hi = {
        "none": ([], []),
        "outside": ([fn.x1 - 0.5 * fn.h, fn.x0 - fn.h], [fn.x1 + fn.h, fn.x0]),
        "sliver": ([fn.x1], [fn.x1 + 1e-10 * fn.h]),  # inside the slack, on no cell
    }[stray]
    k = int(rng.integers(0, lo.size + 1))
    fam = IntervalFamily(np.insert(lo, k, extra_lo), np.insert(hi, k, extra_hi))
    assert _outcome(a1_constant, w, fam) == _outcome(oracle_a1_constant, w, fam)


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=32))
def test_a1_at_least_one(vals):
    w = _weight(vals, h=1.0 / len(vals))
    assert a1_constant(w, IntervalFamily([0.0], [1.0])) >= 1.0 - 1e-12


# ------------------------------------------------------------ constructions


def test_power_weight_midpoint_samples():
    g = UniformGrid(1.0, 0.25, 2)
    w = power_weight(0.5, g)
    assert np.allclose(w.fn.values, [1.125**0.5, 1.375**0.5])
    assert w.label == "power:0.5"


def test_power_weight_is_even_in_x():
    g = UniformGrid(-2.0, 1.0, 4)
    w = power_weight(1.5, g)
    assert w.fn.values[0] == w.fn.values[3]
    assert w.fn.values[1] == w.fn.values[2]


def test_power_weight_rejects_midpoint_at_zero():
    g = UniformGrid(-0.5, 1.0, 1)  # midpoint exactly 0
    with pytest.raises(NonPositiveWeight):
        power_weight(-1.0, g)


def test_constant_weight_rejects_nonpositive():
    with pytest.raises(NonPositiveWeight):
        constant_weight(0.0, UniformGrid(0.0, 1.0, 2))


# ------------------------------------------------------------------ parsing


def test_parse_weight_literals():
    g = UniformGrid(0.0, 0.5, 4)
    w = parse_weight("constant:2.5").sample(g)
    assert np.all(w.fn.values == 2.5)
    w2 = parse_weight("power:0.5").sample(UniformGrid(1.0, 0.5, 4))
    assert w2.label == "power:0.5"
    assert parse_weight("power:-0.25").label == "power:-0.25"


@given(
    st.sampled_from(["power:0.5", "power:-0.25", "power:0", "power:3", "power:400", "power:-400", "constant:2"]),
    st.floats(min_value=1e-3, max_value=10.0),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=-20, max_value=320),
    st.sampled_from([0.5, 0.25, 0.0, 0.49999999]),
)
def test_weight_check_refuses_what_sampling_refuses(literal, h, n, k, frac):
    # grids whose midpoint k sits on 0 or next to it, or left or right of
    # the grid, and exponents whose powers underflow or overflow off 0
    spec, grid = parse_weight(literal), UniformGrid(-h * (k + frac), h, n)
    try:
        with np.errstate(all="ignore"):
            spec.sample(grid)
    except NonPositiveWeight:
        with pytest.raises(NonPositiveWeight):
            spec.check(grid)
    else:
        spec.check(grid)
