import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacvar import (
    IdentityViolated,
    KernelSpec,
    LacunarySeq,
    PreconditionViolated,
    drlem_check,
    gamma,
    gap_condition_violations,
    hormander_integral,
    indicator_identity,
    indicator_identity_counts,
    kernel_diff_norm,
    kernel_norm,
    parse_sequence,
    refine,
    shell_integrals,
)


@pytest.fixture
def kspec(dyadic13):
    return KernelSpec(dyadic13, s=2.0, k_max=12)


def _mc_diff_integral(y, spec, a, b, r, samples=400_000, seed=123):
    rng = np.random.default_rng(seed)
    x = rng.uniform(a, b, size=samples)
    vals = kernel_diff_norm(x, y, spec) ** r
    return float(np.mean(vals) * (b - a))


# ------------------------------------------------------------ kernel norms


def test_kernel_norm_s1_hand_value(dyadic13):
    spec = KernelSpec(dyadic13, s=1.0, k_max=12)
    # inside (0,1) every window covers x, components are -2^-k exactly
    assert kernel_norm(0.5, spec) == 1.0 - 2.0**-12
    # inside (1,2) the first component flips sign but the total is the same
    assert kernel_norm(1.5, spec) == 1.0 - 2.0**-12


def test_kernel_norm_s2_hand_value(kspec):
    want = math.sqrt((1.0 - 4.0**-12) / 3.0)
    assert kernel_norm(0.5, kspec) == pytest.approx(want, rel=1e-15)


def test_kernel_norm_vanishes_off_windows(kspec):
    assert kernel_norm(-1.0, kspec) == 0.0
    assert kernel_norm(2.0**12 + 1.0, kspec) == 0.0
    # window endpoints are open
    assert kernel_norm(0.0, kspec) == 0.0


def test_kernel_norm_array_input(kspec):
    out = kernel_norm(np.array([0.5, -1.0, 3.0]), kspec)
    assert out.shape == (3,)
    assert out[1] == 0.0


def test_kernel_diff_norm_zero_when_windows_agree(kspec):
    # far beyond every window both arguments see the zero kernel
    assert kernel_diff_norm(2.0**13 + 5.0, 1.0, kspec) == 0.0


def test_kernel_spec_validation(dyadic13):
    with pytest.raises(ValueError):
        KernelSpec(dyadic13, s=2.0, k_max=0)
    with pytest.raises(ValueError):
        KernelSpec(dyadic13, s=2.0, k_max=13)
    with pytest.raises(ValueError):
        KernelSpec(dyadic13, s=0.5, k_max=12)


# ------------------------------------------------------- shells and D_r


def test_shell_report_fields(kspec):
    rep = shell_integrals(1.0, kspec, 2.0, range(1, 9))
    assert rep.ls == tuple(range(1, 9))
    assert len(rep.integrals) == 8 and len(rep.c) == 8
    assert rep.total == pytest.approx(sum(rep.c))
    assert all(c >= 0.0 for c in rep.c)


def test_shell_integral_matches_monte_carlo(kspec):
    # shell l=2 at y=1 spans (4, 8) on the positive side
    exact = shell_integrals(1.0, kspec, 2.0, [2]).integrals[0]
    mc = _mc_diff_integral(1.0, kspec, 4.0, 8.0, 2.0)
    assert mc == pytest.approx(exact, rel=0.02)


def test_shell_negative_side_contributes_nothing(kspec):
    # kernels are supported on x > 0, so for x < -y both terms vanish;
    # the two-sided shell measure is still 2 * 2^l * y
    rep1 = shell_integrals(1.0, kspec, 1.0, [3])
    mc = _mc_diff_integral(1.0, kspec, 8.0, 16.0, 1.0)
    assert rep1.integrals[0] == pytest.approx(mc, rel=0.02)


def test_shell_constants_decay(kspec):
    rep = shell_integrals(1.0, kspec, 2.0, range(1, 11))
    c = np.array(rep.c)
    # c_l ~ 2^(-l/2) for r = 2: check a robust overall downward trend
    assert c[-1] < c[0]
    assert np.sum(c[5:]) < np.sum(c[:5])


def test_hormander_integral_positive_and_bounded(kspec):
    val = hormander_integral(1.0, kspec)
    assert 0.0 < val < 10.0
    mc_piece = _mc_diff_integral(1.0, kspec, 2.0, 2.0**12 + 1.0, 1.0)
    assert val == pytest.approx(mc_piece, rel=0.05)


def test_drlem_exact_lhs_dyadic(kspec):
    # only components i and i+1 differ, each on a sliver of width y, so the
    # lhs is (2 y)^(1/s-free) ... concretely 2^(1/s) y^(1/r) / n_i
    d = drlem_check(3, 0, 1.0, kspec, 1.0)
    assert d.lhs == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-14)
    assert d.rhs == pytest.approx(0.5, rel=1e-14)
    assert d.passed


def test_drlem_r2_hand_value(kspec):
    d = drlem_check(1, 0, 1.0, kspec, 2.0)
    assert d.lhs == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
    assert d.c_bound == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-14)
    assert d.passed


def test_drlem_lhs_matches_monte_carlo(kspec):
    d = drlem_check(4, 0, 1.0, kspec, 2.0)
    mc = _mc_diff_integral(1.0, kspec, 16.0, 32.0, 2.0) ** 0.5
    assert d.lhs == pytest.approx(mc, rel=0.02)


def test_drlem_reports_alternative_constant(kspec):
    d = drlem_check(3, 0, 1.0, kspec, 1.0)
    assert d.c_alt is not None
    # diagnostic only: must not affect the verdict
    assert d.passed == (d.lhs <= d.rhs)


def test_drlem_preconditions(kspec):
    with pytest.raises(PreconditionViolated):
        drlem_check(0, 0, 1.0, kspec, 1.0)  # i < j + gamma
    with pytest.raises(PreconditionViolated):
        drlem_check(3, 0, 2.0, kspec, 1.0)  # y > n_j
    with pytest.raises(PreconditionViolated):
        drlem_check(12, 0, 1.0, kspec, 1.0)  # i + 1 beyond truncation


@given(st.integers(2, 10), st.floats(min_value=0.05, max_value=1.0))
def test_drlem_normalized_decay_slope(i, t):
    seq = parse_sequence("geometric:1:2:13")
    spec = KernelSpec(seq, s=2.0, k_max=12)
    y = t  # y in (0, n_0]
    d = drlem_check(i, 0, y, spec, 2.0)
    # lhs * n_i^(1-1/r) = 2^(1/2) y^(1/2) 2^(-i/2) exactly for the dyadic case
    want = math.sqrt(2.0 * y) * 2.0 ** (-i / 2.0)
    assert d.lhs * seq.scales[i] ** 0.5 == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------- indicator windows


def test_indicator_identity_window_case(dyadic13):
    # x inside (n_i, n_i + y): the difference is the single i-window term
    assert indicator_identity(3, 1, 1.0, 8.5, dyadic13) == "equals_ni_window"


def test_indicator_identity_zero_case(dyadic13):
    assert indicator_identity(3, 1, 1.0, 9.5, dyadic13) == "zero"


def test_indicator_identity_grid(dyadic13):
    g = gamma(dyadic13.beta)
    for i in range(1, 7):
        for j in range(0, i - g + 1):
            nj, ni, ni1 = (dyadic13.scales[t] for t in (j, i, i + 1))
            for y in np.linspace(nj / 8.0, nj, 8):
                for x in np.linspace(ni, ni1, 10)[1:-1]:
                    indicator_identity(i, j, float(y), float(x), dyadic13)


def test_indicator_identity_preconditions(dyadic13):
    with pytest.raises(PreconditionViolated):
        indicator_identity(2, 2, 1.0, 5.0, dyadic13)  # j too close to i
    with pytest.raises(PreconditionViolated):
        indicator_identity(3, 1, 3.0, 8.5, dyadic13)  # y > n_j
    with pytest.raises(PreconditionViolated):
        indicator_identity(3, 1, 1.0, 20.0, dyadic13)  # x outside (n_i, n_{i+1})


def test_identity_violated_is_raised_not_returned(dyadic13):
    # sanity on the failure channel: the checker raises, never mis-reports
    try:
        indicator_identity(3, 1, 1.0, 8.5, dyadic13)
    except IdentityViolated:
        pytest.fail("identity must hold at this sample")


def _scalar_counts(i, j, ys, xs, seq):
    """(window_hits, violations) from the scalar check at every (y, x)."""
    hits = bad = 0
    for y in ys:
        for x in xs:
            try:
                hits += indicator_identity(i, j, float(y), float(x), seq) == "equals_ni_window"
            except IdentityViolated:
                bad += 1
    return hits, bad


def _grid(i, j, seq, count):
    nj, ni, ni1 = (seq.scales[t] for t in (j, i, i + 1))
    ys = np.concatenate([np.linspace(nj / count, nj, count), [np.nextafter(nj, 0.0)]])
    xs = np.concatenate([np.linspace(ni, ni1, count)[1:-1], np.nextafter([ni, ni1], [np.inf, 0.0]),
                         ni + ys, np.nextafter(ni + ys, 0.0)])
    return ys, xs[(ni < xs) & (xs < ni1)]


@pytest.mark.parametrize("literal", ["geometric:1:2:10", "geometric:0.5:1.5:12", "geometric:1:3:8"])
def test_identity_counts_match_the_scalar_check(literal):
    seq = parse_sequence(literal)
    g = gamma(seq.beta)
    for i in range(g, len(seq) - 1):
        for j in range(0, i - g + 1):
            ys, xs = _grid(i, j, seq, 9)
            got = indicator_identity_counts(i, j, ys, xs, seq)
            assert got == _scalar_counts(i, j, ys, xs, seq)
            assert got[1] == 0 and got[0] > 0


def test_identity_counts_match_the_scalar_check_where_it_fails():
    # the ratio into n_1 sits just below beta = 2, within the accepted
    # slack, so n_0 + n_0 > n_1 and x in (n_1, 2) lies in the shifted
    # k = 0 window: the identity fails there
    seq = LacunarySeq((1.0, 2.0 - 1e-12, 4.5, 9.5, 30.0), 2.0)
    fails = 0
    for i in range(1, len(seq) - 1):
        for j in range(0, i):
            ys, xs = _grid(i, j, seq, 7)
            got = indicator_identity_counts(i, j, ys, xs, seq)
            assert got == _scalar_counts(i, j, ys, xs, seq)
            fails += got[1]
    assert indicator_identity_counts(1, 0, [1.0], [2.0 - 5e-13], seq) == (0, 1)
    assert fails > 0


def test_identity_counts_preconditions(dyadic13):
    for i, j, ys, xs in (
        (2, 2, [1.0], [5.0]),  # j too close to i
        (3, 1, [1.0, 3.0], [8.5]),  # y > n_j
        (3, 1, [0.0], [8.5]),  # y = 0
        (3, 1, [np.nan], [8.5]),
        (3, 1, [1.0], [8.5, 20.0]),  # x outside (n_i, n_{i+1})
        (3, 1, [1.0], [8.0]),
        (3, 1, [1.0], [np.nan]),
        (12, 1, [1.0], [5000.0]),  # no scale n_{i+1}
    ):
        with pytest.raises(PreconditionViolated):
            indicator_identity_counts(i, j, ys, xs, dyadic13)
        with pytest.raises(PreconditionViolated):
            _scalar_counts(i, j, ys, xs, dyadic13)
    with pytest.raises(PreconditionViolated, match="got y=3.0"):
        indicator_identity_counts(3, 1, [1.0, 3.0], [8.5], dyadic13)


# ------------------------------------------------------------ gap condition


def test_gap_condition_clean_for_geometric_sequences():
    for literal in ("geometric:1:1.2:15", "geometric:1:1.5:15", "geometric:1:2:15", "geometric:1:3:15"):
        seq = parse_sequence(literal)
        assert gap_condition_violations(seq) == []


@given(st.floats(min_value=1.1, max_value=3.0), st.integers(0, 10_000))
def test_gap_condition_clean_for_refined_random(beta, seed):
    rng = np.random.default_rng(seed)
    scales = [1.0]
    for _ in range(6):
        scales.append(scales[-1] * beta * float(rng.uniform(1.0, 8.0)))
    ref = refine(LacunarySeq(tuple(scales), beta))
    assert gap_condition_violations(ref) == []


def test_gap_condition_exact_equality_boundary():
    # beta = 2, gamma = 1: n_j + n_k = n_{k+1} holds with equality at j = k
    seq = LacunarySeq((1.0, 2.0, 4.0, 8.0), 2.0)
    assert gap_condition_violations(seq) == []
