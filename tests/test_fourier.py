import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacvar import (
    EmptyGrid,
    F_eval,
    LacunarySeq,
    default_xi_grid,
    fprime,
    fprime_check,
    multiplier_scans,
    multiplier_sums,
    multiplier_tail,
    parse_sequence,
    parse_xi_grid,
)
from lacvar import fourier


def _quad_oracle(r: float, nodes: int = 40001) -> complex:
    """(1/r) int_0^r e^(-i t) dt by composite Simpson; slow independent route."""
    t = np.linspace(0.0, r, nodes)
    vals = np.exp(-1j * t)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    step = r / (nodes - 1)
    return complex(np.sum(w * vals) * step / 3.0 / r)


# ----------------------------------------------------------------- F itself


def test_f_at_zero_is_one():
    assert F_eval(0.0) == 1.0 + 0.0j


def test_f_frozen_values():
    assert abs(F_eval(math.pi)) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert abs(F_eval(2.0 * math.pi)) <= 1e-15
    # closed form at r = 1: (1 - e^-i) / i
    want = (1.0 - cmath.exp(-1j)) / 1j
    assert F_eval(1.0) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("r", [1e-5, 1e-3, 0.05, 0.8, 3.0, 40.0, 500.0])
def test_f_matches_quadrature_oracle(r):
    got = complex(F_eval(r))
    want = _quad_oracle(r)
    assert got == pytest.approx(want, rel=3e-7)


def test_f_series_and_direct_branches_agree_at_switch():
    eps = 1e-3
    below = complex(F_eval(eps * (1.0 - 1e-9)))
    above = complex(F_eval(eps * (1.0 + 1e-9)))
    assert below == pytest.approx(above, rel=1e-12)


@given(st.floats(min_value=-1e4, max_value=1e4))
def test_f_modulus_identity(r):
    # |F(r)| = |2 sin(r/2) / r|.  Below 1e-8 that is 1 - r^2/24 = 1 in double
    # precision; the closed form itself breaks down there for subnormal r,
    # where r/2 rounds (5e-324 / 2 -> 0).
    got = abs(complex(F_eval(r)))
    want = 1.0 if abs(r) < 1e-8 else abs(2.0 * math.sin(r / 2.0) / r)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@given(st.floats(min_value=-300.0, max_value=300.0))
def test_f_conjugate_symmetry(r):
    assert complex(F_eval(-r)) == pytest.approx(complex(F_eval(r)).conjugate(), rel=1e-14, abs=1e-300)


def _two_branch_f(r) -> np.ndarray:
    """F by gathering each branch's points and scattering the results back:
    the series below _SMALL, the closed form on the rest."""
    arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    out = np.empty(arr.shape, dtype=np.complex128)
    small = np.abs(arr) < fourier._SMALL
    out[small] = fourier._horner(arr[small], fourier._F_COEFF)
    big = arr[~small]
    out[~small] = (1.0 - np.exp(-1j * big)) / (1j * big)
    return out


def _no_zero_sign(a) -> bytes:
    # -0.0 + 0.0 is 0.0, and every other value is left as it is
    return (np.asarray(a) + 0.0).tobytes()


def test_f_is_conjugate_even_bit_for_bit():
    # the multiplier scan evaluates F only at |xi| n_k, which needs
    # F(-r) = conj F(r) in every bit up to the sign of a zero, on both
    # branches: the series below _SMALL and the closed form above it
    eps = fourier._SMALL
    pts = [0.0, -0.0, 5e-324, 2.2e-310, 1e-300, 1e-8, 0.5, math.pi, 3.0, 1e4, 1e18]
    pts += [eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)]
    products = np.multiply.outer(default_xi_grid(), parse_sequence("geometric:1:2:41").scales)
    for r in (np.array(pts), products.ravel()):
        plus, minus = F_eval(r), F_eval(-r)
        assert _no_zero_sign(minus.real) == _no_zero_sign(plus.real)
        assert _no_zero_sign(minus.imag) == _no_zero_sign(-plus.imag)
    assert np.count_nonzero(np.abs(products) < eps) > 0
    assert np.count_nonzero(np.abs(products) >= eps) > 0


def test_f_keeps_the_bits_of_the_two_branch_formula():
    # the in-place closed form over the whole array runs the same float
    # operations on the same operands per element, and its divide skips
    # the series entries, so 0 and subnormals raise no warning
    eps = fourier._SMALL
    pts = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e-300, 1e18, -1e18, 0.5, 3.0, 1e4]
    for e in (eps, -eps):
        pts += [e, np.nextafter(e, 0.0), np.nextafter(e, 2.0 * e)]
    r = np.array(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = F_eval(r)
        block = F_eval(np.multiply.outer(r, [1.0, 2.0, 4.0]))
        scalars = [F_eval(v) for v in (0.0, eps, 1.5, 1e18)]
    assert got.tobytes() == _two_branch_f(r).tobytes()
    assert block.tobytes() == _two_branch_f(np.multiply.outer(r, [1.0, 2.0, 4.0])).tobytes()
    for v, got_v in zip((0.0, eps, 1.5, 1e18), scalars):
        assert type(got_v) is complex
        assert np.array([got_v]).tobytes() == _two_branch_f(v).tobytes()


# -------------------------------------------------------------- derivative


def test_fprime_matches_series_at_origin():
    # F'(r) -> -i/2 as r -> 0
    assert complex(fprime(1e-9)) == pytest.approx(-0.5j, rel=1e-6)


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_fprime_central_difference(log_r):
    r = 10.0**log_r
    hstep = 1e-6 * max(1.0, r)
    fd = (complex(F_eval(r + hstep)) - complex(F_eval(r - hstep))) / (2.0 * hstep)
    assert complex(fprime(r)) == pytest.approx(fd, rel=2e-6)


def test_fprime_check_report_fields():
    r = np.geomspace(1e-3, 1e3, 2000)
    rep = fprime_check(r)
    assert rep.max_fd_rel_err <= 1e-6
    assert 0.0 < rep.max_bound_margin < 1.0
    assert rep.deriv_abs.shape == r.shape


def test_fprime_bound_strict_inequality():
    r = np.geomspace(1e-4, 1e4, 5000)
    bound = (r + 2.0) / r**2
    assert np.all(np.abs(fprime(r)) < bound)


# ----------------------------------------------------------- multiplier sums


def test_multiplier_split_is_exact(dyadic13):
    xi = default_xi_grid(1e-4, 1e4, 256)
    scan = multiplier_sums(dyadic13, xi, 12)
    assert np.array_equal(scan.i_sum, scan.i_high + scan.i_low)
    assert scan.k_max == 12


def test_multiplier_zero_frequency_is_zero(dyadic13):
    scan = multiplier_sums(dyadic13, np.array([0.0]), 12)
    assert scan.i_sum[0] == 0.0
    assert scan.q_sum[0] == 0.0


def test_multiplier_even_in_frequency(dyadic13):
    xi = np.geomspace(1e-3, 1e3, 64)
    plus = multiplier_sums(dyadic13, xi, 12)
    minus = multiplier_sums(dyadic13, -xi, 12)
    for name in ("i_sum", "i_high", "i_low", "q_sum"):
        assert getattr(plus, name).tobytes() == getattr(minus, name).tobytes()


def test_multiplier_q_at_most_twice_i(dyadic13):
    # each term is at most 2, so d^2 <= 2 d termwise
    xi = default_xi_grid(1e-5, 1e5, 512)
    scan = multiplier_sums(dyadic13, xi, 12)
    assert np.all(scan.q_sum <= 2.0 * scan.i_sum + 1e-15)


def test_multiplier_sum_monotone_in_depth():
    seq = parse_sequence("geometric:1:2:21")
    xi = default_xi_grid(1e-4, 1e4, 128)
    prev = None
    for k in (4, 8, 16, 20):
        cur = multiplier_sums(seq, xi, k).i_sum
        if prev is not None:
            assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_multiplier_increments_cauchy_at_depth():
    # past depth 30 every term is bounded by 4 / (|xi| 2^30), so with the
    # grid floored at 1e-2 the added mass stays below 1e-6
    seq = parse_sequence("geometric:1:2:41")
    xi = default_xi_grid(1e-2, 1e2, 128)
    i30 = multiplier_sums(seq, xi, 30).i_sum
    i40 = multiplier_sums(seq, xi, 40).i_sum
    assert np.max(i40 - i30) < 1e-6


@given(
    st.floats(min_value=1.1, max_value=3.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=15),
    st.data(),
)
def test_multiplier_tail_nests_across_depths(beta, n0, stretch, data):
    # the majorant bounds every stretch of extra terms, so
    # I_K' - I_K <= T_K - T_K' for K < K'; sup_enclosure relies on this
    scales = [n0]
    for u in stretch:
        scales.append(scales[-1] * beta * (1.0 + u))
    seq = LacunarySeq(tuple(scales), min(b / a for a, b in zip(scales, scales[1:])))
    k = data.draw(st.integers(1, len(seq) - 2))
    k2 = data.draw(st.integers(k + 1, len(seq) - 1))
    xi = default_xi_grid(1e-3, 1e3, 64)
    added = multiplier_sums(seq, xi, k2).i_sum - multiplier_sums(seq, xi, k).i_sum
    room = multiplier_tail(seq, xi, k) - multiplier_tail(seq, xi, k2)
    assert np.all(added <= room + 1e-12)


def test_multiplier_tail_closed_form(dyadic13):
    xi = np.array([-2.0, 0.0, 0.5])
    # beta = 2: T_K = 6 / (|xi| 2^K), and 0 at the origin
    assert np.array_equal(multiplier_tail(dyadic13, xi, 3), [6.0 / 16.0, 0.0, 6.0 / 4.0])
    with pytest.raises(ValueError):
        multiplier_tail(dyadic13, xi, 13)


def test_multiplier_oracle_spot_check():
    # independent reconstruction: trapezoid-quadrature window transforms
    seq = parse_sequence("geometric:1:2:4")
    xi = 0.7
    scan = multiplier_sums(seq, np.array([xi]), 3)
    hats = [_quad_oracle(xi * n) for n in seq.scales[:4]]
    want = sum(abs(b - a) for a, b in zip(hats, hats[1:]))
    assert scan.i_sum[0] == pytest.approx(want, rel=1e-6)


def test_multiplier_rejects_bad_depth(dyadic13):
    with pytest.raises(ValueError):
        multiplier_sums(dyadic13, np.array([1.0]), 0)
    with pytest.raises(ValueError):
        multiplier_sums(dyadic13, np.array([1.0]), 13)
    # no depth, or one bad depth among good ones
    for depths in ((), (5, 13), (12, 0, 3)):
        with pytest.raises(ValueError):
            multiplier_scans(dyadic13, np.array([1.0]), depths)


def test_multiplier_rejects_empty_grid(dyadic13):
    with pytest.raises(EmptyGrid):
        multiplier_sums(dyadic13, np.array([]), 12)
    with pytest.raises(EmptyGrid):
        multiplier_scans(dyadic13, np.array([]), (3, 12))


def _whole_grid_scan(seq, xi, k_max):
    """The scan as one (grid, k_max + 1) evaluation: the oracle of the blocks."""
    scales = np.array(seq.scales[: k_max + 1])
    hat = F_eval(np.multiply.outer(xi, scales))
    diffs = np.abs(np.diff(hat, axis=1))
    high = np.abs(xi)[:, None] * scales[None, 1:] >= 1.0
    i_high = np.sum(diffs * high, axis=1)
    i_low = np.sum(diffs * ~high, axis=1)
    q_sum = np.sum(diffs * diffs, axis=1)
    return i_high + i_low, i_high, i_low, q_sum


def _assert_scan_is_oracle(scan, seq, xi, k_max):
    assert scan.k_max == k_max
    assert scan.xi.tobytes() == xi.tobytes()
    got = (scan.i_sum, scan.i_high, scan.i_low, scan.q_sum)
    for a, b in zip(got, _whole_grid_scan(seq, xi, k_max)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# rows per block of a scan to depth 40
_ROWS_AT_40 = fourier._BLOCK_BYTES // (16 * 41)


def _edge_grid(size, rows):
    """size frequencies from 1e-7 to 1e4 in magnitude, both signs, with 0 in
    the middle and |xi| < 1e-3 (F_eval's series branch at the low scales)
    on both sides of the first edge of blocks of rows, or at the end of a
    single block."""
    rng = np.random.default_rng(size)
    xi = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-7.0, 4.0, size)
    edge = min(rows, size - 1)
    xi[max(edge - 1, 0)] = -3e-7
    xi[edge] = 5e-6
    xi[size // 2] = 0.0
    return xi


@pytest.mark.parametrize("size", [1, _ROWS_AT_40 - 1, _ROWS_AT_40, _ROWS_AT_40 + 1, 16385])
def test_multiplier_scans_match_whole_grid_formula(size):
    # every sum runs along one frequency's row, so blocks of rows and shared
    # depths give each depth the bits of the whole-grid formula at that depth
    seq = parse_sequence("geometric:1:2:41")
    grids = [_edge_grid(size, _ROWS_AT_40)]
    if size == 16385:
        grids.append(default_xi_grid())
    depths = (40, 3, 20, 1, 20, 40)
    for xi in grids:
        scans = multiplier_scans(seq, xi, depths)
        assert [s.k_max for s in scans] == list(depths)
        for scan, k in zip(scans, depths):
            _assert_scan_is_oracle(scan, seq, xi, k)
        _assert_scan_is_oracle(multiplier_sums(seq, xi, 20), seq, xi, 20)


@given(
    st.integers(1, 16 * 13 * 6),
    st.integers(1, 40),
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.data(),
)
def test_multiplier_scans_any_block_size(block_bytes, size, depths, data):
    # blocks of 1 to 6 rows, or one row when a row does not fit
    seq = parse_sequence("geometric:0.5:3:13")
    xi = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=size, max_size=size)))
    old = fourier._BLOCK_BYTES
    fourier._BLOCK_BYTES = block_bytes
    try:
        scans = multiplier_scans(seq, xi, depths)
    finally:
        fourier._BLOCK_BYTES = old
    for scan, k in zip(scans, depths):
        _assert_scan_is_oracle(scan, seq, xi, k)


@pytest.mark.parametrize("block_bytes", [16 * 13, 3 * 16 * 13, fourier._BLOCK_BYTES])
def test_multiplier_scans_repeated_and_signed_magnitudes(block_bytes, monkeypatch):
    # each magnitude appears several times with both signs, 0.0 and -0.0
    # both appear, and |xi| n_k lands on either side of the series switch
    # _SMALL at the first scales; the scan evaluates each |xi| once and
    # must still give every grid frequency the bits of the signed formula
    seq = parse_sequence("geometric:0.5:3:13")
    mags = [5e-324, 1e-300, 1.0, 2.5, 1e4]
    for n in seq.scales[:5]:
        e = fourier._SMALL / n
        mags += [e, np.nextafter(e, 0.0), np.nextafter(e, 1.0)]
    xi = np.array([-0.0, 0.0, 0.0, -0.0] + [s * m for m in mags for s in (1.0, -1.0, 1.0, -1.0)])
    xi = xi[np.random.default_rng(3).permutation(xi.size)]
    monkeypatch.setattr(fourier, "_BLOCK_BYTES", block_bytes)
    depths = (12, 1, 4, 12)
    for scan, k in zip(multiplier_scans(seq, xi, depths), depths):
        _assert_scan_is_oracle(scan, seq, xi, k)
        # the first grid frequency at the sup, with its sign
        at = np.argmax(_whole_grid_scan(seq, xi, k)[0])
        assert np.array([scan.argmax_xi]).tobytes() == xi[at : at + 1].tobytes()


def test_multiplier_scratch_does_not_grow_with_grid():
    # the whole-grid formula peaked at 41.5 MiB on this grid at 41 scales;
    # the scan of its 8,193 magnitudes peaks at about 2.7 blocks of 4 MiB:
    # F_eval's result and the divisor of its closed form, plus the block's
    # frequency products
    seq = parse_sequence("geometric:1:2:41")
    xi = default_xi_grid()
    multiplier_sums(seq, xi[:8], 40)  # warm numpy outside the traced call
    tracemalloc.start()
    try:
        multiplier_sums(seq, xi, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_scan_sups_match_its_arrays(dyadic13):
    xi = default_xi_grid(1e-5, 1e5, 1024)
    scan = multiplier_sums(dyadic13, xi, 12)
    at = int(np.argmax(scan.i_sum))
    assert scan.sup_i == scan.i_sum[at]
    assert scan.argmax_xi == scan.xi[at]
    assert scan.sup_q == np.max(scan.q_sum)


# -------------------------------------------------------------------- grids


def test_default_grid_shape():
    g = default_xi_grid(1e-2, 1e2, 33)
    assert g.size == 2 * 33 + 1
    assert np.all(np.diff(g) > 0.0)
    assert g[33] == 0.0
    assert np.array_equal(g, -g[::-1])


def test_parse_xi_grid_literal():
    g = parse_xi_grid("log:0.1:10:5")
    assert g.size == 11
    assert g[0] == -10.0 and g[-1] == 10.0


def test_parse_xi_grid_rejects_garbage():
    with pytest.raises(ValueError):
        parse_xi_grid("lin:0:1:5")
    with pytest.raises(ValueError):
        parse_xi_grid("log:1:10")
