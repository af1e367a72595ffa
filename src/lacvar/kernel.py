"""The l^s-valued difference kernel and its regularity diagnostics.

K(x) stacks the components phi_k(x) - phi_{k-1}(x), k = 1..k_max, where
phi_k = (1/n_k) * indicator of the open interval (0, n_k).  Every integral
here is computed exactly: the integrands are piecewise constant between
consecutive points of {0, y} union {n_k} union {n_k + y}, so breakpoint
decomposition with midpoint evaluation has no quadrature error at all.
Monte Carlo integration appears only in the test suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lacunary import LacunarySeq, gamma


class PreconditionViolated(ValueError):
    pass


class IdentityViolated(AssertionError):
    def __init__(self, k: int, x: float, got: float, expected: float):
        super().__init__(
            f"window-difference identity fails at k={k}, x={x!r}: "
            f"got {got!r}, expected {expected!r}"
        )
        self.k = k
        self.x = x


@dataclass(frozen=True)
class KernelSpec:
    seq: LacunarySeq
    s: float = 2.0
    k_max: int = 0

    def __post_init__(self):
        if not self.s >= 1.0 or math.isinf(self.s):
            raise ValueError(f"need finite s >= 1, got {self.s!r}")
        if not 1 <= self.k_max <= len(self.seq) - 1:
            raise ValueError(
                f"k_max must lie in [1, {len(self.seq) - 1}], got {self.k_max!r}"
            )

    @property
    def scales(self) -> np.ndarray:
        return np.array(self.seq.scales[: self.k_max + 1])


def _components(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Rows: eval points; columns: kernel components k = 1..k_max."""
    scales = spec.scales[None, :]
    x = x[:, None]
    phi = ((x > 0.0) & (x < scales)) / scales
    return np.diff(phi, axis=1)


def kernel_norm(x, spec: KernelSpec):
    """(sum_k |phi_k(x) - phi_{k-1}(x)|^s)^(1/s)."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    comps = _components(arr, spec)
    out = np.sum(np.abs(comps) ** spec.s, axis=1) ** (1.0 / spec.s)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def kernel_diff_norm(x, y: float, spec: KernelSpec):
    """||K(x - y) - K(x)|| in l^s, componentwise difference."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    comps = _components(arr - y, spec) - _components(arr, spec)
    out = np.sum(np.abs(comps) ** spec.s, axis=1) ** (1.0 / spec.s)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def _diff_integral(y: float, spec: KernelSpec, a: float, b: float, r: float) -> float:
    """Exact int_a^b ||K(x-y) - K(x)||^r dx via breakpoint decomposition."""
    if b <= a:
        return 0.0
    pts = {a, b}
    for p in (0.0, y):
        if a < p < b:
            pts.add(p)
    for nk in spec.scales:
        for p in (float(nk), float(nk) + y):
            if a < p < b:
                pts.add(p)
    cuts = np.array(sorted(pts))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    vals = kernel_diff_norm(mids, y, spec) ** r
    return float(np.dot(vals, np.diff(cuts)))


@dataclass(frozen=True, eq=False)
class ShellReport:
    """Per-shell constants c_l for the annuli (2^l y, 2^(l+1) y), two-sided.

    c_l = (integral over the shell of ||K(.-y) - K(.)||^r)^(1/r) times
    |S_l|^(1/r') with 1/r' = 1 - 1/r; the negative half of each shell
    contributes nothing (both kernels vanish left of 0).
    """

    y: float
    r: float
    s: float
    ls: tuple[int, ...]
    integrals: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    @property
    def total(self) -> float:
        return float(np.sum(self.c))


def shell_integrals(y: float, spec: KernelSpec, r: float, l_range) -> ShellReport:
    if not y > 0.0:
        raise PreconditionViolated(f"need y > 0, got {y!r}")
    if not r >= 1.0:
        raise ValueError(f"need r >= 1, got {r!r}")
    ls = tuple(int(l) for l in l_range)
    if any(l < 1 for l in ls):
        raise PreconditionViolated("shell indices must be >= 1")
    ints = np.empty(len(ls))
    cs = np.empty(len(ls))
    conj_exp = 1.0 - 1.0 / r
    for idx, l in enumerate(ls):
        lo, hi = (2.0**l) * y, (2.0 ** (l + 1)) * y
        ints[idx] = _diff_integral(y, spec, lo, hi, r)
        measure = 2.0 * (hi - lo)
        cs[idx] = ints[idx] ** (1.0 / r) * measure**conj_exp
    return ShellReport(y, r, spec.s, ls, ints, cs)


def hormander_integral(y: float, spec: KernelSpec) -> float:
    """int over |x| > 2y of ||K(x-y) - K(x)|| dx (exact, r = 1).

    Only (2y, n_kmax + y] can contribute; everything further right and the
    whole negative axis is outside both supports.
    """
    if not y > 0.0:
        raise PreconditionViolated(f"need y > 0, got {y!r}")
    top = float(spec.scales[-1]) + y
    return _diff_integral(y, spec, 2.0 * y, top, 1.0)


@dataclass(frozen=True)
class DrCheck:
    i: int
    j: int
    y: float
    r: float
    s: float
    lhs: float
    rhs: float
    passed: bool
    c_bound: float
    c_alt: float


def _check_pair_preconditions(i: int, j: int, y, seq: LacunarySeq, k_max: int) -> None:
    """Raise PreconditionViolated unless (i, j) is a gap pair within k_max
    and every y, a number or an array, lies in (0, n_j]."""
    g = gamma(seq.beta)
    if j < 0 or i < j + g:
        raise PreconditionViolated(
            f"need i >= j + {g} (the gap exponent for beta={seq.beta!r}), got i={i}, j={j}"
        )
    _require_all((0.0 < y) & (y <= seq.scales[j]), "y", y, f"0 < y <= n_j = {seq.scales[j]!r}")
    if i + 1 > k_max:
        raise PreconditionViolated(
            f"need scales through index {i + 1}; truncation is {k_max}"
        )


def _require_all(ok, name: str, v, what: str) -> None:
    """Raise PreconditionViolated naming the first item of v where ok is false."""
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size:
        raise PreconditionViolated(f"need {what}, got {name}={float(np.ravel(v)[bad[0]])!r}")


def _check_x_inside(i: int, x, seq: LacunarySeq) -> None:
    ni, ni1 = seq.scales[i], seq.scales[i + 1]
    _require_all((ni < x) & (x < ni1), "x", x, f"n_i < x < n_(i+1) = ({ni!r}, {ni1!r})")


def drlem_check(i: int, j: int, y: float, spec: KernelSpec, r: float) -> DrCheck:
    """Exact shell-free check of the single-gap kernel estimate.

    lhs is the exact L^r integral of ||K(.-y) - K(.)|| over (n_i, n_{i+1}).
    rhs uses the recomputed constant

        c_bound = 2 * (beta / (beta - 1)) * beta^(-(i-j)/r),

    the geometric-series majorant rebuilt from the ratio bounds.  c_alt is
    an alternative closed form of the same series, 2*(beta^2 + 1/(1-beta^2))
    times the decay factor; it goes negative for beta < sqrt(2) and is
    reported for diagnostic comparison only, never used in the pass
    decision.
    """
    if not r >= 1.0:
        raise ValueError(f"need r >= 1, got {r!r}")
    seq = spec.seq
    _check_pair_preconditions(i, j, y, seq, spec.k_max)
    lo, hi = seq.scales[i], seq.scales[i + 1]
    lhs = _diff_integral(y, spec, lo, hi, r) ** (1.0 / r)
    beta = seq.beta
    decay = beta ** (-(i - j) / r)
    c_bound = 2.0 * (beta / (beta - 1.0)) * decay
    c_alt = 2.0 * (beta**2 + 1.0 / (1.0 - beta**2)) * decay
    rhs = c_bound * seq.scales[i] ** (1.0 / r - 1.0)
    return DrCheck(i, j, y, r, spec.s, lhs, rhs, lhs <= rhs, c_bound, c_alt)


def indicator_identity(i: int, j: int, y: float, x: float, seq: LacunarySeq) -> str:
    """Check the window-difference collapse at a point.

    For 0 < y <= n_j, i >= j + gamma and n_i < x < n_{i+1}, the difference
    ind_(y, y+n_k)(x) - ind_(0, n_k)(x) must vanish for every k except
    k = i, where it must equal ind_(n_i, y+n_i)(x).  Returns "zero" or
    "equals_ni_window" describing which case the k = i term landed in.
    All indicators use open intervals; the comparison is exact.  This is
    the scalar oracle of indicator_identity_counts.
    """
    _check_pair_preconditions(i, j, y, seq, len(seq) - 1)
    _check_x_inside(i, x, seq)
    expected_i = 1.0 if seq.scales[i] < x < y + seq.scales[i] else 0.0
    for k, nk in enumerate(seq.scales):
        shifted = 1.0 if y < x < y + nk else 0.0
        plain = 1.0 if 0.0 < x < nk else 0.0
        d = shifted - plain
        expected = expected_i if k == i else 0.0
        if d != expected:
            raise IdentityViolated(k, x, d, expected)
    return "equals_ni_window" if expected_i == 1.0 else "zero"


def indicator_identity_counts(i: int, j: int, ys, xs, seq: LacunarySeq) -> tuple[int, int]:
    """indicator_identity at every point (y, x) of ys times xs, as counts.

    Returns (window_hits, violations): the points where the identity holds
    with the k = i term equal to ind_(n_i, y+n_i)(x), and the points where
    it fails at some k.  The float comparisons and the sums y + n_k are
    those of the scalar check, made on the whole grid at once per k.
    """
    y = np.atleast_1d(np.asarray(ys, dtype=np.float64))[:, None]
    x = np.atleast_1d(np.asarray(xs, dtype=np.float64))[None, :]
    _check_pair_preconditions(i, j, y, seq, len(seq) - 1)
    _check_x_inside(i, x, seq)
    ni = seq.scales[i]
    window = (ni < x) & (x < y + ni)
    bad = np.zeros(window.shape, dtype=bool)
    for k, nk in enumerate(seq.scales):
        shifted = ((y < x) & (x < y + nk)).astype(np.float64)
        plain = (0.0 < x) & (x < nk)
        bad |= (shifted - plain) != (window if k == i else 0.0)
    return int(np.count_nonzero(window & ~bad)), int(np.count_nonzero(bad))


def gap_condition_violations(seq: LacunarySeq) -> list[tuple[int, int]]:
    """Pairs (j, k) with k >= j + gamma - 1 where n_j + n_k > n_{k+1}.

    Exact float comparisons; an empty list confirms the scale-gap
    inequality across the whole sequence.
    """
    g = gamma(seq.beta)
    out = []
    for j in range(len(seq)):
        for k in range(j + g - 1, len(seq) - 1):
            if seq.scales[j] + seq.scales[k] > seq.scales[k + 1]:
                out.append((j, k))
    return out
