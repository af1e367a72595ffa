"""Closed-form Fourier side of the averaging operators.

The window profile (1/n) * indicator of (0, n) has transform F(xi * n) with
F(r) = (1 - exp(-i r)) / (i r) and F(0) = 1.  Everything here is evaluated
from that closed form; no discrete transform is involved, so there is no
aliasing to worry about.  The module computes the telescoping multiplier
sums (the first-difference l^1 sum I with its two-regime split I1 + I2 and
the squared sum Q) and checks the derivative bound used to control the
large-frequency regime.

The multiplier sums are even in the frequency: F(-r) is conj F(r), bit for
bit up to the sign of a zero, and each term is a modulus.  So the scan
evaluates F once per distinct |xi| of the grid and gathers the sums back
onto the grid; a reflected grid costs half its frequencies.  It streams the
magnitudes in blocks of rows that hold at most _BLOCK_BYTES of F values, so
its scratch is a few such blocks whatever the grid size.  One scan serves
several truncation depths: F is evaluated once, at the deepest scale asked
for, and each depth sums the first columns of the block.  Every sum runs
along one frequency's row, so the result at each depth has the same bits
as a whole-grid scan at that depth alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lacunary import LacunarySeq


class EmptyGrid(ValueError):
    pass


class BoundViolation(AssertionError):
    def __init__(self, r: float, value: float, bound: float):
        super().__init__(
            f"|F'({r!r})| = {value!r} exceeds the claimed bound {bound!r}"
        )
        self.r = r
        self.value = value
        self.bound = bound


# Power-series coefficients of F(r) = sum_m (-i r)^m / (m+1)!; used below
# |r| = 1e-3 where the subtractive closed form loses digits.  The m = 6 term
# is ~ r^6/5040 ~ 1e-22, far below double precision at the switch point.
_F_COEFF = (1.0, -0.5j, -1.0 / 6.0, 1.0j / 24.0, 1.0 / 120.0, -1.0j / 720.0)
_FP_COEFF = (-0.5j, -1.0 / 3.0, 1.0j / 8.0, 1.0 / 30.0, -1.0j / 144.0)
_SMALL = 1e-3


def _horner(r: np.ndarray, coeff) -> np.ndarray:
    out = np.full(r.shape, coeff[-1], dtype=np.complex128)
    for c in coeff[-2::-1]:
        out = out * r + c
    return out


def F_eval(r):
    """F(r) = (1 - exp(-i r)) / (i r), with F(0) = 1 by the series limit.

    |F(r)| = 2 |sin(r/2)| / |r| for r != 0, so |F| <= 1 everywhere and
    F vanishes at nonzero multiples of 2 pi.
    """
    arr = np.asarray(r, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = np.abs(arr) < _SMALL
    # the closed form over the whole array, in place, with the operations
    # and operands of the per-element formula; the divide skips the small
    # entries (r = 0 or subnormal would warn), whose series values follow
    out = np.multiply(-1j, arr)
    np.exp(out, out=out)
    np.subtract(1.0, out, out=out)
    np.divide(out, np.multiply(1j, arr), out=out, where=~small)
    out[small] = _horner(arr[small], _F_COEFF)
    return complex(out[0]) if scalar else out


def fprime(r):
    """Derivative of F: (r exp(-i r) + i (1 - exp(-i r))) / r**2."""
    arr = np.asarray(r, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty(arr.shape, dtype=np.complex128)
    small = np.abs(arr) < _SMALL
    out[small] = _horner(arr[small], _FP_COEFF)
    big = arr[~small]
    e = np.exp(-1j * big)
    out[~small] = (big * e + 1j * (1.0 - e)) / big**2
    return complex(out[0]) if scalar else out


# Bytes of complex F values per block of the multiplier scan.  A scan that
# fits, such as l2_multiplier's 13 scales on the 8,193 magnitudes of its
# 16,385 frequencies (1.63 MiB), runs as one block.  The variation passes
# after a scan do not need this size to lift glibc's heap-trim threshold
# (it rises only when a large mmapped block is freed): V_s f stays on its
# runs, and with 112 KiB blocks a later l2_multiplier pass took about 250
# minor faults, with this size about 1.5k.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True, eq=False)
class MultiplierScan:
    """Per-frequency multiplier sums over a truncated scale family.

    i_sum[k] collects |F(xi n_k) - F(xi n_{k-1})| for k = 1..k_max, split
    into i_high (terms with |xi| n_k >= 1) and i_low (the rest), with
    i_sum = i_high + i_low exactly.  q_sum is the squared-modulus sum.
    """

    xi: np.ndarray = field(repr=False)
    i_sum: np.ndarray = field(repr=False)
    i_high: np.ndarray = field(repr=False)
    i_low: np.ndarray = field(repr=False)
    q_sum: np.ndarray = field(repr=False)
    k_max: int = 0

    @property
    def sup_i(self) -> float:
        """The grid sup of i_sum."""
        return float(np.max(self.i_sum))

    @property
    def sup_q(self) -> float:
        """The grid sup of q_sum."""
        return float(np.max(self.q_sum))

    @property
    def argmax_xi(self) -> float:
        """The first grid frequency where i_sum reaches sup_i."""
        return float(self.xi[np.argmax(self.i_sum)])


def multiplier_scans(seq: LacunarySeq, xi, depths) -> list[MultiplierScan]:
    """The multiplier sums over the grid xi at each truncation depth in depths.

    One pass over the distinct magnitudes |xi| of the grid serves every
    depth: the sums of xi and -xi are the same bits, so each magnitude is
    evaluated once and its sums are gathered back to every frequency that
    has it.  The magnitudes are streamed in blocks of
    _BLOCK_BYTES // (16 (K + 1)) rows for the deepest depth K, so the
    scratch is a few blocks whatever the grid size.  Each block evaluates
    F(|xi| n_k) once, for k up to K, and each depth k_max sums the first
    k_max columns of the block's differences.  The sums run along rows, so
    each depth's arrays are bit-for-bit those of a whole-grid scan at that
    depth alone.  Depths may come in any order and repeat; the scans come
    back in the order asked, one per entry.
    """
    depths = tuple(depths)
    if not depths:
        raise ValueError("need at least one depth")
    for k_max in depths:
        if k_max > len(seq) - 1:
            raise ValueError(f"k_max={k_max} exceeds sequence length {len(seq)} - 1")
        if k_max < 1:
            raise ValueError("need k_max >= 1 for at least one difference")
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.size == 0:
        raise EmptyGrid("frequency grid is empty")
    scales = np.array(seq.scales[: max(depths) + 1])
    step = max(1, _BLOCK_BYTES // (16 * scales.size))
    mag, where = np.unique(np.abs(xi), return_inverse=True)
    # per depth: i_high, i_low and q_sum of each magnitude, block by block
    sums = {k: np.empty((3, mag.size)) for k in depths}
    for at in range(0, mag.size, step):
        rows = mag[at : at + step]
        diffs = np.abs(np.diff(F_eval(np.multiply.outer(rows, scales)), axis=1))
        high = rows[:, None] * scales[None, 1:] >= 1.0
        for k, out in sums.items():
            d, h = diffs[:, :k], high[:, :k]
            out[0, at : at + step] = np.sum(d * h, axis=1)
            out[1, at : at + step] = np.sum(d * ~h, axis=1)
            out[2, at : at + step] = np.sum(d * d, axis=1)
    scans = {}
    for k, out in sums.items():
        i_high, i_low, q_sum = out[:, where]  # back onto the caller's grid
        scans[k] = MultiplierScan(xi, i_high + i_low, i_high, i_low, q_sum, k)
    return [scans[k] for k in depths]


def multiplier_sums(seq: LacunarySeq, xi, k_max: int) -> MultiplierScan:
    """The multiplier sums over the grid xi at depth k_max.

    The one-depth case of multiplier_scans, on its one code path: the grid
    is streamed in blocks of at most _BLOCK_BYTES of F values, so the
    scratch is a few blocks whatever the grid size.
    """
    return multiplier_scans(seq, xi, (k_max,))[0]


def multiplier_tail(seq: LacunarySeq, xi, k_max: int) -> np.ndarray:
    """Majorant T_K(xi) of the multiplier sum past depth K = k_max.

    sum_{k>K} |F(xi n_k) - F(xi n_{k-1})| <= T_K(xi) = 2 (beta + 1) /
    ((beta - 1) |xi| n_K) for any continuation of the sequence with ratios
    >= beta, from |F(r)| <= 2 / |r| and n_k >= n_K beta^(k-K); T_K(0) = 0.
    Term K+1 is at most 2 / (|xi| n_{K+1}) + 2 / (|xi| n_K), which is
    <= T_K - T_{K+1} once n_{K+1} >= beta n_K.  So I_K + T_K does not grow
    with K, and [sup I_K, max(I_K + T_K)] over a grid is a nested enclosure
    of the grid sup of the untruncated sum.
    """
    if not 0 <= k_max <= len(seq) - 1:
        raise ValueError(f"k_max={k_max} outside 0..{len(seq) - 1}")
    xi = np.abs(np.atleast_1d(np.asarray(xi, dtype=np.float64)))
    beta = seq.beta
    out = np.zeros(xi.shape, dtype=np.float64)
    nz = xi > 0.0
    out[nz] = 2.0 * (beta + 1.0) / ((beta - 1.0) * xi[nz] * seq.scales[k_max])
    return out


def default_xi_grid(lo: float = 1e-6, hi: float = 1e6, count: int = 8192) -> np.ndarray:
    """count log-spaced magnitudes in [lo, hi], plus zero and sign reflection."""
    if not (0.0 < lo < hi) or count < 2:
        raise ValueError("need 0 < lo < hi and count >= 2")
    mags = np.geomspace(lo, hi, count)
    return np.concatenate([-mags[::-1], [0.0], mags])


def parse_xi_grid(spec: str, max_points: float = np.inf) -> np.ndarray:
    """Frequency-grid literal "log:<lo>:<hi>:<count>" (reflected, zero added),
    refused before any array is made when its 2 * count + 1 points pass max_points."""
    parts = spec.split(":")
    if parts[0] != "log" or len(parts) != 4:
        raise ValueError(f"unrecognized frequency grid literal {spec!r}")
    count = int(parts[3])
    if 2 * count + 1 > max_points:
        raise ValueError(f"{spec!r} has {2 * count + 1} frequencies, more than {max_points}")
    return default_xi_grid(float(parts[1]), float(parts[2]), count)


@dataclass(frozen=True, eq=False)
class FprimeReport:
    r: np.ndarray = field(repr=False)
    deriv_abs: np.ndarray = field(repr=False)
    bound: np.ndarray = field(repr=False)
    fd_rel_err: np.ndarray = field(repr=False)

    @property
    def max_fd_rel_err(self) -> float:
        return float(np.max(self.fd_rel_err))

    @property
    def max_bound_margin(self) -> float:
        """max of |F'| / bound; below 1 means no violation anywhere."""
        return float(np.max(self.deriv_abs / self.bound))


def fprime_check(r_samples) -> FprimeReport:
    """Verify |F'(r)| <= (r+2)/r**2 and cross-check F' by central differences.

    The difference step is 1e-6 * max(1, r), balancing truncation against
    cancellation so the comparison is meaningful at 1e-6 relative.
    """
    r = np.atleast_1d(np.asarray(r_samples, dtype=np.float64))
    if np.any(r <= 0.0):
        raise ValueError("all sample points must be positive")
    deriv = fprime(r)
    deriv_abs = np.abs(deriv)
    bound = (r + 2.0) / r**2
    bad = deriv_abs > bound
    if np.any(bad):
        i = int(np.argmax(bad))
        raise BoundViolation(float(r[i]), float(deriv_abs[i]), float(bound[i]))
    step = 1e-6 * np.maximum(1.0, r)
    fd = (F_eval(r + step) - F_eval(r - step)) / (2.0 * step)
    fd_rel = np.abs(fd - deriv) / deriv_abs
    return FprimeReport(r, deriv_abs, bound, fd_rel)
