"""Lacunary scale sequences: validation, gap exponent, geometric refinement.

A scale sequence (n_0, n_1, ...) is lacunary with ratio beta > 1 when
n_{k+1} / n_k >= beta for every k.  Refinement inserts intermediate scales
so that every consecutive ratio also stays below beta**2, which is the shape
the averaging and kernel estimates downstream want.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative slack for every floating-point ratio comparison against beta or
# beta**2.  Ties at exactly beta / beta**2 are accepted.
RATIO_RTOL = 1e-12


class SequenceError(ValueError):
    """A scale sequence failed validation; `index` names the first offender."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class NonPositiveScale(SequenceError):
    def __init__(self, index: int):
        super().__init__(index, f"scale at index {index} must be positive")


class NotIncreasing(SequenceError):
    def __init__(self, index: int):
        super().__init__(index, f"scale at index {index} does not increase")


class RatioBelowBeta(SequenceError):
    def __init__(self, index: int, ratio: float, beta: float):
        super().__init__(
            index, f"ratio {ratio!r} into index {index} is below beta={beta!r}"
        )
        self.ratio = ratio
        self.beta = beta


def _check_scales(scales: tuple[float, ...], beta: float) -> None:
    if not scales:
        raise ValueError("scale sequence must be non-empty")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta!r}")
    for k, v in enumerate(scales):
        if not (math.isfinite(v) and v > 0.0):
            raise NonPositiveScale(k)
    for k in range(len(scales) - 1):
        nxt, cur = scales[k + 1], scales[k]
        if nxt <= cur:
            raise NotIncreasing(k + 1)
        ratio = nxt / cur
        if ratio < beta * (1.0 - RATIO_RTOL):
            raise RatioBelowBeta(k + 1, ratio, beta)


@dataclass(frozen=True, eq=False)
class LacunarySeq:
    """Increasing positive scales with consecutive ratios >= beta > 1."""

    scales: tuple[float, ...]
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(v) for v in self.scales))
        object.__setattr__(self, "beta", float(self.beta))
        _check_scales(self.scales, self.beta)

    def __len__(self) -> int:
        return len(self.scales)

    def __getitem__(self, k: int) -> float:
        return self.scales[k]


@dataclass(frozen=True, eq=False)
class RefinedSeq(LacunarySeq):
    """Lacunary sequence whose consecutive ratios also stay <= beta**2.

    `origin_indices[k]` is the position, inside `scales`, of the k-th scale
    of the sequence the refinement started from.
    """

    origin_indices: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "origin_indices", tuple(int(i) for i in self.origin_indices))
        cap = self.beta * self.beta * (1.0 + RATIO_RTOL)
        for k in range(len(self.scales) - 1):
            if self.scales[k + 1] / self.scales[k] > cap:
                raise SequenceError(k + 1, f"refined ratio into index {k + 1} exceeds beta**2")
        last = -1
        for i in self.origin_indices:
            if not (last < i < len(self.scales)):
                raise ValueError("origin_indices must be strictly increasing and in range")
            last = i


def gamma(beta: float) -> int:
    """Smallest integer g >= 1 with 1/beta + 1/beta**g <= 1.

    The comparison carries the module-wide 1e-12 slack so that betas hitting
    the boundary exactly (e.g. beta = 2, or the golden ratio for g = 2) land
    on the intended side despite rounding.
    """
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta!r}")
    inv = 1.0 / beta
    g = 1
    while inv + beta ** (-g) > 1.0 + 1e-12:
        g += 1
    return g


def refine(seq: LacunarySeq) -> RefinedSeq:
    """Insert geometric steps so every consecutive ratio lies in [beta, beta**2].

    Between scales with a ratio above beta**2 the previous accepted scale is
    repeatedly multiplied by beta.  Each insertion divides the remaining gap
    by beta, so the leftover ratio stays >= beta; existing scales are kept
    verbatim and witnessed through `origin_indices`.
    """
    beta = seq.beta
    cap = beta * beta * (1.0 + RATIO_RTOL)
    out = [seq.scales[0]]
    origin = [0]
    for target in seq.scales[1:]:
        while target / out[-1] > cap:
            out.append(out[-1] * beta)
        origin.append(len(out))
        out.append(target)
    return RefinedSeq(tuple(out), beta, tuple(origin))


def parse_sequence(spec, beta: float | None = None) -> LacunarySeq:
    """Build a LacunarySeq from a literal.

    Accepted forms:
      * "geometric:<base>:<ratio>:<count>"  e.g. "geometric:1:2:30"
      * an explicit iterable of scales (`beta` optional; defaults to the
        smallest consecutive ratio)
      * an existing LacunarySeq (returned unchanged)
    """
    if isinstance(spec, LacunarySeq):
        return spec
    if isinstance(spec, str):
        parts = spec.split(":")
        if parts[0] != "geometric" or len(parts) != 4:
            raise ValueError(f"unrecognized sequence literal {spec!r}")
        base, ratio, count = float(parts[1]), float(parts[2]), int(parts[3])
        if count < 1:
            raise ValueError("sequence literal needs count >= 1")
        scales = tuple(base * ratio**k for k in range(count))
        return LacunarySeq(scales, ratio if beta is None else beta)
    scales = tuple(float(v) for v in spec)
    if beta is None:
        if len(scales) < 2:
            raise ValueError("cannot infer beta from a single scale")
        beta = min(scales[k + 1] / scales[k] for k in range(len(scales) - 1))
    return LacunarySeq(scales, beta)
