"""The case records of a scenario run, and the checks that runners share."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    lhs: float
    rhs: float
    ratio: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Outcome:
    """What a runner hands back to run_scenario, in report order."""

    cases: list
    checks: list
    sup_ratio: float
    stability: dict | None = None
    constants: dict = field(default_factory=dict)


def _rel_change(a: float, b: float) -> float:
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


def _stability(cases: list[CaseResult], threshold: float) -> tuple[dict, list[Check]]:
    """Sup ratio at the base resolution against the refined one.

    Returns the stability dict and its two checks, `sup_ratio_finite` and
    `refinement_stability`, in that order.
    """
    base = max(c.ratio for c in cases)
    fine = max(c.extra["ratio_refined"] for c in cases)
    change = _rel_change(base, fine)
    stab = {"base": base, "refined": fine, "rel_change": change, "threshold": threshold}
    return stab, [
        Check("sup_ratio_finite", math.isfinite(base), {"sup_ratio": base}),
        Check("refinement_stability", change <= threshold, {"rel_change": change, "threshold": threshold}),
    ]


def _spread_check(name: str, values: list[float], threshold: float, **detail) -> Check:
    """(max - min) / min of values, at most threshold; a min of 0 or a value
    that is not finite fails, with spread None."""
    low = min(values)
    spread = (max(values) - low) / low if low and all(map(math.isfinite, values)) else None
    return Check(name, spread is not None and spread <= threshold, {"spread": spread, "threshold": threshold, **detail})
