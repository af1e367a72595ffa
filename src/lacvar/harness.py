"""End-to-end inequality verification scenarios.

Each scenario kind maps one tested inequality to a concrete, seeded, desk
scale experiment: build a function corpus, evaluate the variation operator,
take the norm pair, and report ratios together with refinement diagnostics
and pass/fail checks against configured thresholds.  The runners and their
table `KINDS` are in `runners`, the case records in `cases`.

`_parse` turns a scenario into what its runner reads, once per run;
`from_config` runs the same parse, so a value the library refuses, or a
field the kind does not read, is a ScenarioInvalid naming the field.

Reports are deterministic: identical scenario + seed gives byte-identical
JSON.  Wall-clock timing is kept on the in-memory report object only and
never serialized, precisely so the byte-determinism contract can hold.
Cases run in order on the calling thread; vector_valued folds its members
in a loop.

A note on truncation: scenario measurements run with the variation tail
gate waived and instead record the analytic tail bound alongside each case.
The inequalities under test compare a truncated operator against exact
norms, so the bound is diagnostic context, not an error source; enforcing
the default relative gate would simply refuse every desk-scale run.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field, asdict, replace
from typing import NamedTuple

import numpy as np

from .avgops import VariationSpec
from .fourier import parse_xi_grid
from .gridfn import (COUNT, FINITE, NATURAL, POSITIVE, GridFunction, Interval, UniformGrid, dyadic_family_size,
                     family_size, make_dyadic_family, make_family)
from .gridfn import weak_sup  # unused here: perfbench times it as lacvar.harness.weak_sup
from .lacunary import LacunarySeq, gamma, parse_sequence
from .runners import KINDS, _bmo_family, _zone_count
from .weights import parse_weight, Weight, WeightSpec

SCHEMA_VERSION = "lacvar-report/1"

DEFAULT_THRESHOLDS = {
    "stability": 0.10,
    "stability_bmo": 0.15,
    "stability_h1": 0.15,
    "stability_weighted": 0.15,
    "multiplier_slack": 1.05,
    "scale_spread": 0.15,
    "family_spread": 0.10,
    "domination_slack": 1e-12,
    "monotonicity_slack": 1e-12,
    "sup_i_bound": 24.0,
    "i2_bound": 16.0,
    "k_doubling_tol": 1e-6,
    "shell_tail_share": 0.01,
    "decay_slope_slack": 0.20,
    "ap_stability": 0.15,
}


class ScenarioInvalid(ValueError):
    pass


# The most points one array of a run may span: an eval grid, the members'
# cells, the frequencies of xi_grid, h1_l1's zone cells at one scale, or
# indicator_identity's (y, x) grid of one pair.  32 times l2_multiplier's
# refined grid, and gridfn's cap on a dyadic family
_MAX_EVAL_POINTS = 1 << 22


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v, ok, size: int = 0) -> bool:
    """A non-empty list or tuple, of `size` items when it is given, that all pass ok."""
    return isinstance(v, (list, tuple)) and len(v) == (size or len(v)) > 0 and all(map(ok, v))


_POSITIVE, _COUNT = (*POSITIVE, float), (*COUNT, int)
_INT_PAIR = ("two integers", lambda v: _is_list(v, _is_int, 2), list)

# What each `options` key of KINDS must hold, the test _parse puts its value
# to, and how the runners read it.  `eval_h` may also be null, which asks for
# the default grid; `scale_exps` stays where 2.0**m and 2.0**-m are finite and
# nonzero; `xi_grid` is read by parse_xi_grid, whose own rules then apply,
# with at most _MAX_EVAL_POINTS frequencies.
OPTION_CHECKS = {
    "eval_h": ("a positive finite number or null", lambda v: v is None or POSITIVE[1](v), lambda v: v),
    "scale_exps": ("a non-empty list of integers in -1022..1022", lambda v: _is_list(v, lambda m: _is_int(m) and abs(m) <= 1022), list),
    "atom_cells": ("an integer >= 2", lambda v: COUNT[1](v) and v >= 2, int),
    "dual_r": (*FINITE, float),
    "r_values": ("a non-empty list of numbers >= 1", lambda v: _is_list(v, lambda r: _is_real(r) and r >= 1.0),
                 lambda v: [float(r) for r in v]),
    "j": (*NATURAL, int),
    "xi_grid": ("a frequency grid literal log:<lo>:<hi>:<count>", lambda v: isinstance(v, str),
                lambda v: parse_xi_grid(v, _MAX_EVAL_POINTS)),
    "ap_min_len": _POSITIVE, "y": _POSITIVE, "k_pair": _INT_PAIR, "i_range": _INT_PAIR,
    "eval_cells": _COUNT, "atoms_per_scale": _COUNT, "zone_points": _COUNT, "shell_l_max": _COUNT,
    "sequence_count": _COUNT, "y_count": _COUNT, "x_count": _COUNT,
}


@dataclass(frozen=True)
class Scenario:
    """One runnable verification experiment.

    `family` describes the test-function corpus (gridfn.make_family), and
    `options` carries kind-specific knobs (frequency grids, index ranges,
    atom layouts); both are echoed verbatim into the report.  A kind needs
    `p`, `weight`, `rho`, `family` and options its defaults name, and refuses
    the first four otherwise; no kind reads `lambda_grid`, kept for the echo.
    """

    kind: str
    seq: object = "geometric:1:2:20"
    beta: float | None = None
    s: float = 2.0
    k_max: int | None = None
    tail_tol: float = 1e-8
    enforce_tail: bool = False
    family: dict = field(default_factory=dict)
    weight: str | None = None
    p: float | None = None
    rho: tuple = ()
    lambda_grid: tuple = ()
    seed: int = 0
    thresholds: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Raise ScenarioInvalid, naming the field, unless the scenario can run."""
        _parse(self)

    def to_dict(self) -> dict:
        return asdict(self)


class _Inputs(NamedTuple):
    """A scenario parsed into what its runner reads."""

    seq: LacunarySeq
    spec: VariationSpec  # k_max defaulted to the last index of seq
    weight: WeightSpec | None
    fams: list  # the family's members, empty for the kinds that read none
    th: dict  # DEFAULT_THRESHOLDS with the scenario's own over them
    opts: dict  # the options as OPTION_CHECKS reads them
    probe: object  # weighted_pp's A_p families, weighted_weak11's w^dual_r, else None
    grids: object  # KINDS[kind].grids, the rule: grids held here would keep their midpoints all run


def _parse(sc: Scenario) -> _Inputs:
    """The one place a scenario becomes run inputs.

    Each library constructor is called once, and its refusal becomes a
    ScenarioInvalid naming the field; the checks here cover what they let
    through, or what only the run would trip over.  Every option the kind's
    defaults name must be set.  What the run would allocate is counted in
    Python numbers against _MAX_EVAL_POINTS, the eval grids by the kind's
    rule, KINDS[kind].grids, on each distinct member grid.
    """
    if sc.kind not in KINDS:
        raise ScenarioInvalid(f"unknown scenario kind {sc.kind!r}")
    kind = KINDS[sc.kind]
    # types that VariationSpec takes but should not, such as s=True
    for name, what, ok in (
        ("variation exponent s", "a number", _is_real),
        ("k_max", "null or an integer", lambda v: v is None or _is_int(v)),
        ("tail_tol", "a number", _is_real),
        ("enforce_tail", "true or false", lambda v: isinstance(v, bool)),
        ("seed", "an integer", _is_int),
    ):
        val = getattr(sc, name.split()[-1])
        if not ok(val):
            raise ScenarioInvalid(f"{name} must be {what}, got {val!r}")
    for name, need, ok in (
        ("p", "p > 1, the norm exponent p", lambda v: _is_real(v) and v > 1.0),
        ("weight", "a weight literal", bool),
        ("rho", "aggregation exponents rho > 1", lambda v: _is_list(v, lambda r: _is_real(r) and r > 1.0)),
        ("family", "a function family", bool),
        ("lambda_grid", "", bool),
    ):
        val = getattr(sc, name)
        if name not in kind.defaults and val not in (None, (), [], {}):
            raise ScenarioInvalid(f"{sc.kind} reads no {name}, so it must be unset; got {val!r}")
        if name in kind.defaults and not ok(val):
            raise ScenarioInvalid(f"{sc.kind} needs {need}, got {val!r}")
    try:
        weight = parse_weight(sc.weight) if sc.weight else None
    except ValueError as exc:
        raise ScenarioInvalid(str(exc)) from exc
    fams = []
    if sc.family:
        params = {k: v for k, v in sc.family.items() if k != "kind"}
        if sc.family.get("kind") == "random_step":
            params.setdefault("seed", sc.seed)
        try:
            cells = family_size(sc.family.get("kind"), params)
            if cells > _MAX_EVAL_POINTS:
                raise ValueError(f"the members hold {cells} cells, more than {_MAX_EVAL_POINTS}")
            fams = make_family(sc.family.get("kind"), params)
        except ValueError as exc:  # BadParams, too many cells, or a member GridFunction refuses
            raise ScenarioInvalid(f"family: {exc}") from exc
    for key, val in sc.thresholds.items():
        if key not in DEFAULT_THRESHOLDS:
            raise ScenarioInvalid(f"unknown threshold {key!r}")
        if not FINITE[1](val):
            raise ScenarioInvalid(f"thresholds.{key} must be {FINITE[0]}, got {val!r}")
    opts = {}
    for key, val in sc.options.items():
        if key not in kind.options:
            raise ScenarioInvalid(f"unknown {sc.kind} option {key!r}")
        what, ok, read = OPTION_CHECKS[key]
        if not ok(val):
            raise ScenarioInvalid(f"options.{key} must be {what}, got {val!r}")
        try:
            opts[key] = read(val)
        except ValueError as exc:
            raise ScenarioInvalid(f"options.{key}: {exc}") from exc
    if missing := [key for key in kind.defaults.get("options", ()) if key not in opts]:
        raise ScenarioInvalid(f"{sc.kind} needs options.{missing[0]}, as its defaults name it")
    try:
        seq = parse_sequence(sc.seq, sc.beta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioInvalid(f"seq={sc.seq!r} with beta={sc.beta!r}: {exc}") from exc
    scales, last = seq.scales, len(seq) - 1
    try:
        spec = VariationSpec(sc.s, last if sc.k_max is None else sc.k_max, sc.tail_tol, sc.enforce_tail)
        spec.check_seq(seq)
    except ValueError as exc:
        raise ScenarioInvalid(f"{exc}; seq has {last + 1} scales") from exc
    top, has = scales[spec.k_max], f"as seq has {last + 1} scales"
    # dr_condition fits a decay slope over i_range, which needs two indices,
    # and its kernel checks need i >= j + gamma and i + 1 <= k_max
    two = sc.kind == "dr_condition"
    lo_i, hi_i, n_j = (opts["j"] + gamma(seq.beta), spec.k_max, scales[min(opts["j"], last)]) if two else (0, last, None)
    # the options that are read against the scales of seq, or that size an
    # array of the run on their own
    for key, what, ok in (
        ("j", f"at most {last}, {has}", lambda v: v <= last),
        ("y", f"at most n_j = {n_j!r}, {has}", lambda y: y <= n_j),
        ("k_pair", f"two indices in 1..{last}, {has}", lambda ks: all(1 <= k <= last for k in ks)),
        ("i_range", f"[lo, hi] with {lo_i} <= lo {'<' if two else '<='} hi < {hi_i}, {has}",
         lambda r: lo_i <= r[0] <= r[1] - two and r[1] < hi_i),
        ("scale_exps", f"exponents m with n_0 <= 2**m <= n_k_max, from {scales[0]!r} to {top!r}, {has}",
         lambda ms: all(scales[0] <= 2.0**m <= top for m in ms)),
        ("zone_points", f"a count that tiles each scale's atom zones, refined, with at most {_MAX_EVAL_POINTS} cells, {has}",
         lambda zp: _zone_count(opts["scale_exps"], seq, spec.k_max, 2 * zp) <= _MAX_EVAL_POINTS),
        ("y_count", f"a count with y_count * x_count at most {_MAX_EVAL_POINTS}, the (y, x) grid of one pair",
         lambda yc: yc * opts["x_count"] <= _MAX_EVAL_POINTS),
    ):
        if key in opts and not ok(opts[key]):
            raise ScenarioInvalid(f"options.{key} must be {what}, got {sc.options[key]!r}")
    inp = _Inputs(seq, spec, weight, fams, {**DEFAULT_THRESHOLDS, **sc.thresholds}, opts, None, kind.grids)
    # the eval grids the kind's rule gives each distinct member grid,
    # counted without an array, so that one past the cap is refused here
    # and not in the run; the `eval_*` options are the ones that size them
    sized_by = " and ".join(["seq, k_max, family", *(f"options.{k}" for k in kind.options if k.startswith("eval_"))])
    grids, points = [], 0
    if kind.grids:
        try:
            grids = [g for f in {(f.x0, f.h, f.n): f for f in fams}.values() for g in kind.grids(f, inp)]
            points = max((g.n for g in grids), default=0)
        except (OverflowError, ValueError):  # a count past the float range, or a step that underflows
            points = math.inf
    if points > _MAX_EVAL_POINTS:
        raise ScenarioInvalid(f"the eval grid needs {points} points, more than {_MAX_EVAL_POINTS}; it is sized by {sized_by}")
    # what the weighted kinds build from an option, the family and the weight:
    # A_p probe families at ap_min_len and half of it, and w^dual_r on one
    # unit from the family's left end; and linf_bmo's dyadic families on
    # each eval grid, counted the same way
    probe, f0 = None, fams[0] if fams else None
    try:
        if sc.kind == "weighted_pp":
            key, ml = "ap_min_len", opts["ap_min_len"]
            probe = [make_dyadic_family(Interval(f0.x0, f0.x1), m, shifts=(0.0, 0.5)) for m in (ml, ml / 2.0)]
        if sc.kind == "weighted_weak11":
            key, r = "dual_r", opts["dual_r"]
            w = weight.sample(UniformGrid(f0.x0, f0.h, max(int(round(1.0 / f0.h)), 2))).fn
            with np.errstate(over="ignore"):
                probe = Weight(GridFunction(w.x0, w.h, w.values**r), f"{weight.label}^{r:g}")
        if sc.kind == "linf_bmo":
            key = "eval_h"
            for g in grids:
                _bmo_family(g, build=dyadic_family_size)
    except ValueError as exc:  # EmptyFamily, too many intervals, a power that overflows or underflows to 0
        inputs = f"; the eval grid is sized by {sized_by}" if sc.kind == "linf_bmo" else ""
        raise ScenarioInvalid(f"options.{key}: {exc}{inputs}") from exc
    return inp._replace(probe=probe)


def default_scenario(kind: str) -> Scenario:
    """The documented defaults of one scenario kind (desk-scale budgets)."""
    if kind not in KINDS:
        raise ScenarioInvalid(f"unknown scenario kind {kind!r}")
    return Scenario(kind, **copy.deepcopy(KINDS[kind].defaults))


def from_config(config: dict) -> Scenario:
    """Build a Scenario from a JSON-style dict, merged over the kind defaults."""
    if "kind" not in config:
        raise ScenarioInvalid("config must name a scenario 'kind'")
    sc = default_scenario(config["kind"])
    known = set(sc.__dataclass_fields__)
    unknown = set(config) - known
    if unknown:
        raise ScenarioInvalid(f"unknown scenario fields: {sorted(unknown)}")
    updates = {}
    for key, val in config.items():
        if key in ("family", "options", "thresholds"):
            if not isinstance(val, dict):
                raise ScenarioInvalid(f"{key} must be an object of named values, got {val!r}")
            base = getattr(sc, key)
            # a family of another kind shares no parameters with the default
            if key == "family" and val.get("kind", base.get("kind")) != base.get("kind"):
                base = {}
            val = {**base, **val}
        updates[key] = val
    sc = replace(sc, **updates)
    sc.validate()
    return sc


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    scenario: dict
    cases: list
    checks: list
    sup_ratio: float | None
    stability: dict | None
    constants: dict
    thresholds: dict
    seed: int
    passed: bool
    # Wall clock; deliberately excluded from emit_report output so that the
    # serialized bytes depend only on (scenario, seed).
    elapsed_s: float = 0.0


def emit_report(rep: VerificationReport, format: str = "json") -> bytes:
    if format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "kind": rep.kind,
            "scenario": rep.scenario,
            "cases": [
                {"case_id": c.case_id, "lhs": c.lhs, "rhs": c.rhs, "ratio": c.ratio, **c.extra}
                for c in rep.cases
            ],
            "checks": [{"name": c.name, "passed": c.passed, **({"detail": c.detail} if c.detail else {})} for c in rep.checks],
            "sup_ratio": rep.sup_ratio,
            "stability": rep.stability,
            "constants": rep.constants,
            "thresholds": rep.thresholds,
            "seed": rep.seed,
            "passed": rep.passed,
        }
        return (json.dumps(doc, sort_keys=True, indent=2, default=lambda o: o.tolist()) + "\n").encode()
    if format == "csv":
        lines = ["case_id,lhs,rhs,ratio"]
        lines += [f"{c.case_id},{c.lhs:.17g},{c.rhs:.17g},{c.ratio:.17g}" for c in rep.cases]
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {format!r}")


SCENARIO_KINDS = tuple(KINDS)


def run_scenario(sc: Scenario) -> VerificationReport:
    inp = _parse(sc)
    t0 = time.perf_counter()
    out = KINDS[sc.kind].run(sc, inp)
    elapsed = time.perf_counter() - t0
    return VerificationReport(
        kind=sc.kind,
        scenario=sc.to_dict(),
        cases=out.cases,
        checks=out.checks,
        sup_ratio=out.sup_ratio,
        stability=out.stability,
        constants=out.constants,
        thresholds=inp.th,
        seed=sc.seed,
        passed=all(c.passed for c in out.checks),
        elapsed_s=elapsed,
    )
