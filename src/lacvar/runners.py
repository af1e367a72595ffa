"""The scenario runners, (Scenario, harness._Inputs) -> _Outcome each, and KINDS, their one table."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .avgops import default_eval_grid, tail_bound, variation, variations, variations_at, vector_variations
from .cases import CaseResult, Check, _Outcome, _rel_change, _spread_check, _stability
from .fourier import multiplier_scans, multiplier_sums, multiplier_tail
from .gridfn import (GridFunction, Interval, UniformGrid, atom_pattern, bmo_norm, dilate_atom, lp_norm,
                     make_dyadic_family, sup_norm, weak_sup)
from .kernel import KernelSpec, drlem_check, indicator_identity_counts, shell_integrals
from .lacunary import LacunarySeq, gamma, refine
from .weights import ap_constant, a1_constant


def _grids_for(f: GridFunction, inp: _Inputs) -> list[UniformGrid]:
    """f's eval grid pair: the support plus the top-scale pad at `eval_h`
    (or f's own step), and the same at half the step."""
    h = inp.opts.get("eval_h") or f.h
    return [default_eval_grid(f, inp.seq, inp.spec.k_max, h=h / scale) for scale in (1, 2)]


def _cell_grids(f: GridFunction, inp: _Inputs) -> list[UniformGrid]:
    """l2_multiplier's eval grid pair: `eval_cells` cells and twice as many over f's default grid span."""
    cells, span = inp.opts["eval_cells"], (f.x1 + inp.seq.scales[inp.spec.k_max]) - f.x0
    return [UniformGrid(f.x0, span / (cells * scale), cells * scale) for scale in (1, 2)]


_MAX_TOP = 100.0  # the top scale of refine_domination's random domination sequences is at most this


def _refine_grids(f: GridFunction, inp: _Inputs) -> list[UniformGrid]:
    """refine_domination's eval grids: the default grid on seq and the widest its random sequences ask for."""
    return [default_eval_grid(f, s, len(s) - 1) for s in (inp.seq, LacunarySeq((_MAX_TOP,), inp.seq.beta))]


def _family_cases(inp: _Inputs, lhs_of, rhs_of) -> list[CaseResult]:
    """One case per member of the family: lhs_of(V_s f) against rhs_of(f).

    V_s f comes as a RunFunction (lhs_of expands it if it needs every
    cell), sampled on the first grid of the kind's rule, inp.grids(f, inp),
    for the case ratio and on the second (refined) for `ratio_refined`.  A
    rule reads only f's grid (x0, h, n): a run of consecutive members on
    one grid shares one pair and one `variations` call per grid, which
    folds several members at a time.  Only the current run's pair is held,
    and one member's two samples are made and measured in turn.
    """
    seq, spec = inp.seq, inp.spec
    cases = []
    for _, run in groupby(inp.fams, lambda f: (f.x0, f.h, f.n)):
        run = list(run)
        pair = [variations(run, seq, spec, g) for g in inp.grids(run[0], inp)]
        for f in run:
            lhs, lhs2 = (lhs_of(next(vs)) for vs in pair)
            rhs = rhs_of(f)
            extra = {"ratio_refined": lhs2 / rhs, "tail_bound": tail_bound(f, seq, spec.s, spec.k_max)}
            cases.append(CaseResult(f"fn{len(cases):03d}", lhs, rhs, lhs / rhs, extra))
    return cases


def _run_strong_pp(sc, inp):
    cases = _family_cases(inp, lambda v: lp_norm(v, sc.p), lambda f: lp_norm(f, sc.p))
    stab, checks = _stability(cases, inp.th["stability"])
    return _Outcome(cases, checks, stab["base"], stab)


def _run_weak_11(sc, inp):
    cases = _family_cases(inp, lambda v: weak_sup(v.on_grid()), lambda f: lp_norm(f, 1.0))
    stab, checks = _stability(cases, inp.th["stability"])
    checks.append(_spread_check("family_spread", [c.ratio for c in cases], inp.th["family_spread"]))
    return _Outcome(cases, checks, stab["base"], stab)


def _run_weighted_pp(sc, inp):
    p, wspec, th = sc.p, inp.weight, inp.th
    cases = _family_cases(
        inp,
        lambda v: lp_norm(v, p, wspec.sample(v.grid).fn),
        lambda f: lp_norm(f, p, wspec.sample(f.grid).fn),
    )
    stab, checks = _stability(cases, th["stability_weighted"])

    # family-relative A_p constant of the weight, at two family resolutions
    ap_base, ap_fine = (ap_constant(wspec.sample(grid), p, fam) for fam, grid in inp.probe)
    ap_change = _rel_change(ap_base, ap_fine)
    checks.append(
        Check(
            "ap_estimate_stable",
            math.isfinite(ap_base) and ap_change <= th["ap_stability"],
            {"ap_base": ap_base, "ap_refined": ap_fine, "rel_change": ap_change},
        )
    )
    constants = {"ap_estimate": ap_base, "ap_estimate_refined": ap_fine, "weight": wspec.label}
    return _Outcome(cases, checks, stab["base"], stab, constants)


def _run_weighted_weak11(sc, inp):
    wspec = inp.weight
    cases = _family_cases(
        inp,
        lambda v: weak_sup(v.on_grid(), wspec.sample(v.grid).fn.values),
        lambda f: lp_norm(f, 1.0, wspec.sample(f.grid).fn),
    )
    stab, checks = _stability(cases, inp.th["stability_weighted"])

    # diagnostic: A_1 estimate of w^dual_r near the support, the hypothesis
    # side of the weighted weak-type statement
    dual_r, w = inp.opts["dual_r"], inp.probe.fn
    a1 = a1_constant(inp.probe, make_dyadic_family(Interval(w.x0, w.x1), 2.0 * w.h))
    checks.append(Check("a1_hypothesis_finite", math.isfinite(a1), {"a1_estimate": a1}))
    constants = {"a1_estimate": a1, "dual_r": dual_r, "weight": wspec.label}
    return _Outcome(cases, checks, stab["base"], stab, constants)


def _bmo_family(g: UniformGrid, build=make_dyadic_family):
    """linf_bmo's dyadic family on the eval grid g: every level from the
    grid's own step up, over the grid's span padded by its length each
    side.  build=dyadic_family_size counts it instead, without an array."""
    domain = Interval(g.x0, g.x1)
    return build(domain, g.h, margin=domain.length, inside_only=False)


def _run_linf_bmo(sc, inp):
    def bmo_of(v) -> float:
        return bmo_norm(v.on_grid(), _bmo_family(v.grid))

    cases = _family_cases(inp, bmo_of, sup_norm)
    stab, checks = _stability(cases, inp.th["stability_bmo"])
    return _Outcome(cases, checks, stab["base"], stab)


def _atom_zones(I: Interval, seq: LacunarySeq, k_max: int) -> list[list[float]]:
    """Exact support cover of the variation of a mean-zero function on I.

    Each window average vanishes unless x or x - n_k lands inside I, so the
    variation lives on I united with its n_k translates; overlaps merge.
    """
    spans = [(I.lo, I.hi)] + [
        (I.lo + nk, I.hi + nk) for nk in seq.scales[: k_max + 1]
    ]
    spans.sort()
    merged = [list(spans[0])]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _zone_sizes(I: Interval, seq, k_max: int, points_per_scale: int) -> list[tuple[float, float, int]]:
    """(left end, cell width, cell count) of each atom zone of I, tiled at
    points_per_scale cells per |I|, in Python floats: a count past the
    float range is an OverflowError or a ZeroDivisionError."""
    target = I.length / points_per_scale
    sizes = []
    for lo, hi in _atom_zones(I, seq, k_max):
        m = max(1, int(math.ceil((hi - lo) / target)))
        sizes.append((lo, (hi - lo) / m, m))
    return sizes


def _zone_count(exps, seq, k_max: int, points_per_scale: int) -> float:
    """The most cells _zone_cells tiles one atom scale 2**m, m in exps, with;
    math.inf past the float range."""
    try:
        return max(sum(m for *_, m in _zone_sizes(Interval(0.0, 2.0**e), seq, k_max, points_per_scale)) for e in exps)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _zone_cells(I: Interval, seq, spec, points_per_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the cells that tile the atom zones of I."""
    sizes = _zone_sizes(I, seq, spec.k_max, points_per_scale)
    pts = [lo + hz * (np.arange(m) + 0.5) for lo, hz, m in sizes]
    return np.concatenate(pts), np.concatenate([np.full(m, hz) for _, hz, m in sizes])


def _run_h1_l1(sc, inp):
    seq, spec, th, opts = inp.seq, inp.spec, inp.th, inp.opts
    zp = opts["zone_points"]
    # each seed's cell pattern is drawn once and dilated to every scale
    pats = [atom_pattern(sc.seed + sidx, opts["atom_cells"]) for sidx in range(opts["atoms_per_scale"])]
    cases = []
    per_scale_sup: dict[int, float] = {}
    for m in opts["scale_exps"]:
        # the atoms of one scale share their interval, so they share its
        # grid and zone cells: one batched call per zone grid
        I = Interval(0.0, 2.0**m)
        fns = [dilate_atom(I, pat) for pat in pats]
        base_l1, fine_l1 = (
            [float(np.dot(row, widths)) for row in variations_at(fns, seq, spec, x)]
            for x, widths in (_zone_cells(I, seq, spec, scale * zp) for scale in (1, 2))
        )
        for sidx, (base, fine) in enumerate(zip(base_l1, fine_l1)):
            extra = {"ratio_refined": fine, "scale": 2.0**m}
            cases.append(CaseResult(f"scale{m:+03d}_seed{sidx:02d}", base, 1.0, base, extra))
        # np.max, not max: a NaN case makes the scale's sup NaN
        per_scale_sup[m] = float(np.max([per_scale_sup.get(m, 0.0), *base_l1]))
    stab, checks = _stability(cases, th["stability_h1"])
    checks.append(
        _spread_check(
            "scale_spread", list(per_scale_sup.values()), th["scale_spread"],
            per_scale_sup={str(m): v for m, v in sorted(per_scale_sup.items())},
        )
    )
    return _Outcome(cases, checks, stab["base"], stab, {"atom_count": len(cases)})


def _run_l2_multiplier(sc, inp):
    seq, k_max, th = inp.seq, inp.spec.k_max, inp.th
    scan = multiplier_sums(seq, inp.opts["xi_grid"], k_max)
    sqrt_q = math.sqrt(scan.sup_q)
    bound = sqrt_q * th["multiplier_slack"]
    cases = _family_cases(inp, lambda v: lp_norm(v, 2.0), lambda f: lp_norm(f, 2.0))
    stab, (finite, _) = _stability(cases, th["stability"])
    worst = stab["base"]
    detail = {"worst_ratio": worst, "bound": bound, "sqrt_sup_q": sqrt_q}
    checks = [finite, Check("multiplier_bound", worst <= bound, detail)]
    constants = {
        "sup_q": scan.sup_q,
        "sqrt_sup_q": sqrt_q,
        "bound": bound,
        "sup_i": scan.sup_i,
        "argmax_xi": scan.argmax_xi,
    }
    return _Outcome(cases, checks, worst, stab, constants)


def _run_vector_valued(sc, inp):
    seq, spec, fams, p = inp.seq, inp.spec, inp.fams, sc.p
    rhos = tuple(sorted(sc.rho))
    f0 = fams[0]
    grids = inp.grids(f0, inp)
    # V_s f does not depend on rho: one kernel call per member and grid.
    # The refined call runs first and keeps only its norms; its grid, with
    # the cached midpoints, is dropped once the call is done.  The
    # aggregates stay on their runs: lp_norm sums them there, and the
    # monotonicity gap reads the run values, which hold every value of the
    # grid's samples
    fine = [lp_norm(vv, p) for vv in vector_variations(fams, seq, spec, rhos, grids.pop())]
    aggs = dict(zip(rhos, vector_variations(fams, seq, spec, rhos, grids[0])))
    cases = []
    for rho, lhs2 in zip(rhos, fine):
        f_agg = np.sum(np.stack([np.abs(f.values) ** rho for f in fams]), axis=0) ** (1.0 / rho)
        rhs = lp_norm(GridFunction(f0.x0, f0.h, f_agg), p)
        lhs = lp_norm(aggs[rho], p)
        cases.append(CaseResult(f"rho{rho:g}", lhs, rhs, lhs / rhs, {"ratio_refined": lhs2 / rhs}))
    slack = inp.th["monotonicity_slack"]
    mono_ok = True
    worst_gap = 0.0
    for lo, hi in zip(rhos, rhos[1:]):
        gap = float(np.max(aggs[hi].run_values - aggs[lo].run_values))
        worst_gap = max(worst_gap, gap)
        scale_ref = max(1.0, float(np.max(aggs[lo].run_values)))
        if gap > slack * scale_ref:
            mono_ok = False
    stab, (finite, stable) = _stability(cases, inp.th["stability"])
    checks = [
        finite,
        Check("aggregate_monotone_in_rho", mono_ok, {"worst_gap": worst_gap, "slack": slack}),
        stable,
    ]
    return _Outcome(cases, checks, stab["base"], stab)


def _random_lacunary(rng, *, length_range=(2, 13), beta_range=(1.1, 3.0), gap_exp=2.0, max_top=None):
    while True:
        beta = float(rng.uniform(*beta_range))
        length = int(rng.integers(*length_range))
        ratios = beta * np.exp(rng.uniform(0.0, gap_exp, size=length - 1))
        scales = float(rng.uniform(0.5, 2.0)) * np.concatenate([[1.0], np.cumprod(ratios)])
        if max_top is not None and scales[-1] > max_top:
            continue
        return LacunarySeq(tuple(scales), beta)


def _run_refine_domination(sc, inp):
    rng = np.random.default_rng(sc.seed)
    n_seqs = inp.opts["sequence_count"]
    bad_structure = 0
    for _ in range(n_seqs):
        seq = _random_lacunary(rng)
        ref = refine(seq)  # construction re-validates the ratio window
        witness_ok = all(
            ref.scales[ref.origin_indices[t]] == seq.scales[t]
            for t in range(len(seq))
        )
        if not witness_ok:
            bad_structure += 1
    structure_case = CaseResult(
        "refine_structure", float(bad_structure), float(n_seqs),
        float(bad_structure) / n_seqs, {"sequences": n_seqs},
    )

    dom_seqs = [inp.seq] + [
        _random_lacunary(rng, length_range=(2, 5), beta_range=(1.2, 2.5), gap_exp=1.2, max_top=_MAX_TOP)
        for _ in range(3)
    ]
    slack = inp.th["domination_slack"]
    cases = [structure_case]
    worst = 0.0
    holder_ok = True
    refined = []  # Hoelder (gap, ratio) of the members whose refinement inserted scales
    for i, f in enumerate(inp.fams):
        seq = dom_seqs[i % len(dom_seqs)]
        ref = refine(seq)
        spec_o = replace(inp.spec, k_max=len(seq) - 1)
        spec_r = replace(inp.spec, k_max=len(ref) - 1)
        grid = inp.grids(f, inp._replace(seq=seq))[0]  # the default grid on the member's own seq
        v_o = variation(f, seq, spec_o, grid)
        v_r = variation(f, ref, spec_r, grid)
        gap = v_o.values - v_r.values
        viol = float(np.max(gap))
        tol = slack * max(1.0, float(np.max(v_r.values)))
        frac = float(np.mean(gap > tol))
        # Hoelder: a coarse increment sums at most m refined ones, so
        # V_o <= m^(1 - 1/s) V_r with m the most refined steps in one gap
        m = int(max(np.diff(ref.origin_indices), default=1))
        v_h = m ** (1.0 - 1.0 / sc.s) * v_r.values
        h_gap = float(np.max(v_o.values - v_h))
        pos = v_h > 0.0
        h_ratio = float(np.max(v_o.values[pos] / v_h[pos], initial=0.0))
        worst = max(worst, viol)
        holder_ok = holder_ok and h_gap <= tol
        if len(ref) > len(seq):
            refined.append((h_gap, h_ratio))
        cases.append(
            CaseResult(
                f"fn{i:03d}", viol, slack, viol / slack if slack else viol,
                {"violating_fraction": frac, "inserted_scales": len(ref) - len(seq)},
            )
        )
    dom_ok = all(
        c.lhs <= slack for c in cases[1:]
    )
    checks = [
        Check(
            "refined_structure",
            bad_structure == 0,
            {"sequences": n_seqs, "failures": bad_structure},
        ),
        Check(
            "pointwise_domination",
            dom_ok,
            {"max_violation": worst, "slack": slack},
        ),
        Check(
            "holder_domination",
            holder_ok,
            {
                "max_gap": max((gap for gap, _ in refined), default=0.0),
                "max_ratio": max((ratio for _, ratio in refined), default=0.0),
                "slack": slack,
            },
        ),
    ]
    return _Outcome(cases, checks, worst, constants={"max_violation": worst})


def _run_dr_condition(sc, inp):
    seq, th, opts = inp.seq, inp.th, inp.opts
    kspec = KernelSpec(seq, s=sc.s, k_max=inp.spec.k_max)
    j = opts["j"]
    i_lo, i_hi = opts["i_range"]
    y = opts.get("y", seq.scales[j])
    cases = []
    checks = []
    constants = {}
    for r in opts["r_values"]:
        drs = [drlem_check(i, j, y, kspec, r) for i in range(i_lo, i_hi + 1)]
        for d in drs:
            cases.append(
                CaseResult(
                    f"r{r:g}_i{d.i}", d.lhs, d.rhs, d.lhs / d.rhs,
                    {"dr_passed": d.passed, "c_bound": d.c_bound, "c_alt": d.c_alt},
                )
            )
        norm = np.array([d.lhs * seq.scales[d.i] ** (1.0 - 1.0 / r) for d in drs])
        gaps = np.array([d.i - j for d in drs], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):  # a norm of 0, or NaN, at a large s
            slope = float(np.polyfit(gaps, np.log(norm), 1)[0])
        target = -math.log(seq.beta) / r * (1.0 - th["decay_slope_slack"])
        shells = shell_integrals(y, kspec, r, range(1, opts["shell_l_max"] + 1))
        total = float(np.sum(shells.c))
        tail_share = float(np.sum(shells.c[-5:])) / total
        tag = f"r{r:g}"
        checks += [
            Check(f"dr_bound_{tag}", all(d.passed for d in drs), {"count": len(drs)}),
            Check(
                f"decay_slope_{tag}",
                slope <= target,
                {"slope": slope, "target": target},
            ),
            Check(
                f"shell_tail_{tag}",
                tail_share < th["shell_tail_share"],
                {"last5_share": tail_share, "threshold": th["shell_tail_share"]},
            ),
        ]
        constants[f"slope_{tag}"] = slope
        constants[f"shell_total_{tag}"] = total
        constants[f"shell_last5_share_{tag}"] = tail_share
    return _Outcome(cases, checks, max(c.ratio for c in cases), constants=constants)


def _run_fourier_bound(sc, inp):
    seq, th, grid = inp.seq, inp.th, inp.opts["xi_grid"]
    lo, hi = multiplier_scans(seq, grid, inp.opts["k_pair"])
    delta = abs(hi.sup_i - lo.sup_i)
    i2_max = float(np.max(hi.i_low))
    at0 = float(hi.i_sum[int(np.argmin(np.abs(hi.xi)))])
    # certified enclosure [sup I_K, max(I_K + T_K)] of the untruncated grid sup
    up_lo, up_hi = (
        float(np.max(s.i_sum + multiplier_tail(seq, grid, s.k_max))) for s in (lo, hi)
    )
    width_hi = up_hi - hi.sup_i
    cases = [
        CaseResult("sup_i", hi.sup_i, th["sup_i_bound"], hi.sup_i / th["sup_i_bound"], {}),
        CaseResult("k_doubling", delta, th["k_doubling_tol"], delta / th["k_doubling_tol"], {}),
        CaseResult("i2_max", i2_max, th["i2_bound"], i2_max / th["i2_bound"], {}),
        CaseResult("origin", at0, 0.0, 0.0, {}),
    ]
    checks = [
        Check("sup_i_finite", math.isfinite(hi.sup_i), {"sup_i": hi.sup_i}),
        Check(
            "k_doubling_stable",
            delta < th["k_doubling_tol"],
            {"delta": delta, "tolerance": th["k_doubling_tol"],
             "sup_i_lo": lo.sup_i, "sup_i_hi": hi.sup_i},
        ),
        Check("i2_bounded", i2_max <= th["i2_bound"], {"i2_max": i2_max}),
        Check("sup_i_bounded", hi.sup_i <= th["sup_i_bound"], {"sup_i": hi.sup_i}),
        Check("zero_at_origin", at0 == 0.0, {"value": at0}),
        Check(
            "sup_enclosure",
            lo.sup_i <= hi.sup_i <= up_hi <= up_lo and width_hi < th["k_doubling_tol"],
            {"sup_i_lo": lo.sup_i, "sup_i_hi": hi.sup_i, "upper_lo": up_lo, "upper_hi": up_hi,
             "width_lo": up_lo - lo.sup_i, "width_hi": width_hi, "tolerance": th["k_doubling_tol"]},
        ),
    ]
    constants = {
        "sup_i_lo": lo.sup_i,
        "sup_i_hi": hi.sup_i,
        "delta": delta,
        "sup_q_hi": hi.sup_q,
        "argmax_xi_lo": lo.argmax_xi,
        "argmax_xi_hi": hi.argmax_xi,
        "i2_max": i2_max,
    }
    return _Outcome(cases, checks, hi.sup_i / th["sup_i_bound"], constants=constants)


def _run_indicator_identity(sc, inp):
    seq, opts = inp.seq, inp.opts
    g = gamma(seq.beta)
    i_lo, i_hi = opts["i_range"]
    y_count, x_count = opts["y_count"], opts["x_count"]
    cases = []
    total_viol = 0
    for i in range(i_lo, i_hi + 1):
        ni, ni1 = seq.scales[i], seq.scales[i + 1]
        xs = ni + (ni1 - ni) * ((np.arange(x_count) + 0.5) / x_count)
        # one (y, x) grid per pair, with y in (0, n_j]
        counts = [indicator_identity_counts(i, j, seq.scales[j] * (np.arange(1, y_count + 1) / y_count), xs, seq)
                  for j in range(i - g + 1)]
        window_hits, violations = (sum(c[t] for c in counts) for t in (0, 1))
        total_viol += violations
        cases.append(
            CaseResult(
                f"i{i}", float(violations), 0.0, 0.0,
                {"samples": len(counts) * y_count * x_count, "window_hits": window_hits},
            )
        )
    checks = [
        Check("identity_exact_everywhere", total_viol == 0, {"violations": total_viol})
    ]
    return _Outcome(cases, checks, float(total_viol), constants={"gamma": g})


class _Kind(NamedTuple):
    run: Callable  # (scenario, its _Inputs) -> _Outcome
    grids: Callable | None  # (f, its _Inputs) -> the eval grids run samples f on; None without a uniform one
    reads: tuple  # what run reads that a config may set: Scenario fields, `options` keys, threshold names
    defaults: dict  # the Scenario fields other than kind, at desk-scale budgets


# Each scenario kind, once.  The `eval_*` options size the grids of a kind's
# grid rule; every option the defaults name must be set.
_SPEC = ("s", "k_max", "tail_tol", "enforce_tail")  # VariationSpec's fields; refine_domination sets its own k_max
KINDS = {
    "strong_pp": _Kind(_run_strong_pp, _grids_for, ("p", "family", *_SPEC, "eval_h", "stability"), dict(
        seq="geometric:0.03125:2:16", p=2.0,
        family={"kind": "random_step", "count": 20, "cells": 64, "length": 1.0})),
    "weak_11": _Kind(_run_weak_11, _grids_for, ("family", *_SPEC, "eval_h", "stability", "family_spread"), dict(
        seq="geometric:1:2:10", family={"kind": "spike", "epsilons": [0.0625, 0.125, 0.25]},
        options={"eval_h": 0.0625})),
    "h1_l1": _Kind(_run_h1_l1, None, (*_SPEC, "scale_exps", "atoms_per_scale", "atom_cells", "zone_points",
                                      "stability_h1", "scale_spread"), dict(
        seq="geometric:0.00006103515625:2:30",
        options={"scale_exps": list(range(-5, 6)), "atoms_per_scale": 20, "atom_cells": 32, "zone_points": 48})),
    "linf_bmo": _Kind(_run_linf_bmo, _grids_for, ("family", *_SPEC, "eval_h", "stability_bmo"), dict(
        seq="geometric:0.03125:2:9",
        family={"kind": "random_step", "count": 8, "cells": 64, "length": 1.0})),
    "l2_multiplier": _Kind(_run_l2_multiplier, _cell_grids, ("family", *_SPEC, "eval_cells", "xi_grid", "stability",
                                                             "multiplier_slack"), dict(
        seq="geometric:0.015625:2:13", p=2.0,
        family={"kind": "random_step", "count": 100, "cells": 64, "length": 1.0},
        options={"eval_cells": 65536, "xi_grid": "log:1e-6:1e6:8192"})),
    "weighted_pp": _Kind(_run_weighted_pp, _grids_for, ("p", "weight", "family", *_SPEC, "eval_h", "ap_min_len",
                                                        "stability_weighted", "ap_stability"), dict(
        seq="geometric:0.0625:2:10", p=2.0, weight="power:0.5",
        family={"kind": "random_step", "count": 10, "cells": 64, "length": 2.0, "x0": -1.0},
        options={"ap_min_len": 0.0625})),
    "weighted_weak11": _Kind(_run_weighted_weak11, _grids_for, ("weight", "family", *_SPEC, "eval_h", "dual_r",
                                                                "stability_weighted"), dict(
        seq="geometric:1:2:10", weight="power:-0.25",
        family={"kind": "spike", "epsilons": [0.0625, 0.125, 0.25]},
        options={"eval_h": 0.0625, "dual_r": 2.0})),
    "vector_valued": _Kind(_run_vector_valued, _grids_for, ("p", "rho", "family", *_SPEC, "eval_h", "stability",
                                                            "monotonicity_slack"), dict(
        seq="geometric:0.03125:2:16", p=2.0, rho=(1.5, 2.0, 3.0),
        family={"kind": "random_step", "count": 8, "cells": 64, "length": 1.0})),
    "refine_domination": _Kind(_run_refine_domination, _refine_grids, ("family", "s", "tail_tol", "enforce_tail",
                                                                       "sequence_count", "domination_slack"), dict(
        seq=(1.0, 8.0), beta=2.0,
        family={"kind": "random_step", "count": 20, "cells": 32, "length": 1.0},
        options={"sequence_count": 500})),
    "dr_condition": _Kind(_run_dr_condition, None, ("s", "k_max", "r_values", "j", "i_range", "y", "shell_l_max",
                                                    "decay_slope_slack", "shell_tail_share"), dict(
        seq="geometric:1:2:24",
        options={"r_values": [1.0, 2.0], "j": 0, "i_range": [1, 8], "shell_l_max": 20})),
    "fourier_bound": _Kind(_run_fourier_bound, None, ("xi_grid", "k_pair", "sup_i_bound", "k_doubling_tol", "i2_bound"), dict(
        seq="geometric:1:2:41", options={"xi_grid": "log:1e-6:1e6:8192", "k_pair": [20, 40]})),
    "indicator_identity": _Kind(_run_indicator_identity, None, ("i_range", "y_count", "x_count"), dict(
        seq="geometric:1:2:12", options={"i_range": [1, 8], "y_count": 16, "x_count": 64})),
}
