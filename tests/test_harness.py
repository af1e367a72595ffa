import collections
import copy
import hashlib
import json
import math
import os
import resource
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacvar import (
    DEFAULT_THRESHOLDS,
    BadParams,
    GridFunction,
    SCENARIO_KINDS,
    Scenario,
    ScenarioInvalid,
    default_scenario,
    emit_report,
    from_config,
    make_family,
    run_scenario,
    superlevel_measure,
    weak_sup,
)
from lacvar import Interval, avgops, gridfn, harness, runners
from lacvar.cases import _spread_check


# ----------------------------------------------------------- configuration


def test_defaults_exist_and_validate():
    for kind in SCENARIO_KINDS:
        sc = default_scenario(kind)
        sc.validate()
        assert sc.kind == kind


def test_default_scenario_rejects_unknown_kind():
    with pytest.raises(ScenarioInvalid):
        default_scenario("nosuch")


def test_default_scenario_returns_fresh_copies():
    default_scenario("strong_pp").family["count"] = 1
    default_scenario("h1_l1").options["scale_exps"].append(99)
    assert default_scenario("strong_pp").family["count"] == 20
    assert default_scenario("h1_l1").options["scale_exps"] == list(range(-5, 6))


def test_from_config_requires_kind():
    with pytest.raises(ScenarioInvalid):
        from_config({"seed": 3})


def test_from_config_rejects_unknown_fields():
    for cfg in (
        {"kind": "weak_11", "frobnicate": 1},
        {"kind": "weak_11", "thresholds": {"famly_spread": 0.0}},
        {"kind": "linf_bmo", "family": {"cont": 3}},
        {"kind": "linf_bmo", "family": {"kind": "spike", "epsilons": [0.5], "count": 3}},
    ):
        with pytest.raises(ScenarioInvalid):
            from_config(cfg)
    # options a runner does not read, including a key another kind reads
    for cfg, bad in (
        ({"kind": "strong_pp", "options": {"eval_hh": 0.1}}, "eval_hh"),
        ({"kind": "l2_multiplier", "options": {"eval_h": 0.1}}, "eval_h"),
        ({"kind": "weighted_pp", "options": {"dual_r": 3.0}}, "dual_r"),
        # weight literals: a typo, a file path and a bare JSON number
        ({"kind": "weighted_pp", "weight": "powr:0.5"}, "powr:0.5"),
        ({"kind": "weighted_weak11", "weight": "w.csv"}, "w.csv"),
        ({"kind": "weighted_pp", "weight": 0.5}, "0.5"),
        # literals that parse but cannot be sampled
        ({"kind": "weighted_weak11", "weight": "constant:-1"}, "constant:-1"),
        ({"kind": "weighted_pp", "weight": "constant:0"}, "constant:0"),
        ({"kind": "weighted_pp", "weight": "constant:inf"}, "constant:inf"),
        ({"kind": "weighted_weak11", "weight": "power:nan"}, "power:nan"),
        ({"kind": "weighted_pp", "weight": "power:inf"}, "power:inf"),
        # a field no runner reads, which would be silently ignored
        ({"kind": "weak_11", "lambda_grid": [1, 2]}, "lambda_grid"),
        # values of the wrong type or range, caught before any corpus is built
        ({"kind": "strong_pp", "s": "2"}, "exponent s"),
        ({"kind": "strong_pp", "p": "2"}, "exponent p"),
        ({"kind": "vector_valued", "rho": 2}, "rho"),
        ({"kind": "vector_valued", "rho": ["2"]}, "rho"),
        ({"kind": "strong_pp", "family": "x"}, "family"),
        ({"kind": "strong_pp", "options": [0.1]}, "options"),
        ({"kind": "strong_pp", "options": {"eval_h": -1}}, "eval_h"),
        ({"kind": "strong_pp", "options": {"eval_h": 0}}, "eval_h"),
        ({"kind": "vector_valued", "options": {"eval_h": "0.1"}}, "eval_h"),
        ({"kind": "l2_multiplier", "options": {"eval_cells": 0}}, "eval_cells"),
        ({"kind": "l2_multiplier", "options": {"eval_cells": 2.5}}, "eval_cells"),
        ({"kind": "strong_pp", "seed": "x"}, "seed"),
        ({"kind": "strong_pp", "seed": 1.0}, "seed"),
        ({"kind": "strong_pp", "seed": True}, "seed"),
        ({"kind": "strong_pp", "k_max": 1.5}, "k_max"),
        ({"kind": "strong_pp", "k_max": -3}, "k_max"),
        ({"kind": "strong_pp", "k_max": 0}, "k_max"),
        ({"kind": "strong_pp", "k_max": False}, "k_max"),
        ({"kind": "fourier_bound", "options": {"k_pair": 5}}, "k_pair"),
        ({"kind": "fourier_bound", "options": {"k_pair": [20]}}, "k_pair"),
        ({"kind": "fourier_bound", "options": {"k_pair": [20, 40.5]}}, "k_pair"),
        ({"kind": "fourier_bound", "options": {"k_pair": [20, True]}}, "k_pair"),
        ({"kind": "fourier_bound", "options": {"k_pair": None}}, "k_pair"),
        ({"kind": "dr_condition", "options": {"r_values": 5}}, "r_values"),
        ({"kind": "fourier_bound", "options": {"xi_grid": 3}}, "xi_grid"),
        ({"kind": "indicator_identity", "options": {"i_range": "a"}}, "i_range"),
        ({"kind": "h1_l1", "options": {"atoms_per_scale": "x"}}, "atoms_per_scale"),
        # values that each failed inside run_scenario when only their
        # neighbours were checked
        ({"kind": "fourier_bound", "options": {"xi_grid": "log:1:10"}}, "xi_grid"),
        ({"kind": "h1_l1", "options": {"atom_cells": 1}}, "atom_cells"),
        ({"kind": "dr_condition", "options": {"j": "x"}}, "options.j"),
        ({"kind": "h1_l1", "options": {"scale_exps": 3}}, "scale_exps"),
        ({"kind": "dr_condition", "options": {"shell_l_max": 0}}, "shell_l_max"),
        ({"kind": "dr_condition", "options": {"y": -1.0}}, "options.y"),
        ({"kind": "weighted_weak11", "options": {"dual_r": "a"}}, "dual_r"),
        ({"kind": "weighted_pp", "options": {"ap_min_len": -1}}, "ap_min_len"),
        # sequences, and indices past the sequence, that failed inside run_scenario
        ({"kind": "strong_pp", "seq": "bogus"}, "seq"),
        ({"kind": "strong_pp", "beta": 0.5}, "beta"),
        ({"kind": "strong_pp", "k_max": 99}, "k_max"),
        ({"kind": "dr_condition", "options": {"j": 100}}, "options.j"),
        ({"kind": "dr_condition", "options": {"i_range": [8, 1]}}, "i_range"),
        ({"kind": "indicator_identity", "options": {"i_range": [1, 40]}}, "i_range"),
        ({"kind": "fourier_bound", "options": {"k_pair": [20, 99]}}, "k_pair"),
        ({"kind": "h1_l1", "options": {"scale_exps": [2000]}}, "scale_exps"),
        ({"kind": "h1_l1", "options": {"scale_exps": [-2000]}}, "scale_exps"),
        # an atom wider than the top scale made every level 0 and the
        # scale spread divide by 0; one i fitted the decay slope to a point
        ({"kind": "h1_l1", "options": {"scale_exps": [100], "atoms_per_scale": 1}}, "options.scale_exps"),
        ({"kind": "h1_l1", "options": {"scale_exps": [16]}}, "options.scale_exps"),
        ({"kind": "h1_l1", "options": {"scale_exps": [-15]}}, "options.scale_exps"),
        ({"kind": "h1_l1", "k_max": 20, "options": {"scale_exps": [7]}}, "options.scale_exps"),
        ({"kind": "dr_condition", "options": {"i_range": [2, 2]}}, "options.i_range"),
        # values the library constructors refuse, which used to fail inside run_scenario
        ({"kind": "weak_11", "tail_tol": 0}, "tail_tol"),
        ({"kind": "weak_11", "tail_tol": "x"}, "tail_tol"),
        ({"kind": "weak_11", "s": float("inf")}, "exponent s"),
        ({"kind": "weak_11", "seq": [1.0], "beta": 2.0}, "seq has 1 scales"),
        ({"kind": "strong_pp", "family": {"count": "many"}}, "count"),
        ({"kind": "strong_pp", "family": {"length": -1}}, "length"),
        ({"kind": "strong_pp", "family": {"cells": 0}}, "cells"),
        ({"kind": "strong_pp", "family": {"seed": -1}}, "seed"),
        ({"kind": "strong_pp", "family": {"x0": "a"}}, "x0"),
        ({"kind": "weak_11", "family": {"epsilons": [0]}}, "epsilons"),
        ({"kind": "weak_11", "family": {"epsilons": [-1]}}, "epsilons"),
        ({"kind": "weak_11", "family": {"epsilons": [1e-320]}}, "family"),
        # a non-bool turned the tail gate on, and non-numeric thresholds
        # failed at their first comparison
        ({"kind": "weak_11", "enforce_tail": "yes"}, "enforce_tail"),
        ({"kind": "weak_11", "thresholds": {"stability": "x"}}, "thresholds.stability"),
        ({"kind": "weak_11", "thresholds": {"stability": None}}, "thresholds.stability"),
        # offsets and indices the kernel checks refuse
        ({"kind": "dr_condition", "options": {"y": 1e9}}, "options.y"),
        ({"kind": "dr_condition", "options": {"y": 1.5}}, "options.y"),
        ({"kind": "dr_condition", "options": {"j": 5}}, "options.i_range"),
        ({"kind": "dr_condition", "k_max": 3}, "options.i_range"),
        # probes the weighted kinds build from an option: no dyadic level of
        # the A_p family fits the domain, or w^dual_r overflows or underflows
        ({"kind": "weighted_pp", "options": {"ap_min_len": 100.0}}, "options.ap_min_len"),
        ({"kind": "weighted_pp", "family": {"x0": -0.7}, "options": {"ap_min_len": 2.0}}, "options.ap_min_len"),
        ({"kind": "weighted_weak11", "options": {"dual_r": 1e6}}, "options.dual_r"),
        ({"kind": "weighted_weak11", "options": {"dual_r": -1e6}}, "options.dual_r"),
        # fields a kind does not read, which it used to ignore
        ({"kind": "weak_11", "p": 2.0}, "reads no p"),
        ({"kind": "weak_11", "rho": [2.0]}, "reads no rho"),
        ({"kind": "weak_11", "weight": "power:0.5"}, "reads no weight"),
        ({"kind": "dr_condition", "family": {"kind": "spike", "epsilons": [0.5]}}, "reads no family"),
    ):
        with pytest.raises(ScenarioInvalid, match=bad):
            from_config(cfg)
    for kind in SCENARIO_KINDS:
        from_config({"kind": kind, "options": default_scenario(kind).options})
    from_config({"kind": "weighted_weak11", "options": {"eval_h": 0.125, "dual_r": 3.0}})
    from_config({"kind": "weighted_pp", "options": {"ap_min_len": 2.0}})  # the family's length
    from_config({"kind": "dr_condition", "options": {"y": 0.5}})
    from_config({"kind": "l2_multiplier", "options": {"eval_cells": 256}})
    from_config({"kind": "strong_pp", "seed": 7, "k_max": 3})
    from_config({"kind": "strong_pp", "k_max": None})
    from_config({"kind": "fourier_bound", "options": {"k_pair": (5, 10)}})
    from_config({"kind": "strong_pp", "options": {"eval_h": None}})
    from_config({"kind": "h1_l1", "options": {"scale_exps": [-14, 15]}})  # n_0 and n_29
    from_config({"kind": "h1_l1", "k_max": 20, "options": {"scale_exps": [6]}})
    from_config({"kind": "indicator_identity", "options": {"i_range": [2, 2]}})
    from_config({"kind": "dr_condition", "options": {"i_range": [2, 3]}})
    assert set(harness.OPTION_CHECKS) == {key for kind in runners.KINDS.values() for key in kind.options}
    with pytest.raises(BadParams, match="cont"):
        make_family("random_step", {"count": 3, "cont": 3})


def test_from_config_merges_over_defaults():
    sc = from_config({"kind": "strong_pp", "seed": 9, "family": {"count": 3}})
    assert sc.seed == 9
    assert sc.family["count"] == 3
    assert sc.family["cells"] == 64  # untouched default survives the merge
    assert sc.options == default_scenario("strong_pp").options
    # a family of another kind replaces the default instead of merging over it
    spikes = from_config({"kind": "strong_pp", "family": {"kind": "spike", "epsilons": [0.5]}})
    assert spikes.family == {"kind": "spike", "epsilons": [0.5]}


def test_scenario_validation_rules():
    with pytest.raises(ScenarioInvalid):
        Scenario(kind="strong_pp", p=None, family={"kind": "indicator"}).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario(kind="weighted_pp", p=2.0, weight=None, family={"kind": "indicator"}).validate()
    with pytest.raises(ScenarioInvalid):
        Scenario(kind="vector_valued", p=2.0, rho=(), family={"kind": "indicator"}).validate()
    with pytest.raises(ScenarioInvalid):
        from_config({"kind": "strong_pp", "p": 0.5})
    with pytest.raises(ScenarioInvalid):
        from_config({"kind": "strong_pp", "s": 0.5})


@pytest.mark.parametrize("min_len", [1e-9, 1e-300])
def test_weighted_pp_refuses_an_ap_family_too_large_to_build(min_len):
    # at 1e-9 the finest level alone has 2^31 candidates per shift, 16 GiB of
    # int64; capping the address space 1 GiB above its size now turns a family
    # that is built anyway into a MemoryError, not an exhausted machine
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE") + 2**30
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        with pytest.raises(ScenarioInvalid, match=r"options\.ap_min_len: min_len .* needs more than 4194304 intervals"):
            from_config({"kind": "weighted_pp", "options": {"ap_min_len": min_len}})
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_linf_bmo_refuses_a_bmo_family_too_large_to_build():
    # at eval_h 1e-5 the refined grid's family needs more than 2^22
    # intervals: the run used to fail on it after about 1.25 s and 340 MB.
    # It is now counted in from_config, without an array (the family alone
    # would be 64 MiB of endpoints)
    cfg = {"kind": "linf_bmo", "options": {"eval_h": 1e-5}, "family": {"count": 1}}
    from_config({**cfg, "options": {}})  # the member's grid and tables, made outside the traced call
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioInvalid, match=r"options\.eval_h: min_len 5e-06 needs more than 4194304 intervals"):
            from_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def test_linf_bmo_counts_the_families_its_run_builds(monkeypatch):
    # the refusal counts what the run builds: with the cap at the refined
    # grid's count the defaults pass, and one below it they are refused
    inp = harness._parse(from_config({"kind": "linf_bmo"}))
    sizes = [gridfn.dyadic_family_size(Interval(g.x0, g.x1), g.h, margin=g.x1 - g.x0)
             for g in runners._grids_for(inp.fams[0], inp)]
    assert sizes[0] < sizes[1]
    monkeypatch.setattr(gridfn, "_MAX_INTERVALS", sizes[1])
    run_scenario(from_config({"kind": "linf_bmo", "family": {"count": 1}}))
    monkeypatch.setattr(gridfn, "_MAX_INTERVALS", sizes[1] - 1)
    with pytest.raises(ScenarioInvalid, match=r"options\.eval_h"):
        from_config({"kind": "linf_bmo"})


@pytest.mark.parametrize("cfg", [
    {"kind": "strong_pp", "seq": "geometric:0.03125:2:40"},
    {"kind": "weighted_weak11", "seq": "geometric:1:10:10"},
    {"kind": "vector_valued", "family": {"length": 0.001, "cells": 200}},
    {"kind": "weak_11", "options": {"eval_h": 1e-320}},
])
def test_family_kinds_refuse_an_eval_grid_too_large_to_build(cfg):
    # a longer seq, a shorter family or a finer step asks for 2^40 points,
    # 119 GiB or more than a float counts: the run used to fail to allocate
    # the midpoints.  Each grid is counted in from_config, without an array
    from_config({"kind": cfg["kind"]})  # the default members and tables, made outside the traced call
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioInvalid, match=r"the eval grid needs (\d+|inf) points, more than 4194304; "
                           r"it is sized by seq, k_max, family and options\.eval_h"):
            from_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18


@pytest.mark.parametrize("cfg, field", [
    # passed from_config; the run failed at the midpoints of the grid on seq
    ({"kind": "refine_domination", "seq": "geometric:1:1000:10"},
     r"the eval grid needs \d+ points, more than 4194304; it is sized by seq, k_max, family$"),
    # 74.5 GiB and 1.49 GiB of frequencies, asked for inside from_config
    ({"kind": "fourier_bound", "options": {"xi_grid": "log:1e-6:1e6:10000000000"}},
     r"options\.xi_grid: 'log:1e-6:1e6:10000000000' has 20000000001 frequencies, more than 4194304"),
    ({"kind": "fourier_bound", "options": {"xi_grid": "log:1e-6:1e6:100000000"}}, r"options\.xi_grid: .* has 200000001 frequencies"),
    # the members' cells: two inside from_config, one in the run
    ({"kind": "strong_pp", "family": {"count": 100000000}}, r"family: the members hold 6400000000 cells, more than 4194304"),
    ({"kind": "strong_pp", "family": {"cells": 100000000, "count": 1}}, r"family: the members hold 100000000 cells"),
    ({"kind": "refine_domination", "family": {"cells": 10000000, "count": 4}}, r"family: the members hold 40000000 cells"),
    # 22.4 GiB of zone cells, and 931 GiB of (y, x) points, in the run
    ({"kind": "h1_l1", "options": {"zone_points": 1000000000, "scale_exps": [0], "atoms_per_scale": 1}},
     r"options\.zone_points must be a count that tiles each scale's atom zones, refined, with at most 4194304 cells"),
    ({"kind": "indicator_identity", "options": {"y_count": 1000000, "x_count": 1000000}},
     r"options\.y_count must be a count with y_count \* x_count at most 4194304, the \(y, x\) grid of one pair"),
])
def test_runs_refuse_an_array_too_large_to_build(cfg, field):
    # each of these used to fail to allocate, in from_config or in the run;
    # each is now counted in from_config, without an array, and refused
    # naming the field that sizes it
    from_config({"kind": cfg["kind"]})  # the defaults' members and tables, made outside the traced call
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioInvalid, match=field):
            from_config(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def test_eval_grid_cap_counts_the_grids_the_run_builds(monkeypatch):
    # for every kind with a grid rule, each eval grid the run hands to the
    # kernel is one that _parse counted by that rule; refine_domination's
    # random sequences ask for grids at f's origin and step no longer than
    # the widest one it counted.  With the cap at the largest counted grid
    # the config passes, and one below it it is refused
    handed = []
    for name in ("variations", "vector_variations", "variation"):
        def spy(fs, seq, spec, *rest, _original=getattr(runners, name)):
            handed.append((seq, rest[-1]))
            return _original(fs, seq, spec, *rest)

        monkeypatch.setattr(runners, name, spy)
    kinds = [kind for kind, row in runners.KINDS.items() if row.grids]
    assert len(kinds) == 8
    for kind in kinds:
        row, counted = runners.KINDS[kind], []

        def counting(f, inp, rule=row.grids):
            grids = rule(f, inp)
            counted.extend(grids)
            return grids

        cfg = {"kind": kind, "family": {"count": 5}} if "count" in row.defaults["family"] else {"kind": kind}
        with monkeypatch.context() as mp:
            mp.setitem(runners.KINDS, kind, row._replace(grids=counting))
            sc = from_config(cfg)
            counted.clear()
            inp = harness._parse(sc)
            parsed = list(counted)  # the run calls the rule too
            keys, most = {(g.x0, g.h, g.n) for g in parsed}, max(g.n for g in parsed)
            handed.clear()
            row.run(sc, inp)
            assert handed, kind
            for seq, g in handed:
                if kind != "refine_domination" or seq is inp.seq:
                    assert (g.x0, g.h, g.n) in keys, kind
                assert any(g.x0 == c.x0 and g.h == c.h for c in parsed) and g.n <= most, kind
            mp.setattr(harness, "_MAX_EVAL_POINTS", most)
            from_config(cfg)
            mp.setattr(harness, "_MAX_EVAL_POINTS", most - 1)
            with pytest.raises(ScenarioInvalid, match=f"the eval grid needs {most} points"):
                from_config(cfg)


def test_linf_bmo_names_every_input_that_sizes_its_grid():
    # this seq alone makes the refined grid's BMO family too large; the
    # refusal named options.eval_h, which the config never set
    with pytest.raises(ScenarioInvalid, match=r"needs more than 4194304 intervals .*; "
                       r"the eval grid is sized by seq, k_max, family and options\.eval_h"):
        from_config({"kind": "linf_bmo", "seq": "geometric:0.03125:1000:3"})


def test_spread_check_fails_on_a_zero_min():
    # (max - min) / min has no value at min 0: the check fails with spread
    # None (null in the report) instead of raising ZeroDivisionError
    for values in ([0.0, 1.0], [0.0, 0.0]):
        check = _spread_check("s", values, 0.1, extra=1)
        assert not check.passed
        assert check.detail == {"spread": None, "threshold": 0.1, "extra": 1}
    assert _spread_check("s", [1.0, 1.05], 0.1).passed
    assert not _spread_check("s", [1.0, 1.5], 0.1).passed
    # nor has it one when a value is not finite, whatever the order: min
    # over a list holding NaN depends on where the NaN stands
    for values in ([1.0, math.nan], [math.nan, 1.0], [1.0, math.inf], [1.0, 1.05, -math.inf]):
        check = _spread_check("s", values, 0.1)
        assert not check.passed and check.detail["spread"] is None
    # at s = 1000 the atoms of the smallest scales give V_s f = NaN
    with np.errstate(all="ignore"):
        rep = run_scenario(from_config({"kind": "h1_l1", "s": 1000, "options": {"scale_exps": [-5, 0]}}))
    check = next(c for c in rep.checks if c.name == "scale_spread")
    assert not check.passed and check.detail["spread"] is None
    assert json.loads(emit_report(rep))["checks"][-1]["detail"]["spread"] is None



def test_h1_l1_scale_sup_is_nan_when_a_case_is():
    # the three atoms of scale 2^-5 all come out NaN at s = 1000; the
    # scale's sup was max(0.0, NaN) = 0.0, which hid them
    with np.errstate(all="ignore"):
        rep = run_scenario(from_config({"kind": "h1_l1", "s": 1000, "options": {"scale_exps": [-5, 0], "atoms_per_scale": 3}}))
    assert [math.isnan(c.lhs) for c in rep.cases] == [True] * 3 + [False] * 3
    check = next(c for c in rep.checks if c.name == "scale_spread")
    sups = check.detail["per_scale_sup"]
    assert math.isnan(sups["-5"]) and sups["0"] == max(c.lhs for c in rep.cases[3:])
    assert not check.passed and check.detail["spread"] is None


NEEDS_P = ("strong_pp", "l2_multiplier", "weighted_pp", "vector_valued")
NEEDS_FAMILY = (
    "strong_pp", "weak_11", "linf_bmo", "l2_multiplier",
    "weighted_pp", "weighted_weak11", "vector_valued", "refine_domination",
)


@pytest.mark.parametrize(
    "kind, field",
    [(kind, "p") for kind in NEEDS_P] + [(kind, "family") for kind in NEEDS_FAMILY]
    + [("weighted_pp", "weight"), ("weighted_weak11", "weight"), ("vector_valued", "rho")],
)
def test_kind_default_without_p_or_family_is_rejected(kind, field):
    cleared, message = {
        "p": (None, "needs p"),
        "family": ({}, "needs a function family"),
        "weight": (None, "needs a weight literal"),
        "rho": ((), "needs aggregation exponents rho > 1"),
    }[field]
    with pytest.raises(ScenarioInvalid, match=message):
        replace(default_scenario(kind), **{field: cleared}).validate()


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, row in runners.KINDS.items() for key in row.defaults.get("options", {})],
)
def test_kind_default_without_a_named_option_is_rejected(kind, key):
    # a Scenario made directly gets no option its defaults name: h1_l1
    # without zone_points passed validate and raised KeyError in the run
    defaults = copy.deepcopy(runners.KINDS[kind].defaults)
    del defaults["options"][key]
    with pytest.raises(ScenarioInvalid, match=rf"{kind} needs options\.{key}, as its defaults name it"):
        Scenario(kind, **defaults).validate()


def test_thresholds_merge_into_report():
    sc = from_config({"kind": "weak_11", "thresholds": {"stability": 0.02}})
    rep = run_scenario(sc)
    assert rep.thresholds["stability"] == 0.02
    assert rep.thresholds["family_spread"] == DEFAULT_THRESHOLDS["family_spread"]


# -------------------------------------------------------------- weak sup


def test_weak_sup_hand_value():
    v = GridFunction(0.0, 1.0, [3.0, 1.0, 2.0])
    # candidates: 3*1, 2*2, 1*3 -> 4
    assert weak_sup(v) == 4.0


def test_weak_sup_weighted_cells():
    v = GridFunction(0.0, 1.0, [3.0, 1.0, 2.0])
    w = np.array([1.0, 1.0, 10.0])
    # candidates: 3*1, 2*11, 1*12 -> 22
    assert weak_sup(v, w) == 22.0


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=60))
def test_weak_sup_dominates_lambda_scan(vals):
    v = GridFunction(0.0, 0.125, vals)
    exact = weak_sup(v)
    lams = np.linspace(0.0, max(vals) + 1.0, 97)
    scan = max(lam * superlevel_measure(v, lam) for lam in lams)
    assert exact >= scan - 1e-12
    assert exact <= max(vals) * 0.125 * len(vals) + 1e-12



# ----------------------------------------------------------------- reports


def test_report_shape_and_bytes():
    rep = run_scenario(default_scenario("weak_11"))
    data = emit_report(rep, "json")
    doc = json.loads(data)
    assert doc["schema"] == "lacvar-report/1"
    assert doc["kind"] == "weak_11"
    assert doc["passed"] is True
    assert {"cases", "checks", "scenario", "thresholds", "seed"} <= set(doc)
    assert all({"case_id", "lhs", "rhs", "ratio"} <= set(c) for c in doc["cases"])
    # wall-clock timing stays off the wire
    assert b"elapsed" not in data
    assert rep.elapsed_s > 0.0


def test_report_csv_format():
    rep = run_scenario(default_scenario("weak_11"))
    lines = emit_report(rep, "csv").decode().splitlines()
    assert lines[0] == "case_id,lhs,rhs,ratio"
    assert len(lines) == len(rep.cases) + 1
    assert lines[1].startswith("fn000,")


def test_report_rejects_unknown_format():
    rep = run_scenario(default_scenario("weak_11"))
    with pytest.raises(ValueError):
        emit_report(rep, "xml")


@pytest.mark.parametrize(
    "config",
    [{"kind": "weak_11"}, {"kind": "strong_pp", "family": {"count": 4}}],
    ids=["weak_11", "strong_pp"],
)
def test_report_bytes_deterministic_across_runs(config):
    sc = from_config(config)
    assert emit_report(run_scenario(sc), "json") == emit_report(run_scenario(sc), "json")


def test_cases_run_on_the_calling_thread(monkeypatch):
    # LACVAR_THREADS is not read: a pool used to run these 65,600-point calls on 4 workers
    started = []
    start = threading.Thread.start

    def spy(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setenv("LACVAR_THREADS", "4")
    run_scenario(from_config({"kind": "strong_pp", "family": {"count": 4}}))
    assert started == []


def test_vector_valued_computes_each_variation_once(monkeypatch):
    # every V_s f comes from the family route's rows; count them per member
    # and grid, holding each grid so that no two share an id
    rows = collections.Counter()
    grids = []
    original = avgops._representatives

    def counting(fs, seq, spec, grid):
        grids.append(grid)
        counts, it = original(fs, seq, spec, grid)

        def recorded():
            for f, row in zip(fs, it):
                rows[id(f), id(grid)] += 1
                yield row

        return counts, recorded()

    monkeypatch.setattr(avgops, "_representatives", counting)
    rep = run_scenario(from_config({"kind": "vector_valued", "family": {"count": 2}}))
    assert len(rep.cases) == 3  # rho = 1.5, 2, 3
    # V_s f does not depend on rho: each member once on the base grid and
    # once on the refined one, in one call per grid
    assert len(grids) == len({id(g) for g in grids}) == 2
    assert sorted(rows.values()) == [1] * (2 * 2)



def test_weak_11_memory_peak_holds_one_grid_pair():
    # the grid pair of the member in hand and its cached midpoints are all
    # the family loop keeps; holding every member's pair added 0.56 MiB
    sc = from_config({"kind": "weak_11", "seed": 12})
    run_scenario(sc)  # warm the caches outside the traced run
    tracemalloc.start()
    try:
        run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.76 * 2**20


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_run_scenario_parses_each_input_once(monkeypatch, kind):
    sc = from_config({"kind": kind})
    calls = collections.Counter()
    for name in ("parse_sequence", "parse_weight", "parse_xi_grid", "make_family"):
        def counting(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    run_scenario(sc)
    assert calls["parse_sequence"] == 1
    assert max(calls.values()) == 1, calls


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


# the name predates the variation kinds; it is kept so that the
# existing test ids stay stable
@pytest.mark.parametrize("seed", [0, 1, 12])
@pytest.mark.parametrize(
    "kind",
    ["linf_bmo", "weighted_pp", "weighted_weak11", "strong_pp", "h1_l1", "vector_valued", "l2_multiplier", "weak_11",
     "refine_domination", "dr_condition", "fourier_bound", "indicator_identity"],
)
def test_interval_family_reports_match_benchmark_reference(kind, seed):
    # the case table prints lhs with 17 digits, so a one-bit move in the
    # kernel, the rho fold or bmo_norm changes this digest
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["seeds"][str(seed)][kind]
    rep = run_scenario(from_config({"kind": kind, "seed": seed}))
    assert hashlib.sha256(emit_report(rep, "csv")).hexdigest() == ref["case_csv_sha256"]
    # figures such as ap_estimate and a1_estimate appear only in the JSON
    # report; the recorded JSON of refine_domination and fourier_bound
    # predates their holder_domination and sup_enclosure checks
    if kind not in ("refine_domination", "fourier_bound"):
        assert hashlib.sha256(emit_report(rep, "json")).hexdigest() == ref["report_sha256"]
    verdicts = {c.name: bool(c.passed) for c in rep.checks}
    assert {name: verdicts.get(name) for name in ref["verdicts"]} == ref["verdicts"]


def test_seed_changes_random_cases_not_schema():
    base = run_scenario(default_scenario("strong_pp"))
    alt = run_scenario(from_config({"kind": "strong_pp", "seed": 1}))
    assert base.sup_ratio != alt.sup_ratio
    assert [c.case_id for c in base.cases] == [c.case_id for c in alt.cases]


def test_scaled_down_strong_pp_passes():
    sc = from_config({"kind": "strong_pp", "family": {"count": 4}})
    rep = run_scenario(sc)
    assert rep.passed
    assert len(rep.cases) == 4
    assert all(c.extra["tail_bound"] >= 0.0 for c in rep.cases)


def test_scaled_down_dr_condition():
    # note shell_l_max stays at its default: the last-5 share check is a
    # statement about a 20-shell budget and fails by design on short ones
    sc = from_config({"kind": "dr_condition", "options": {"i_range": [1, 4]}})
    rep = run_scenario(sc)
    assert rep.passed
    assert {c.name for c in rep.checks} == {
        "dr_bound_r1", "decay_slope_r1", "shell_tail_r1",
        "dr_bound_r2", "decay_slope_r2", "shell_tail_r2",
    }


def test_tail_diagnostics_attached_to_cases():
    rep = run_scenario(from_config({"kind": "weak_11"}))
    for c in rep.cases:
        assert "tail_bound" in c.extra
