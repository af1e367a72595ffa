"""Each kind accepts only the config values its run reads: `KINDS[kind].reads`."""

import ast
import inspect
import json
import math
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from lacvar import DEFAULT_THRESHOLDS, SCENARIO_KINDS, ScenarioInvalid, emit_report, from_config, run_scenario
from lacvar import harness, runners
from lacvar.cases import CaseResult, Check


def _keys_read(node) -> set:
    """The names read as th["k"], opts["k"] or opts.get("k", ...) under node, th and opts bare or as inp.th."""
    def base(v):
        return v.id if isinstance(v, ast.Name) else v.attr if isinstance(v, ast.Attribute) else None

    keys = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Subscript) and base(n.value) in ("th", "opts") and isinstance(n.slice, ast.Constant):
            keys.add(n.slice.value)
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "get"
                and base(n.func.value) == "opts" and isinstance(n.args[0], ast.Constant)):
            keys.add(n.args[0].value)
    return keys


def _tree(fn) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _parse_branches() -> dict:
    """The options and thresholds read in _parse under `if sc.kind == "<kind>":`, by kind."""
    branches = {}
    for n in ast.walk(_tree(harness._parse)):
        test = n.test if isinstance(n, ast.If) else None
        if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Attribute) and test.left.attr == "kind"
                and isinstance(test.comparators[0], ast.Constant)):
            branches.setdefault(test.comparators[0].value, set()).update(*map(_keys_read, n.body))
    return branches


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_reads_names_the_options_and_thresholds_the_run_reads(kind):
    # both ways: what the runner, its grid rule and _parse's branch for the
    # kind read is in reads, and each option and threshold in reads is read
    row = runners.KINDS[kind]
    found = set().union(*(_keys_read(_tree(fn)) for fn in (row.run, row.grids) if fn), _parse_branches().get(kind, ()))
    named = {key for key in row.reads if key in harness.OPTION_CHECKS or key in DEFAULT_THRESHOLDS}
    assert found == named
    assert set(row.reads) <= set(harness.OPTION_CHECKS) | set(DEFAULT_THRESHOLDS) | set(harness._SETTABLE)


def _fields_read(node) -> set:
    """The Scenario fields read under node: sc.<field>, inp.weight, inp.fams
    (family), and inp.spec, which reads the fields of runners._SPEC it is
    used for: one, as inp.spec.k_max; those a replace(inp.spec, ...) keeps;
    else all four."""
    def inp(v, attr):
        return isinstance(v, ast.Attribute) and v.attr == attr and isinstance(v.value, ast.Name) and v.value.id == "inp"

    fields, specs, narrowed = set(), [], set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "sc":
            fields.update({n.attr} & set(harness._SETTABLE))
        fields.update({"weight"} if inp(n, "weight") else (), {"family"} if inp(n, "fams") else ())
        if inp(n, "spec"):
            specs.append(n)
        if isinstance(n, ast.Attribute) and inp(n.value, "spec"):
            fields.add(n.attr)
            narrowed.add(id(n.value))
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "replace" and inp(n.args[0], "spec"):
            fields.update(set(runners._SPEC) - {k.arg for k in n.keywords})
            narrowed.add(id(n.args[0]))
    return fields.union(*(runners._SPEC for n in specs if id(n) not in narrowed))


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_reads_names_the_fields_the_run_reads(kind):
    # both ways, through the runners helpers the run and grid rule call by
    # name, such as _family_cases, which reads inp.spec and inp.fams
    defs = {n.name: n for n in ast.parse(Path(runners.__file__).read_text(encoding="utf-8")).body
            if isinstance(n, ast.FunctionDef)}
    row = runners.KINDS[kind]
    todo, seen = [fn.__name__ for fn in (row.run, row.grids) if fn], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        todo += [n.func.id for n in ast.walk(defs[name]) if isinstance(n, ast.Call)
                 and getattr(n.func, "id", None) in defs and n.func.id not in seen]
    found = set().union(*(_fields_read(defs[name]) for name in seen))
    assert found == {key for key in row.reads if key in harness._SETTABLE}


def test_only_runners_and_grid_rules_read_options_and_thresholds():
    # a helper that read an option would escape the test above
    scanned = {fn.__name__ for row in runners.KINDS.values() for fn in (row.run, row.grids) if fn}
    tree = ast.parse(Path(runners.__file__).read_text(encoding="utf-8"))
    readers = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and _keys_read(n)}
    assert readers <= scanned


# a value other than every kind's default, for each field a kind may leave unread
OTHER = {
    "p": 3.0, "weight": "constant:3", "rho": [2.0], "family": {"kind": "spike", "epsilons": [0.5]},
    "lambda_grid": [1.0], "s": 3.0, "k_max": 2, "tail_tol": 1e-3, "enforce_tail": True,
}


def test_other_values_differ_from_every_default():
    assert set(OTHER) == set(harness._SETTABLE)
    for row in runners.KINDS.values():
        for name, val in OTHER.items():
            assert row.defaults.get(name, getattr(harness._BLANK, name)) != val


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_unread_values_are_refused_naming_them(kind):
    row = runners.KINDS[kind]
    for name in DEFAULT_THRESHOLDS:
        cfg = {"kind": kind, "thresholds": {name: DEFAULT_THRESHOLDS[name]}}
        if name in row.reads:
            from_config(cfg)
        else:
            with pytest.raises(ScenarioInvalid, match=rf"^unknown {kind} threshold '{name}'$"):
                from_config(cfg)
    for name in set(harness._SETTABLE) - set(row.reads):
        with pytest.raises(ScenarioInvalid, match=rf"^{kind} reads no {name}, so it must be "):
            from_config({"kind": kind, name: OTHER[name]})
    # the seed is taken by every kind, as perfbench and `lacvar verify --seed` pass one
    for seed in range(32):
        from_config({"kind": kind, "seed": seed})


def test_motivating_configs_are_refused():
    for cfg, field in (
        ({"kind": "strong_pp", "thresholds": {"sup_i_bound": 1.0}}, "threshold 'sup_i_bound'"),
        ({"kind": "strong_pp", "thresholds": {"stability_bmo": 0.0}}, "threshold 'stability_bmo'"),
        ({"kind": "indicator_identity", "thresholds": {"stability": 0.1}}, "threshold 'stability'"),
        ({"kind": "l2_multiplier", "p": 7}, "reads no p, so it must be 2.0; got 7"),
        ({"kind": "refine_domination", "k_max": 1}, "reads no k_max, so it must be unset; got 1"),
        ({"kind": "dr_condition", "enforce_tail": True}, "reads no enforce_tail, so it must be False"),
        # a name of one sort is not taken as another
        ({"kind": "strong_pp", "thresholds": {"eval_h": 1.0}}, "unknown strong_pp threshold 'eval_h'"),
        ({"kind": "strong_pp", "options": {"stability": 1.0}}, "unknown strong_pp option 'stability'"),
        ({"kind": "strong_pp", "options": {"p": 2.0}}, "unknown strong_pp option 'p'"),
    ):
        with pytest.raises(ScenarioInvalid, match=field):
            from_config(cfg)
    for kind in ("fourier_bound", "indicator_identity"):
        for name in ("s", "k_max", "tail_tol", "enforce_tail"):
            with pytest.raises(ScenarioInvalid, match=f"{kind} reads no {name}"):
                from_config({"kind": kind, name: OTHER[name]})
    # a value equal to the default, or unset in another spelling, is no change
    from_config({"kind": "l2_multiplier", "p": 2})
    from_config({"kind": "fourier_bound", "s": 2.0, "k_max": None, "lambda_grid": [], "rho": []})


def _strict(data: bytes):
    def refuse(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(data, parse_constant=refuse)


def test_a_report_with_non_finite_values_is_strict_json():
    # at s = 1000 dr_condition's kernel norms underflow to 0: the decay
    # slopes are NaN, written as null, and the log of 0 warns no more
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_scenario(from_config({"kind": "dr_condition", "s": 1000.0}))
    assert math.isnan(rep.constants["slope_r1"])
    doc = _strict(emit_report(rep))
    assert doc["constants"]["slope_r1"] is None
    assert not next(c for c in doc["checks"] if c["name"] == "decay_slope_r1")["passed"]
    # inside arrays too, numpy ones included, which the encoder's hook converts
    rep = harness.VerificationReport(
        "strong_pp", {}, [CaseResult("fn000", math.inf, 1.0, math.inf, {"v": np.array([1.0, np.nan]), "w": (-math.inf,)})],
        [Check("c", False, {"x": np.float64("nan")})], math.nan, None, {}, {}, 0, False)
    doc = _strict(emit_report(rep))
    assert doc["cases"] == [{"case_id": "fn000", "lhs": None, "rhs": 1.0, "ratio": None, "v": [1.0, None], "w": [None]}]
    assert doc["checks"][0]["detail"] == {"x": None} and doc["sup_ratio"] is None
