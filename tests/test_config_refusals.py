"""from_config either builds a scenario that runs, or raises ScenarioInvalid naming the field."""

import dataclasses

import pytest

from lacvar import DEFAULT_THRESHOLDS, SCENARIO_KINDS, Scenario, ScenarioInvalid, from_config, run_scenario
from lacvar import gridfn, harness, runners

BAD = (None, True, "x", [], [1], {}, -1, 0, 1e308, float("nan"), float("inf"), 2**70)


def _configs(kind: str):
    """{kind} with one other field, option, threshold or family parameter set to each bad value."""
    row = runners.KINDS[kind]
    family = row.defaults.get("family", {}).get("kind")
    params = ("kind", "x0", *gridfn.FAMILY_PARAMS[family]) if family else ()
    for val in BAD:
        for name in (f.name for f in dataclasses.fields(Scenario) if f.name != "kind"):
            yield {"kind": kind, name: val}
        for key in row.reads:
            if key in harness.OPTION_CHECKS:
                yield {"kind": kind, "options": {key: val}}
            if key in DEFAULT_THRESHOLDS:
                yield {"kind": kind, "thresholds": {key: val}}
        for key in params:
            yield {"kind": kind, "family": {key: val}}


@pytest.mark.parametrize("kind", [*SCENARIO_KINDS, None], ids=[*SCENARIO_KINDS, "kind"])
def test_from_config_raises_only_scenario_invalid(kind):
    other = []
    for cfg in _configs(kind) if kind else ({"kind": val} for val in BAD):
        try:
            from_config(cfg)
        except ScenarioInvalid:
            pass
        except Exception as exc:  # any other type is the failure under test
            other.append(f"{cfg!r} raised {type(exc).__name__}: {exc}")
    assert not other, "\n".join(other)


_WEIGHT = r"^weight: power:"


@pytest.mark.parametrize("cfg, message", [
    ({"kind": []}, r"^unknown scenario kind \[\]$"),
    ({"kind": {}}, r"^unknown scenario kind \{\}$"),
    ({"kind": "strong_pp", "family": {"kind": ["x"]}}, r"^family: unknown family kind \['x'\]$"),
    ({"kind": "linf_bmo", "family": {"length": 1e308}}, r"no finite length; the eval grid is sized by seq, k_max, family"),
    # a power weight is 0 or infinite at a midpoint that is exactly 0: of
    # the member grid at an odd cell count, or of the probe grid of w^dual_r
    ({"kind": "weighted_pp", "family": {"cells": 63}}, _WEIGHT),
    ({"kind": "weighted_pp", "family": {"cells": 65}}, _WEIGHT),
    ({"kind": "weighted_weak11", "family": {"x0": -0.03125}}, _WEIGHT),
    # and underflows to 0 near 0 at a large exponent
    ({"kind": "weighted_pp", "weight": "power:400"}, _WEIGHT),
    # a zero midpoint on one grid alone: an A_p probe grid at half the
    # member step, a grid of the rule at eval_h 0.1, the w^dual_r probe
    # grid, and the grid of the second spike
    ({"kind": "weighted_pp", "family": {"x0": -0.0078125}, "options": {"eval_h": 0.1}}, _WEIGHT),
    ({"kind": "weighted_pp", "family": {"x0": -0.05}, "options": {"eval_h": 0.1}}, _WEIGHT),
    ({"kind": "weighted_weak11", "family": {"x0": -0.09375}, "options": {"eval_h": 0.1}}, _WEIGHT),
    ({"kind": "weighted_weak11", "family": {"x0": -0.0625}}, _WEIGHT),
    # vector_valued aggregates its members pointwise
    ({"kind": "vector_valued", "family": {"kind": "indicator", "scales": [0.5, 2.0]}}, r"^family: the members lie on 2 grids"),
], ids=lambda v: None if isinstance(v, str) else repr(v))
def test_configs_that_failed_in_the_run_are_refused_naming_their_field(cfg, message):
    with pytest.raises(ScenarioInvalid, match=message):
        from_config(cfg)


def test_configs_next_to_the_refusals_run():
    # a midpoint next to 0 but not on it, a power of 0, which is 1 at 0, and
    # members that share one grid
    for cfg in (
        {"kind": "weighted_pp", "family": {"cells": 64}},
        {"kind": "weighted_pp", "family": {"cells": 63}, "weight": "power:0"},
        {"kind": "weighted_weak11", "family": {"x0": -0.03}},
        {"kind": "vector_valued", "family": {"kind": "indicator", "scales": [2.0, 2.0], "cells": 4}},
    ):
        assert run_scenario(from_config(cfg)).cases
