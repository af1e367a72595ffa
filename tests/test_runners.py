import collections
import hashlib

import pytest

from lacvar import Interval, from_config, parse_sequence, run_scenario
from lacvar import avgops, harness, runners, runs
from lacvar.runners import _atom_zones


# ------------------------------------------------------------- atom zones


def test_atom_zones_cover_translates():
    seq = parse_sequence("geometric:1:2:5")
    I = Interval(0.0, 0.5)
    zones = _atom_zones(I, seq, 4)
    for lo, hi in zones:
        assert hi > lo
    # zones are disjoint and ascending
    for (a, b), (c, d) in zip(zones, zones[1:]):
        assert c > b
    # every translate endpoint is inside some zone
    for nk in (0.0,) + seq.scales[:5]:
        assert any(lo <= I.lo + nk and I.hi + nk <= hi for lo, hi in zones)


def test_atom_zones_merge_overlaps():
    seq = parse_sequence("geometric:1:2:5")
    zones = _atom_zones(Interval(0.0, 3.0), seq, 4)
    # interval longer than the first scales: everything up front merges
    assert zones[0][0] == 0.0
    assert zones[0][1] >= 7.0


def test_h1_l1_draws_each_atom_once(monkeypatch):
    # one seeded draw per atom, dilated to every scale, not one per scale
    draws = collections.Counter()
    original = runners.atom_pattern

    def counting(seed, cells):
        draws[seed] += 1
        return original(seed, cells)

    monkeypatch.setattr(runners, "atom_pattern", counting)
    sc = from_config({"kind": "h1_l1", "seed": 4, "options": {"scale_exps": [-1, 0, 2], "atoms_per_scale": 3}})
    rep = run_scenario(sc)
    assert len(rep.cases) == 3 * 3
    assert draws == {4: 1, 5: 1, 6: 1}


@pytest.mark.parametrize("config, grids", [
    ({"kind": "l2_multiplier", "options": {"eval_cells": 4096}}, 2),
    ({"kind": "weak_11"}, 6),
])
def test_family_cases_build_each_grid_pair_once(monkeypatch, config, grids):
    # l2_multiplier's 100 random steps share one grid, so one pair of eval
    # grids, and one family call per grid, serves them all; the three
    # spikes of weak_11 each have their own grid and pair
    seen, calls = [], []
    original = runners.variations

    def recording(fs, seq, spec, eval_grid):
        calls.append(eval_grid)  # held, so no two grids share an id
        for v in original(fs, seq, spec, eval_grid):
            seen.append(eval_grid)
            yield v

    monkeypatch.setattr(runners, "variations", recording)
    rep = run_scenario(from_config(config))
    assert len(seen) == 2 * len(rep.cases)
    assert len({id(g) for g in seen}) == len(calls) == grids


@pytest.mark.parametrize("kind", ["weak_11", "strong_pp", "weighted_pp"])
def test_family_cases_sample_each_member_as_variations_at_does(kind):
    # weak_11's spikes each have their own grid (runs of one member);
    # strong_pp folds its 20 members in one group, weighted_pp in groups of
    # 2.  Each member's two samples must have the bits of the point route
    # at the same grids' midpoints, one member at a time, in member order
    inp = harness._parse(from_config({"kind": kind, "seed": 5}))
    got = []

    def digest(v):
        v = v.on_grid()
        got.append((v.x0, v.h, v.n, hashlib.sha256(v.values.tobytes()).hexdigest()))
        return 1.0

    runners._family_cases(inp, digest, lambda f: 1.0)
    want = [
        (g.x0, g.h, g.n, hashlib.sha256(avgops.variations_at([f], inp.seq, inp.spec, g.midpoints)[0].tobytes()).hexdigest())
        for f in inp.fams for g in runners._grids_for(f, inp)
    ]
    assert got == want


@pytest.mark.parametrize("config", [
    {"kind": "strong_pp", "family": {"count": 3}},
    {"kind": "l2_multiplier", "family": {"count": 3}, "options": {"eval_cells": 4096}},
    {"kind": "vector_valued", "family": {"count": 3}},
])
def test_norms_of_v_are_taken_on_the_runs(monkeypatch, config):
    # every unweighted lp_norm of V_s f sums it on its runs, never expanded
    # to the grid, and the members on one grid share one sum plan: one per
    # grid of the pair
    plans = []
    original = runs._SumPlan

    def counting(counts):
        plans.append(int(counts.sum()))
        return original(counts)

    def expand(self):
        raise AssertionError("V_s f was expanded to the grid")

    monkeypatch.setattr(runs, "_SumPlan", counting)
    monkeypatch.setattr(runs.RunFunction, "on_grid", expand)
    rep = run_scenario(from_config(config))
    assert len(rep.cases) == 3
    assert len(plans) == len(set(plans)) == 2  # the base grid and the refined one
