import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lacvar import (
    LacunarySeq,
    NonPositiveScale,
    NotIncreasing,
    RatioBelowBeta,
    RefinedSeq,
    gamma,
    parse_sequence,
    refine,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_validate_accepts_geometric():
    seq = LacunarySeq((1.0, 2.0, 4.0, 8.0), 2.0)
    assert seq.scales == (1.0, 2.0, 4.0, 8.0)
    assert len(seq) == 4
    assert seq[2] == 4.0


def test_validate_accepts_exact_ratio_tie():
    # ratio exactly beta must pass despite the floating comparison
    LacunarySeq((1.0, 1.5, 2.25), 1.5)


def test_nonpositive_scale_flags_index():
    with pytest.raises(NonPositiveScale) as exc:
        LacunarySeq((1.0, -2.0, 4.0), 2.0)
    assert exc.value.index == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -3.0])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_nonfinite_or_nonpositive_scale_flags_index(bad, at):
    scales = [1.0, 2.0, 4.0]
    scales[at] = bad
    with pytest.raises(NonPositiveScale) as exc:
        LacunarySeq(tuple(scales), 2.0)
    assert exc.value.index == at


def test_not_increasing_flags_index():
    with pytest.raises(NotIncreasing) as exc:
        LacunarySeq((1.0, 2.0, 2.0), 1.5)
    assert exc.value.index == 2


def test_ratio_below_beta_flags_latter_index():
    with pytest.raises(RatioBelowBeta) as exc:
        LacunarySeq((1.0, 2.0, 3.0), 2.0)
    assert exc.value.index == 2
    assert exc.value.ratio == pytest.approx(1.5)
    assert exc.value.beta == 2.0


def test_beta_must_exceed_one():
    with pytest.raises(ValueError):
        LacunarySeq((1.0, 2.0), 1.0)


# ------------------------------------------------------------------- gamma

# hand-checked: smallest g >= 1 with 1/beta + beta**-g <= 1
GAMMA_TABLE = {
    2.0: 1,
    3.0: 1,
    10.0: 1,
    GOLDEN: 2,  # 1/phi + 1/phi**2 = 1 exactly
    1.5: 3,  # need 1.5**-g <= 1/3, ln3/ln1.5 = 2.7095
    1.2: 10,  # need 1.2**-g <= 1/6, ln6/ln1.2 = 9.8276
}


@pytest.mark.parametrize("beta,expect", sorted(GAMMA_TABLE.items()))
def test_gamma_frozen_values(beta, expect):
    assert gamma(beta) == expect


def test_gamma_definition_holds():
    for beta in (1.05, 1.1, 1.3, 1.7, 2.0, 2.5, 4.0):
        g = gamma(beta)
        assert 1.0 / beta + beta ** (-g) <= 1.0 + 1e-12
        if g > 1:
            assert 1.0 / beta + beta ** (-(g - 1)) > 1.0 + 1e-12


@given(st.floats(min_value=1.01, max_value=50.0), st.floats(min_value=1.01, max_value=50.0))
def test_gamma_non_increasing(b1, b2):
    lo, hi = sorted((b1, b2))
    assert gamma(lo) >= gamma(hi)


@given(st.floats(min_value=2.0, max_value=100.0))
def test_gamma_is_one_from_two_up(beta):
    assert gamma(beta) == 1


# ------------------------------------------------------------------ refine


def test_refine_trace_with_gap():
    seq = LacunarySeq((1.0, 10.0), 2.0)
    ref = refine(seq)
    assert ref.scales == (1.0, 2.0, 4.0, 10.0)
    assert ref.origin_indices == (0, 3)


def test_refine_trace_single_insert():
    ref = refine(LacunarySeq((1.0, 5.0), 2.0))
    assert ref.scales == (1.0, 2.0, 5.0)
    assert ref.origin_indices == (0, 2)


def test_refine_no_op_when_already_tight():
    ref = refine(LacunarySeq((1.0, 2.0, 4.0), 2.0))
    assert ref.scales == (1.0, 2.0, 4.0)
    assert ref.origin_indices == (0, 1, 2)


@st.composite
def lacunary_seqs(draw):
    beta = draw(st.floats(min_value=1.1, max_value=3.0))
    length = draw(st.integers(min_value=2, max_value=10))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.5),
            min_size=length - 1,
            max_size=length - 1,
        )
    )
    first = draw(st.floats(min_value=0.01, max_value=100.0))
    scales = [first]
    for g in gaps:
        scales.append(scales[-1] * beta * math.exp(g))
    return LacunarySeq(tuple(scales), beta)


@given(lacunary_seqs())
def test_refine_ratios_land_in_window(seq):
    ref = refine(seq)
    b = seq.beta
    for a, c in zip(ref.scales, ref.scales[1:]):
        r = c / a
        assert r >= b * (1.0 - 1e-12)
        assert r <= b * b * (1.0 + 1e-12)


@given(lacunary_seqs())
def test_refine_keeps_original_as_subsequence(seq):
    ref = refine(seq)
    assert isinstance(ref, RefinedSeq)
    picked = [ref.scales[i] for i in ref.origin_indices]
    assert picked == list(seq.scales)
    assert list(ref.origin_indices) == sorted(set(ref.origin_indices))


@given(lacunary_seqs())
def test_refine_idempotent(seq):
    ref = refine(seq)
    again = refine(LacunarySeq(ref.scales, ref.beta))
    assert again.scales == ref.scales


@given(lacunary_seqs())
def test_lacunary_growth_lower_bound(seq):
    # n_k >= n_0 * beta^k, up to the ratio comparison slack
    for k, v in enumerate(seq.scales):
        assert v >= seq.scales[0] * seq.beta**k * (1.0 - 1e-9 * (k + 1))


# ------------------------------------------------------------------- parse


def test_parse_geometric_literal():
    seq = parse_sequence("geometric:1:2:4")
    assert seq.scales == (1.0, 2.0, 4.0, 8.0)
    assert seq.beta == 2.0


def test_parse_literal_with_fractional_base():
    seq = parse_sequence("geometric:0.03125:2:3")
    assert seq.scales == (0.03125, 0.0625, 0.125)


def test_parse_iterable_infers_beta():
    seq = parse_sequence([1.0, 3.0, 6.0])
    assert seq.beta == pytest.approx(2.0)


def test_parse_iterable_with_explicit_beta():
    seq = parse_sequence((1.0, 4.0, 16.0), 4.0)
    assert seq.beta == 4.0


def test_parse_passthrough():
    seq = LacunarySeq((1.0, 2.0), 2.0)
    assert parse_sequence(seq) is seq


def test_parse_rejects_bad_literal():
    with pytest.raises(ValueError):
        parse_sequence("geometric:1:2")
    with pytest.raises(ValueError):
        parse_sequence("arith:1:2:4")


def test_parse_literal_rejects_ratio_at_or_below_one():
    with pytest.raises(ValueError):
        parse_sequence("geometric:1:1:4")
