"""Step-function layer: canonical distributions, dyadic blocks, projections."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispect import (
    Distribution,
    PositionedStep,
    Seq,
    disjoint_sum,
    dyadic_average,
    dyadic_embed,
    dyadic_sample,
    equimeasurable,
    rearrange,
)
from rispect.shifts import shift
from rispect.steps import floor_log2

atom_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=50.0),
    ),
    max_size=8,
)


# --- floor_log2 ------------------------------------------------------------


def test_floor_log2_exact_on_powers():
    for k in range(-1000, 1001, 37):
        t = math.ldexp(1.0, k)
        assert floor_log2(t) == k
        assert floor_log2(t * 1.5) == k


def test_floor_log2_near_boundaries():
    assert floor_log2(1.0) == 0
    assert floor_log2(math.nextafter(1.0, 0.0)) == -1
    assert floor_log2(math.nextafter(4.0, 0.0)) == 1
    assert floor_log2(4.0) == 2


def test_floor_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        floor_log2(0.0)
    with pytest.raises(ValueError):
        floor_log2(-2.0)


# --- Distribution ----------------------------------------------------------


def test_distribution_sorts_and_merges():
    d = Distribution(((1.0, 2.0), (3.0, 1.0)))
    assert d.atoms == ((3.0, 1.0), (1.0, 2.0))
    merged = Distribution(((2.0, 0.5), (2.0, 0.5), (1.0, 1.0)))
    assert merged.atoms == ((2.0, 1.0), (1.0, 1.0))


def test_distribution_drops_zero_atoms():
    assert Distribution(((0.0, 5.0), (2.0, 0.0))).is_zero


def test_distribution_rejects_bad_atoms():
    with pytest.raises(ValueError):
        Distribution(((-1.0, 1.0),))
    with pytest.raises(ValueError):
        Distribution(((1.0, -1.0),))
    with pytest.raises(ValueError):
        Distribution(((math.inf, 1.0),))


def test_distribution_scale():
    d = Distribution(((2.0, 1.0), (1.0, 3.0)))
    s = d.scale(-2.0)
    assert s.atoms == ((4.0, 1.0), (2.0, 3.0))
    assert d.scale(0.0).is_zero


@given(atom_lists)
def test_distribution_canonical_invariants(pairs):
    d = Distribution(tuple(pairs))
    values = [v for v, _ in d.atoms]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
    assert all(m > 0 for _, m in d.atoms)
    assert d.total_measure == pytest.approx(sum(m for _, m in pairs), rel=1e-12)


# --- rearrange / equimeasurable -------------------------------------------


def test_rearrange_profile():
    d = Distribution(((1.0, 2.0), (3.0, 1.0)))
    assert rearrange(d) == [(3.0, 0.0, 1.0), (1.0, 1.0, 3.0)]
    assert rearrange(Distribution()) == []


def test_rearrange_merges_equal_values():
    d = Distribution(((2.0, 0.5), (2.0, 0.5), (1.0, 1.0)))
    assert rearrange(d) == [(2.0, 0.0, 1.0), (1.0, 1.0, 2.0)]


def test_equimeasurable_multiset_semantics():
    a = Distribution(((1.0, 2.0), (3.0, 1.0)))
    b = Distribution(((3.0, 1.0), (1.0, 2.0)))
    assert equimeasurable(a, b)
    assert not equimeasurable(Distribution(((1.0, 2.0),)), Distribution(((1.0, 1.0),)))
    # duplicate atoms merge, so level 2 carries measure 2 on the right
    assert not equimeasurable(
        Distribution(((2.0, 1.0),)), Distribution(((2.0, 1.0), (2.0, 1.0)))
    )


@given(atom_lists)
def test_equimeasurable_is_permutation_invariant(pairs):
    d1 = Distribution(tuple(pairs))
    d2 = Distribution(tuple(reversed(pairs)))
    assert equimeasurable(d1, d2)


# --- Seq as a step function / embedding -----------------------------------


def test_embed_unit_vector():
    step = dyadic_embed(Seq.unit(0))
    assert step.distribution().atoms == ((1.0, 1.0),)


def test_embed_two_blocks():
    step = dyadic_embed(Seq({0: 1.0, 1: 2.0}))
    assert step.distribution().atoms == ((2.0, 2.0), (1.0, 1.0))


def test_embed_zero():
    assert dyadic_embed(Seq()).is_zero
    assert dyadic_embed(Seq()).distribution().is_zero


def test_embed_one_atom_per_distinct_coefficient():
    step = dyadic_embed(Seq({-2: 3.0, 0: -1.0, 5: 0.5}))
    assert step.distribution().atoms == ((3.0, 0.25), (1.0, 1.0), (0.5, 32.0))


def test_dyadic_step_rejects_far_blocks():
    with pytest.raises(ValueError):
        Seq({1001: 1.0})


# --- dilation --------------------------------------------------------------


def test_dilate_doubles_measures():
    # dilation by 2 is the shift of the block coefficients by one
    x = Seq({0: 1.0, 1: 0.5})
    d = shift(x, 1).distribution()
    assert d.atoms == ((1.0, 2.0), (0.5, 4.0))


# --- dyadic_average (block projection) -------------------------------------


def test_average_fixes_dyadic_steps():
    x = Seq({0: 1.0, 3: -2.0, -4: 0.25})
    assert dyadic_average(x.to_positioned()).coeffs == x.coeffs


def test_average_half_block():
    x = PositionedStep(((1.0, 1.5, 1.0),))
    assert dyadic_average(x).coeffs == {0: 0.5}


def test_average_straddling_piece():
    x = PositionedStep(((2.0, 3.0, 2.0),))
    assert dyadic_average(x).coeffs == {1: 1.0}


def test_average_rejects_pieces_at_zero():
    with pytest.raises(ValueError):
        dyadic_average(PositionedStep(((0.0, 1.0, 1.0),)))


def test_positioned_step_rejects_overlap():
    with pytest.raises(ValueError):
        PositionedStep(((1.0, 3.0, 1.0), (2.0, 4.0, 1.0)))
    with pytest.raises(ValueError):
        PositionedStep(((2.0, 2.0, 1.0),))
    with pytest.raises(ValueError):
        PositionedStep(((-1.0, 2.0, 1.0),))


@given(
    st.dictionaries(
        st.integers(-60, 60),
        st.floats(-9, 9).filter(lambda v: abs(v) > 1e-9),
        max_size=8,
    )
)
def test_average_is_identity_on_embedded_sequences(coeffs):
    a = Seq(coeffs)
    step = dyadic_embed(a)
    assert dyadic_average(step.to_positioned()).coeffs == step.coeffs


# --- disjoint_sum ----------------------------------------------------------


def test_disjoint_sum_examples():
    d = Distribution(((1.0, 1.0),))
    assert disjoint_sum([1.0, 1.0], d).atoms == ((1.0, 2.0),)
    assert disjoint_sum([2.0, 1.0], d).atoms == ((2.0, 1.0), (1.0, 1.0))
    assert disjoint_sum([0.0], Distribution(((3.0, 1.0),))).is_zero


def test_disjoint_sum_single_coefficient_scales():
    d = Distribution(((2.0, 1.0), (1.0, 4.0)))
    assert disjoint_sum([-3.0], d).atoms == d.scale(3.0).atoms


@given(
    st.lists(st.floats(-4, 4), min_size=1, max_size=5),
    atom_lists.filter(lambda ps: len(ps) > 0),
)
def test_disjoint_sum_permutation_invariant(coeffs, pairs):
    d = Distribution(tuple(pairs))
    forward = disjoint_sum(coeffs, d)
    backward = disjoint_sum(list(reversed(coeffs)), d)
    assert equimeasurable(forward, backward)


# --- dyadic_sample ----------------------------------------------------------


def test_sample_of_block_indicator_is_itself():
    # chi over [0, 2**m) samples to a single atom of the same measure
    for m in (-2, 0, 3):
        d = Distribution(((1.0, math.ldexp(1.0, m)),))
        assert dyadic_sample(d).atoms == d.atoms


def test_sample_counterexample_indicator_of_three():
    d = Distribution(((1.0, 3.0),))
    s = dyadic_sample(d)
    assert s.atoms == ((1.0, 4.0),)


def test_sample_zero():
    assert dyadic_sample(Distribution()).is_zero


def test_sample_two_level_profile():
    # profile: 2 on [0,1), 1 on [1,3); samples x*(1)=1, x*(2)=1, top block [0,1)
    d = Distribution(((2.0, 1.0), (1.0, 2.0)))
    s = dyadic_sample(d)
    assert s.atoms == ((2.0, 1.0), (1.0, 3.0))


@given(atom_lists.filter(lambda ps: len(ps) > 0))
def test_sample_dominates_pointwise(pairs):
    """The sampled step lies between x* and its double dilation."""
    d = Distribution(tuple(pairs))
    if d.is_zero:
        return
    profile = rearrange(d)
    sample_profile = rearrange(dyadic_sample(d))

    def value_at(prof, t: float) -> float:
        for v, lo, hi in prof:
            if lo <= t < hi:
                return v
        return 0.0

    for v, lo, hi in profile:
        for t in (lo, 0.5 * (lo + hi)):
            assert value_at(sample_profile, t) >= v - 1e-12 * v
    for v, lo, hi in sample_profile:
        # sample(t) <= x*(t/2)
        for t in (lo, 0.5 * (lo + hi)):
            assert v <= value_at(profile, t / 2.0) + 1e-12 * v
