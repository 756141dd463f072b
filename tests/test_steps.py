"""Step-function layer: canonical distributions, dyadic blocks, projections.

`reference_atoms` here is the scalar canonicaliser the array routine
`steps._canonical_rows` replaced; it stays as the tests' reference for the
merge rule.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispect import (
    Distribution,
    PositionedStep,
    Seq,
    dyadic_average,
    dyadic_embed,
    dyadic_sample,
    rearrange,
)
from rispect.shifts import shift
from rispect.steps import MERGE_REL_TOL, _canonical_rows, floor_log2
from rispect.witness import _disjoint_sum_chunks

def _close(x: float, y: float) -> bool:
    return abs(x - y) <= MERGE_REL_TOL * max(abs(x), abs(y))


def reference_atoms(pairs) -> tuple[tuple[float, float], ...]:
    """Canonical atoms of (value, measure) pairs, one atom at a time: zero
    values and measures dropped, stable sort by decreasing value, and each
    value merged into the group before it when close to that group's first
    value, measures summed left to right."""
    kept: list[tuple[float, float]] = []
    for value, measure in pairs:
        value = float(value)
        measure = float(measure)
        if value < 0:
            raise ValueError(f"negative level value {value}")
        if measure < 0:
            raise ValueError(f"negative measure {measure}")
        if not (math.isfinite(value) and math.isfinite(measure)):
            raise ValueError(f"non-finite atom ({value}, {measure})")
        if value == 0.0 or measure == 0.0:
            continue
        kept.append((value, measure))
    kept.sort(key=lambda a: -a[0])
    merged: list[list[float]] = []
    for value, measure in kept:
        if merged and _close(merged[-1][0], value):
            merged[-1][1] += measure
        else:
            merged.append([value, measure])
    return tuple((v, m) for v, m in merged)


def reference_seq_atoms(a: Seq) -> tuple[tuple[float, float], ...]:
    """reference_atoms of the block sequence a: |a_k| on a block of measure 2**k."""
    return reference_atoms((abs(v), math.ldexp(1.0, k)) for k, v in sorted(a.coeffs.items()))


def reference_disjoint_sum(coeffs, d: Distribution) -> tuple[tuple[float, float], ...]:
    """reference_atoms of sum_k a_k * x_k, the x_k disjoint copies of d."""
    return reference_atoms((abs(c) * v, m) for c in coeffs if c != 0.0 for v, m in d.atoms)


def disjoint_sum(coeffs, d: Distribution) -> Distribution:
    """Distribution of sum_k a_k * x_k, the x_k disjoint copies of d, from a
    one-row call of the witness row path."""
    values, measures, _ = next(_disjoint_sum_chunks(np.abs(np.array([coeffs], dtype=float)), d))
    return Distribution(np.column_stack((values, measures)))


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


# A chain of values each 0.6 * MERGE_REL_TOL below the one before: every
# neighbour is close, but a value two steps from a group's first value is not,
# so the chain merges pairwise and one neighbour run needs many promotions.
def chain(top: float, n: int) -> list[float]:
    return [top * (1.0 - k * 0.6 * MERGE_REL_TOL) for k in range(n)]


canonical_values = st.one_of(
    st.floats(0.0, 1e3),
    st.sampled_from([0.0, 1.0, 2.0, 0.5]),
    # Subnormals, including the smallest, and the smallest normal.
    st.integers(1, 4000).map(lambda j: j * 5e-324),
    st.just(2.0**-1022),
)
canonical_measures = st.one_of(
    st.floats(0.0, 1e3), st.just(0.0), st.integers(-30, 30).map(lambda k: 2.0**k)
)


@st.composite
def canonical_inputs(draw) -> list[tuple[float, float]]:
    """Free atoms plus near-tie chains of at least 10 values, shuffled."""
    pairs = draw(st.lists(st.tuples(canonical_values, canonical_measures), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        top = draw(st.sampled_from([1.5, 1.0, 3e-310, 1e300]) | st.floats(1e-3, 1e3))
        for v in chain(top, draw(st.integers(10, 24))):
            pairs.append((v, draw(canonical_measures)))
    return draw(st.permutations(pairs))


@settings(max_examples=300)
@given(pairs=canonical_inputs())
@example(pairs=[(v, 1.0) for v in chain(1.5, 12)])
@example(pairs=[(v, 0.1) for v in reversed(chain(1.5, 10))] + [(0.0, 1.0), (1.0, 0.0)])
@example(pairs=[(5e-324, 1.0), (1e-323, 0.5), (5e-324, 0.0), (0.0, 0.0)])
def test_distribution_equals_reference_atoms(pairs):
    """Bit for bit the scalar rule, also from an array of pairs and as the
    distribution of a block sequence."""
    want = reference_atoms(pairs)
    assert Distribution(pairs).atoms == want
    assert Distribution(np.array(pairs, dtype=float).reshape(-1, 2)).atoms == want
    a = Seq({k: v for k, (v, _) in enumerate(pairs)})
    assert a.distribution().atoms == reference_seq_atoms(a)


BAD_ATOMS = [
    (-1.0, 1.0),
    (1.0, -1.0),
    (math.nan, 1.0),
    (1.0, math.nan),
    (math.inf, 1.0),
    (1.0, math.inf),
    (-math.inf, math.nan),
    (math.nan, -2.0),
]


@pytest.mark.parametrize("bad", BAD_ATOMS)
@pytest.mark.parametrize("where", [0, 2])
def test_distribution_reports_the_first_bad_atom(bad, where):
    """The scalar rule's message for the first bad atom, ahead of a later one."""
    pairs = [(1.0, 1.0), (2.0, 0.5)]
    pairs.insert(where, bad)
    pairs.append((-5.0, -5.0))
    with pytest.raises(ValueError) as want:
        reference_atoms(pairs)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        Distribution(pairs)


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


def test_canonical_rows_sum_each_group_left_to_right():
    """One call on rows of different atom counts, with merged groups of 1 to
    250 atoms (equal values, or values within MERGE_REL_TOL of the group's
    first) in order or shuffled, gives reference_atoms row by row, bit for
    bit.  Row 0 leads with a group of measures 1.0 and then 300 times
    2**-53: summed left to right that is exactly 1.0, where a pairwise sum
    or np.add.reduceat reads more."""
    rng = np.random.default_rng(7)
    rows = []
    for r in range(4):
        pairs = [(4.0, 1.0)] + [(4.0, 2.0**-53)] * 300 if r == 0 else []
        for g, size in enumerate(rng.integers(1, 251, size=10 + r).tolist() + [1, 250]):
            top = 2.0**-g * (1 + r)
            values = [top] * size if g % 2 else [top * (1.0 - j * 2e-15) for j in range(size)]
            pairs += zip(values, rng.uniform(0.5, 2.0, size).tolist())
        if r > 1:
            rng.shuffle(pairs)
        rows.append(pairs)
    values, measures = np.zeros((2, len(rows), max(map(len, rows))))
    for i, pairs in enumerate(rows):
        values[i, : len(pairs)], measures[i, : len(pairs)] = zip(*pairs)
    flat_values, flat_measures, offsets = _canonical_rows(values, measures)
    assert offsets.size == len(rows) + 1
    for pairs, lo, hi in zip(rows, offsets[:-1].tolist(), offsets[1:].tolist()):
        got = list(zip(flat_values[lo:hi].tolist(), flat_measures[lo:hi].tolist()))
        assert got == list(reference_atoms(pairs))
    assert (flat_values[0], flat_measures[0]) == (4.0, 1.0)


# --- rearrange ----------------------------------------------------------


def test_rearrange_profile():
    d = Distribution(((1.0, 2.0), (3.0, 1.0)))
    assert rearrange(d) == [(3.0, 0.0, 1.0), (1.0, 1.0, 3.0)]
    assert rearrange(Distribution()) == []


def test_rearrange_merges_equal_values():
    d = Distribution(((2.0, 0.5), (2.0, 0.5), (1.0, 1.0)))
    assert rearrange(d) == [(2.0, 0.0, 1.0), (1.0, 1.0, 2.0)]


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


def same_atoms(d1: Distribution, d2: Distribution) -> bool:
    """The canonical atom lists agree value by value and measure by measure
    within MERGE_REL_TOL."""
    return len(d1.atoms) == len(d2.atoms) and all(
        math.isclose(va, vb, rel_tol=MERGE_REL_TOL) and math.isclose(ma, mb, rel_tol=MERGE_REL_TOL)
        for (va, ma), (vb, mb) in zip(d1.atoms, d2.atoms)
    )


@given(
    st.lists(st.floats(-4, 4), min_size=1, max_size=5),
    atom_lists.filter(lambda ps: len(ps) > 0),
)
def test_disjoint_sum_permutation_invariant(coeffs, pairs):
    d = Distribution(tuple(pairs))
    forward = disjoint_sum(coeffs, d)
    backward = disjoint_sum(list(reversed(coeffs)), d)
    assert same_atoms(forward, backward)


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
