"""Finite lp-copy witnesses built from geometric windows."""

from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispect import (
    Distribution,
    Lorentz,
    NumericalError,
    Orlicz,
    PiecewisePower,
    PurePower,
    WitnessFamily,
    space_norm,
    build_witness,
    distortion,
    lp_norm,
    standard_probes,
)
from rispect import cli
from rispect.spaces import _NORM_ELEMS, _grouped_norms
from rispect.steps import MAX_COPIES, MAX_RANDOM, MERGE_REL_TOL
from rispect.witness import _disjoint_sum_chunks, _lp_rows
from test_batched_norms import SPACE_IDS, SPACES, reference_norm
from test_steps import disjoint_sum, reference_disjoint_sum


def test_lp_norm_basics():
    assert lp_norm([3.0, -4.0], 0.0) == 4.0
    assert lp_norm([3.0, -4.0], 1.0) == 7.0
    assert lp_norm([3.0, -4.0], 0.5) == 5.0
    assert lp_norm([], 0.5) == 0.0


def test_lp_norm_large_p_and_large_entries():
    assert lp_norm([3.0, -4.0], 0.001) == pytest.approx(4.0, rel=1e-3)
    assert lp_norm([1e300, -1e300], 0.5) == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
    assert lp_norm([0.0, 0.0], 0.5) == 0.0


def test_lp_norm_between_sum_and_max():
    v = [1.0, -2.0, 0.5, 3.0]
    for theta in (0.1, 0.3, 0.7, 0.9):
        assert lp_norm(v, 0.0) <= lp_norm(v, theta) <= lp_norm(v, 1.0)


def test_build_witness_normalizes_base(quarter):
    fam = build_witness(quarter, 2.0**0.5, 8, 16, -60)
    assert space_norm(quarter, fam.base) == pytest.approx(1.0, abs=1e-12)
    assert len(fam.base.atoms) == 17
    assert fam.n_copies == 8


def test_witness_p_parameter(quarter):
    assert build_witness(quarter, 2.0, 2, 4, -48).p == pytest.approx(1.0)
    assert build_witness(quarter, 2.0**0.5, 2, 4, -48).p == pytest.approx(2.0)
    assert build_witness(quarter, 2.0**0.25, 2, 4, -48).p == pytest.approx(4.0)
    assert build_witness(quarter, 1.0, 2, 4, -48).p == math.inf


def test_build_witness_domain(quarter):
    with pytest.raises(ValueError):
        build_witness(quarter, 0.9, 2, 4, -48)
    with pytest.raises(ValueError):
        build_witness(quarter, 2.1, 2, 4, -48)


def test_distortion_at_least_one(quarter):
    fam = build_witness(quarter, 2.0**0.25, 4, 8, -60)
    probes = standard_probes(4, fam.theta, seed=3, n_random=20)
    assert distortion(fam, probes) >= 1.0


def test_distortion_rejects_length_mismatch(quarter):
    fam = build_witness(quarter, 2.0**0.5, 4, 8, -60)
    with pytest.raises(ValueError):
        distortion(fam, [[1.0, 0.0]])


def reference_lp_norm(coeffs, theta: float) -> float:
    """lp_norm as one scalar formula per probe, the form it had before the
    p-norms were taken as rows."""
    arr = np.abs(np.asarray(coeffs, dtype=float))
    if arr.size == 0:
        return 0.0
    m = float(arr.max())
    if theta == 0.0 or m == 0.0:
        return m
    p = 1.0 / theta
    return m * float(((arr / m) ** p).sum()) ** (1.0 / p)


def reference_distortion(fam, probes) -> float:
    """distortion as one scalar norm per probe, the form it had before the
    probes were normed as rows."""
    worst = 1.0
    for a in probes:
        if len(a) != fam.n_copies:
            raise ValueError(f"probe length {len(a)} != n_copies {fam.n_copies}")
        if not any(v != 0.0 for v in a):
            continue
        num = reference_norm(fam.space, reference_disjoint_sum(a, fam.base))
        ratio = num / reference_lp_norm(a, fam.theta)
        worst = max(worst, ratio, 1.0 / ratio)
    return worst


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@pytest.mark.parametrize("theta", [0.3, 0.8])
@pytest.mark.parametrize("window_n", [3, 10])
def test_distortion_equals_per_probe_norms(space, theta, window_n):
    """Bit for bit the per-probe loop.  The probes make groups of different
    atom counts: unit vectors, all-ones and alternating signs merge the
    copies' atoms, the decay and random probes do not, and an all-zero probe
    is skipped."""
    n_copies = 5
    fam = build_witness(space, 2.0**theta, n_copies, window_n, -(window_n + 40))
    probes = np.insert(standard_probes(n_copies, theta, seed=17, n_random=8), n_copies + 1, 0.0, axis=0)
    assert len({len(disjoint_sum(a, fam.base).atoms) for a in probes}) >= 3
    assert distortion(fam, probes) == reference_distortion(fam, probes)
    with pytest.raises(ValueError):
        distortion(fam, [*probes.tolist(), [1.0] * (n_copies - 1)])
    with pytest.raises(ValueError, match="not rows of n_copies 5"):
        distortion(fam, probes[:, :-1])


def test_distortion_order_free(quarter):
    fam = build_witness(quarter, 2.0**0.25, 3, 8, -60)
    probes = standard_probes(3, fam.theta, seed=5, n_random=10)
    assert distortion(fam, probes) == distortion(fam, probes[::-1])


def test_l2_copies_are_isometric():
    """Square-fundamental space holds Euclidean copies with no distortion."""
    space = Lorentz(2, PurePower(1.0))
    for n_copies in (2, 4, 8, 16):
        fam = build_witness(space, 2.0**0.5, n_copies, 24, -80)
        probes = standard_probes(n_copies, 0.5, seed=0x5EED, n_random=50)
        assert distortion(fam, probes) <= 1.0 + 1e-12


def test_quarter_p4_distortion_improves_with_window(quarter):
    lam = 2.0**0.25
    probes8 = standard_probes(6, 0.25, seed=0x5EED, n_random=40)
    d_small = distortion(build_witness(quarter, lam, 6, 8, -48), probes8)
    d_large = distortion(build_witness(quarter, lam, 6, 32, -104), probes8)
    assert d_large <= d_small * 1.05
    assert d_large <= 1.5


def test_standard_probes_deterministic():
    a = standard_probes(5, 0.25, seed=11, n_random=30)
    b = standard_probes(5, 0.25, seed=11, n_random=30)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, (38, 5), b.tobytes())
    c = standard_probes(5, 0.25, seed=12, n_random=30)
    assert a.tobytes() != c.tobytes()


def test_standard_probes_contain_canonical_directions():
    probes = standard_probes(3, 0.5, seed=1, n_random=0).tolist()
    assert probes == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 2.0**-0.5, 0.5]]


@pytest.mark.parametrize("field, bound", [("n_copies", MAX_COPIES), ("n_random", MAX_RANDOM)])
@pytest.mark.parametrize("past", ["bound + 1", "10**23"])
def test_standard_probes_refuse_huge_counts_before_allocation(field, bound, past):
    """A count past its bound is refused by name before anything is
    allocated; the bound itself draws."""
    count = bound + 1 if past == "bound + 1" else 10**23
    counts = {"n_copies": 3, "n_random": 1, field: count}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[{int(field == 'n_copies')}, {bound}\], got {count}$"):
            standard_probes(counts["n_copies"], 0.5, 1, counts["n_random"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    counts[field] = bound
    n_copies, n_random = counts["n_copies"], counts["n_random"]
    assert standard_probes(n_copies, 0.5, 1, n_random).shape == (n_copies + 3 + n_random, n_copies)


# --- the row path: disjoint sums built as array rows -------------------------------

# A chain whose neighbours are close but whose ends are not: 1.5, then two
# values 0.6 * MERGE_REL_TOL apart in turn.  Merging by neighbours would
# make one group; the merge rule compares with the group's first value.
CHAIN = [1.5 * (1.0 - k * 0.6 * MERGE_REL_TOL) for k in range(4)]
# A chain inside one group: every value is close to the first.
TIGHT = [1.5 * (1.0 - k * 0.3 * MERGE_REL_TOL) for k in range(3)]

base_value = st.one_of(
    st.integers(-20, 20).map(lambda k: 2.0**k),
    st.floats(1e-3, 1e3),
    st.sampled_from(CHAIN + TIGHT),
)
coefficient = st.one_of(
    st.just(0.0),
    st.integers(-10, 10).map(lambda k: 2.0**k),
    st.integers(-10, 10).map(lambda k: -(2.0**k)),
    st.floats(-1e3, 1e3, allow_nan=False),
    # Products with a base value below about 5e-24 underflow to 0.
    st.sampled_from([1e-300, -1e-300, 5e-324] + CHAIN),
)


@st.composite
def bases(draw) -> Distribution:
    """Base profiles: free values (powers of two tie exactly), near-tie
    chains, or a geometric window r**k; measures of any size, so that the
    order in which a group's measures are summed shows in the last bits."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        values = draw(st.lists(base_value, min_size=n, max_size=n))
    else:
        r = draw(st.sampled_from([0.5, 2.0**-0.25, 2.0**-0.7]))
        values = [r**k for k in range(n)]
    measures = draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n))
    return Distribution(tuple(zip(values, measures)))


@st.composite
def probe_rows(draw, n_copies: int) -> list[list[float]]:
    """Probes of free entries (zeros, repeated |a_j|, sign flips), all-ones
    with random signs, and geometric decays, whose products with a geometric
    base coincide along diagonals up to rounding."""
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["free", "ones", "decay"]))
        if kind == "free":
            rows.append(draw(st.lists(coefficient, min_size=n_copies, max_size=n_copies)))
        elif kind == "ones":
            signs = draw(st.lists(st.booleans(), min_size=n_copies, max_size=n_copies))
            rows.append([-1.0 if s else 1.0 for s in signs])
        else:
            r = draw(st.sampled_from([0.5, 2.0**-0.25, 2.0**-0.7]))
            rows.append([r**j for j in range(n_copies)])
    return rows


def row_path(coeffs, base: Distribution) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row's (values, measures), split off the chunks' flat atoms."""
    arr = np.abs(np.array(coeffs, dtype=float))
    return [
        (values[lo:hi], measures[lo:hi])
        for values, measures, offsets in _disjoint_sum_chunks(arr, base)
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]


def row_norms(space, coeffs, base: Distribution) -> list[float]:
    arr = np.abs(np.array(coeffs, dtype=float))
    return [
        n
        for rows in _disjoint_sum_chunks(arr, base)
        for n in _grouped_norms(space, [(*rows, np.ones(1))]).tolist()
    ]


@st.composite
def families(draw) -> tuple[list[list[float]], Distribution]:
    n_copies = draw(st.integers(1, 24))
    base = draw(bases())
    return draw(probe_rows(n_copies)), base


@settings(max_examples=150)
@given(family=families())
@example(family=([CHAIN[:1] * 3, [1.0, -1.0, 1.0]], Distribution(tuple((v, 0.1) for v in CHAIN))))
def test_row_path_atoms_equal_disjoint_sum(family):
    """Each row's values and measures are the scalar rule's disjoint sum, bit
    for bit, and a one-row call gives the same atoms."""
    coeffs, base = family
    got = row_path(coeffs, base)
    assert len(got) == len(coeffs)
    for (values, measures), a in zip(got, coeffs):
        ref = reference_disjoint_sum(a, base)
        assert list(zip(values.tolist(), measures.tolist())) == list(ref)
        assert disjoint_sum(a, base).atoms == ref


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@settings(max_examples=20)
@given(family=families())
def test_row_norms_equal_disjoint_sum_norms(space, family):
    coeffs, base = family
    try:
        want = [space_norm(space, disjoint_sum(a, base)) for a in coeffs]
    except NumericalError as exc:
        # The row kernels fail on the rows the reference fails on, such as a
        # Luxemburg root of subnormal values, whose bracket reaches u = 0.
        with pytest.raises(type(exc)):
            row_norms(space, coeffs, base)
        return
    assert row_norms(space, coeffs, base) == want


def test_row_path_merges_neighbour_chains_from_their_heads():
    """The chain merges pairwise but not from its first value; the tight
    chain is one group.  Both must come out as the scalar rule makes them."""
    base = Distribution(((1.0, 0.1), (2.0**-40, 0.3)))
    coeffs = [CHAIN, TIGHT + [0.0], [CHAIN[0], CHAIN[2], CHAIN[1], CHAIN[3]]]
    got = row_path(coeffs, base)
    for (values, measures), a in zip(got, coeffs):
        ref = reference_disjoint_sum(a, base)
        assert list(zip(values.tolist(), measures.tolist())) == list(ref)
    assert len(got[0][0]) == 4  # two groups per base value
    assert len(got[1][0]) == 2  # one group per base value


def test_row_path_spans_chunks(quarter):
    """A family of many rows is split into chunks; rows keep their order."""
    fam = build_witness(quarter, 2.0**0.5, 17, 32, -72)
    probes = standard_probes(17, fam.theta, seed=3, n_random=60)
    width = 17 * len(fam.base.atoms)
    chunks = list(_disjoint_sum_chunks(np.abs(probes), fam.base))
    assert len(chunks) == -(-len(probes) // max(1, _NORM_ELEMS // width)) > 1
    assert row_norms(quarter, probes, fam.base) == [
        space_norm(quarter, disjoint_sum(a, fam.base)) for a in probes
    ]


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (1.7e308, NumericalError, "a disjoint sum overflows: coefficient 1.7e+308 times base value "),
        (math.inf, ValueError, "probe coefficients must be finite"),
        (math.nan, ValueError, "probe coefficients must be finite"),
    ],
)
def test_row_path_rejects_non_finite_products_as_disjoint_sum(quarter, bad, error, message):
    """A product the scalar rule refuses is refused before any norm, also
    when the offending probe sits in a later chunk than probes that norm
    fine: a NumericalError where a finite coefficient's product overflows,
    and a ValueError where the coefficient is not finite."""
    fam = build_witness(quarter, 2.0**0.5, 17, 32, -72)
    probe = [1.0] * 16 + [bad]
    with pytest.raises(ValueError):
        reference_disjoint_sum(probe, fam.base)
    probes = [*standard_probes(17, fam.theta, seed=3, n_random=60), probe]
    with pytest.raises(error, match="^" + re.escape(message)):
        distortion(fam, probes)


@pytest.mark.parametrize("n_random", [40, 2000])
@pytest.mark.parametrize("space", [SPACES[3], SPACES[13]], ids=["lorentz", "orlicz"])
def test_distortion_memory_is_bounded_per_chunk(space, n_random):
    """The sums are built and normed a chunk at a time, so the peak traced
    allocation does not grow with the number of probes."""
    fam = build_witness(space, 2.0**0.5, 17, 32, -72)
    probes = standard_probes(17, fam.theta, seed=1, n_random=n_random)
    tracemalloc.start()
    try:
        distortion(fam, probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


# --- p-norms as rows ---------------------------------------------------------------

magnitude = st.one_of(
    st.floats(5e-324, 1e-300),  # subnormal and tiny
    st.floats(1e-300, 1e300),
    st.integers(-1074, 996).map(lambda k: 2.0**k),
    st.sampled_from([1.0, 0.5, 3.0]),  # ties between entries
)
entry = st.one_of(
    st.sampled_from([0.0, -0.0]),
    magnitude,
    magnitude.map(lambda x: -x),
)
theta_value = st.one_of(st.sampled_from([0.0, 1.0, 1e-6]), st.floats(0.0, 1.0))


@st.composite
def p_norm_rows(draw) -> tuple[list[list[float]], int]:
    """1-70 rows of 1-40 entries, and a chunk length to slice them by."""
    n_copies = draw(st.integers(1, 40))
    row = st.lists(entry, min_size=n_copies, max_size=n_copies)
    rows = draw(st.lists(row, min_size=1, max_size=70))
    return rows, draw(st.integers(1, len(rows)))


@settings(max_examples=200)
@given(family=p_norm_rows(), theta=theta_value)
def test_row_p_norms_equal_the_scalar_formula(family, theta):
    """Each row's p-norm is the scalar formula's, bit for bit, whichever rows
    share its chunk and wherever the chunk starts; lp_norm is the one-row
    call and also takes the all-zero rows, which distortion drops."""
    rows, step = family
    for a in rows:
        assert lp_norm(a, theta) == reference_lp_norm(a, theta)
    live = np.array([a for a in rows if any(v != 0.0 for v in a)]).reshape(-1, len(rows[0]))
    got = []
    for start in range(0, len(live), step):
        got += _lp_rows(np.abs(live[start : start + step]), theta).tolist()
    assert got == [reference_lp_norm(a, theta) for a in live.tolist()]


def per_probe_distortion(fam, probes) -> float:
    """distortion as a loop over probes: each probe's row norm, and the
    scalar p-norm formula.  A nonzero probe whose disjoint sum underflows to
    no atoms has norm 0, and its ratio divides by 0."""
    worst = 1.0
    for a in probes:
        if any(v != 0.0 for v in a):
            ratio = row_norms(fam.space, [a], fam.base)[0] / reference_lp_norm(a, fam.theta)
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


@st.composite
def witness_cases(draw):
    """A family of 1-40 copies of a window of 3 to 30 blocks at either end,
    and probes of free entries, sign patterns and decays: wide families
    span several chunks."""
    n_copies = draw(st.integers(1, 40))
    window_n = draw(st.sampled_from([3, 10, 30]))
    k = draw(st.sampled_from([-(window_n + 40), 40]))
    return n_copies, window_n, k, draw(theta_value), draw(probe_rows(n_copies))


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@settings(max_examples=25)
@given(case=witness_cases())
def test_distortion_equals_a_per_probe_loop(space, case):
    """Bit for bit the loop, or the same failure: a norm the kernels cannot
    take is a NumericalError in both, and a probe whose sum underflows to 0
    is a NumericalError where the loop divides by 0."""
    n_copies, window_n, k, theta, probes = case
    fam = build_witness(space, 2.0**theta, n_copies, window_n, k)
    try:
        want = per_probe_distortion(fam, probes)
    except (NumericalError, ZeroDivisionError):
        with pytest.raises(NumericalError):
            distortion(fam, probes)
        return
    assert distortion(fam, probes) == want


def test_probe_whose_sum_underflows_is_numerical_failure(quarter):
    """Every product of this probe with the base values (about 6.6e-11)
    rounds to 0, so its disjoint sum has no atoms and norm 0."""
    fam = build_witness(quarter, 2.0**0.5, 3, 8, 40)
    assert fam.base.max_value() < 0.5
    with pytest.raises(NumericalError, match="underflows to 0"):
        distortion(fam, [[1.0, 0.0, 0.0], [5e-324] * 3])


# --- classes of probe rows normed once ----------------------------------------------

class_magnitude = st.one_of(
    st.integers(-10, 10).map(lambda k: 2.0**k),
    st.floats(1e-3, 1e3),
    # Subnormal and tiny: products that underflow to 0 or to subnormals;
    # 1.7e308: products that overflow.
    st.sampled_from([5e-324, 1e-310, 1e-300, 1.7e308]),
)
sign = st.sampled_from([1.0, -1.0])
signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def class_cases(draw):
    """A family of 1-12 copies of a drawn base, and rows over a pool of at
    most three magnitudes (and, in one case of ten, a non-finite one), so
    that classes repeat: one nonzero entry at a drawn position among 0.0 and
    -0.0, one magnitude with drawn signs, free rows of pool entries and
    signed zeros (their own classes), and all-zero rows."""
    n_copies = draw(st.integers(1, 12))
    pool = draw(st.lists(class_magnitude, min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        pool.append(draw(st.sampled_from([math.inf, math.nan])))
    magnitude = st.sampled_from(pool)
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["single", "flat", "free", "zero"]))
        if kind == "single":
            row = draw(st.lists(signed_zero, min_size=n_copies, max_size=n_copies))
            row[draw(st.integers(0, n_copies - 1))] = draw(sign) * draw(magnitude)
        elif kind == "flat":
            m = draw(magnitude)
            row = [s * m for s in draw(st.lists(sign, min_size=n_copies, max_size=n_copies))]
        else:
            entry = signed_zero if kind == "zero" else st.one_of(signed_zero, magnitude)
            row = [draw(sign) * x for x in draw(st.lists(entry, min_size=n_copies, max_size=n_copies))]
        rows.append(row)
    fam = WitnessFamily(draw(st.sampled_from(SPACES)), draw(bases()), n_copies, draw(theta_value))
    return fam, rows


def per_probe_outcome(fam, probes):
    """per_probe_distortion, or the failures distortion may report as
    (type, message).  Every product is checked before any norm, so a probe
    with a non-finite coefficient reports the first such probe's ValueError;
    otherwise each probe with a product past the floats, whose norm fails or
    whose sum underflows to 0 (where the loop divides by 0), is a
    NumericalError with its own message, and distortion reports one of them."""
    failures = []
    for a in probes:
        try:
            per_probe_distortion(fam, [a])
        except ZeroDivisionError:
            failures.append((NumericalError, "the disjoint sum of a nonzero probe underflows to 0"))
        except (ValueError, NumericalError) as exc:
            failures.append((type(exc), str(exc)))
    return [f for f in failures if f[0] is ValueError][:1] or failures or per_probe_distortion(fam, probes)


@settings(max_examples=150, deadline=None)
@given(case=class_cases())
def test_classed_rows_equal_a_per_probe_loop(case):
    """Norming one row per class gives the loop's distortion bit for bit, or
    the same failure: type and message."""
    fam, probes = case
    want = per_probe_outcome(fam, probes)
    try:
        got = distortion(fam, probes)
    except (ValueError, NumericalError) as exc:
        assert isinstance(want, list) and (type(exc), str(exc)) in want
    else:
        assert got == want


def test_permuted_rows_are_not_one_class():
    """[1, 2, 4] and [4, 2, 1] have one multiset of |a_j| but not one norm.
    With base values 4, 2, 1 their products tie at 4 across three copies,
    and the tied measures are summed in position order: (2**-53 + 2**-53) + 1
    is 1 + 2**-52, but (1 + 2**-53) + 2**-53 is 1.  So each row is normed."""
    base = Distribution(((4.0, 2.0**-53), (2.0, 2.0**-53), (1.0, 1.0)))
    fam = WitnessFamily(Orlicz(PurePower(2.0)), base, 3, 0.5)
    a, b = [1.0, 2.0, 4.0], [4.0, 2.0, 1.0]
    assert [m[2] for _, m in row_path([a, b], base)] == [1.0 + 2.0**-52, 1.0]
    each = [distortion(fam, [a]), distortion(fam, [b])]
    assert each[0] != each[1]
    assert distortion(fam, [a, b]) == distortion(fam, [b, a]) == max(each)


def test_distortion_norms_one_row_per_class(quarter, evaluations):
    """17 copies with 40 random probes at theta 0.5: the 17 unit vectors are
    one class, all-ones and the alternating signs another, so 43 of the 60
    rows are normed, and the distortion is the per-probe loop's."""
    fam = build_witness(quarter, 2.0**0.5, 17, 8, -48)
    probes = standard_probes(17, 0.5, seed=1, n_random=40)
    evaluations.clear()
    got = distortion(fam, probes)
    assert (len(probes), sum(evaluations)) == (60, 43)
    assert got == per_probe_distortion(fam, probes)


def test_witness_command_norms_each_chunk_group_once(capsys, tmp_path, evaluations):
    """One witness command in the report-sweep shape (Orlicz power_log(2, 1),
    17 copies, windows 8 and 32, 40 random probes) makes 7 row-kernel
    evaluations: one per window to normalize its base, and one per element
    budget of each chunk of the 43 probe rows normed of 60, across atom
    counts."""
    cfg = {
        "space": {"type": "orlicz", "N": {"kind": "power_log", "a": 2, "c": 1}},
        "k_radius": 64,
        "n_max": 16,
        "probe_k_radius": 16,
        "witness": {"theta": 0.5, "n_copies": 17, "windows": [8, 32], "n_random": 40},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["witness", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(evaluations) == 7


# --- certificates: distortion tends to 1 exactly on the frep set ------------------

LORENTZ_QUARTER = Lorentz(1, PiecewisePower(0.25, 0.75))
ORLICZ_PIECEWISE = Orlicz(PiecewisePower(1.5, 3.0))


def end_distortions(space, p: float, end: str) -> list[float]:
    """Distortion of 16 copies under the CLI's probes (100 random, seed
    0x5EED) at windows 4, 16 and 64, each starting at -(n + 40) (the zero
    end) or at block 40 (the infinity end)."""
    theta = 1.0 / p
    probes = standard_probes(16, theta, 0x5EED, 100)
    return [
        distortion(build_witness(space, 2.0**theta, 16, n, -(n + 40) if end == "zero" else 40), probes)
        for n in (4, 16, 64)
    ]


@pytest.mark.parametrize(
    "space, p, end, want",
    [
        # psi = t^(1/4) near 0 and t^(3/4) near infinity: frep set {4, 4/3}.
        (LORENTZ_QUARTER, 4.0, "zero", [1.2023, 1.0945, 1.0312]),
        (LORENTZ_QUARTER, 4.0 / 3.0, "inf", [1.0769, 1.0276, 1.0099]),
        # N = t^3 for large t (the zero end) and t^1.5 for small t: {3, 1.5}.
        (ORLICZ_PIECEWISE, 3.0, "zero", [1.0, 1.0, 1.0]),
        (ORLICZ_PIECEWISE, 1.5, "inf", [1.0, 1.0, 1.0]),
    ],
    ids=["lorentz-p4-zero", "lorentz-p4/3-inf", "orlicz-p3-zero", "orlicz-p1.5-inf"],
)
def test_distortion_falls_to_one_for_p_in_the_frep_set(space, p, end, want):
    got = end_distortions(space, p, end)
    assert got == pytest.approx(want, abs=1e-4)
    # Falling with the window, up to rounding where it is 1 throughout.
    assert all(b <= a + 1e-12 for a, b in zip(got, got[1:]))
    assert got[-1] <= 1.05


@pytest.mark.parametrize(
    "space, p, end",
    [
        (LORENTZ_QUARTER, 2.0, "zero"),
        (LORENTZ_QUARTER, 2.0, "inf"),
        (LORENTZ_QUARTER, 4.0, "inf"),
        (LORENTZ_QUARTER, 4.0 / 3.0, "zero"),
        (ORLICZ_PIECEWISE, 2.0, "zero"),
        (ORLICZ_PIECEWISE, 2.0, "inf"),
        # The default window start, -(n + 40), certifies only the zero end's p.
        (ORLICZ_PIECEWISE, 1.5, "zero"),
        (ORLICZ_PIECEWISE, 3.0, "inf"),
    ],
)
def test_distortion_stays_away_from_one_outside_the_frep_set(space, p, end):
    assert min(end_distortions(space, p, end)) >= 1.5
