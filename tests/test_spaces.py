"""Norm evaluators: Lorentz sums, Luxemburg roots, block norms, JSON."""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

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
    PowerLog,
    PurePower,
    Seq,
    SpecJSONError,
    TableFn,
    block_norm,
    block_norms,
    dyadic_sample_norm,
    fn_from_json,
    fn_to_json,
    fundamental,
    fundamentals,
    space_from_json,
    space_norm,
    space_norms,
    space_to_json,
)
from rispect.spaces import _FN_KINDS
from test_batched_norms import NS, PSIS, reference_root

atom_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=50.0),
    ),
    min_size=1,
    max_size=8,
)


def exp_table() -> TableFn:
    """Tabulation of e**t - 1 with an exact node at t = ln 2 (value 1)."""
    ts = [2.0**j for j in range(-8, 4)]
    ts.append(math.log(2.0))
    ts.sort()
    return TableFn(tuple((t, math.expm1(t)) for t in ts))


# --- function specs and role checks -----------------------------------------


def test_pure_power_values():
    f = PurePower(0.5)
    assert f.value(4.0) == 2.0
    np.testing.assert_allclose(f.value(np.array([1.0, 16.0])), [1.0, 4.0])


def test_piecewise_power_branches():
    f = PiecewisePower(0.25, 0.75)
    assert f.value(1.0) == 1.0
    assert f.value(16.0) == pytest.approx(16.0**0.75)
    assert f.value(1.0 / 16.0) == pytest.approx((1.0 / 16.0) ** 0.25)


@pytest.mark.parametrize("a0, a_inf", [(0.25, 0.75), (1.5, 3.0), (0.5, 0.5)])
def test_piecewise_power_has_the_bits_of_both_powers_everywhere(a0, a_inf):
    """Each power is taken only on its own half-axis, with the bits of
    np.where over both powers taken everywhere: 10**5 points across the
    float range (1.0 and its neighbours included), as rows and as scalars."""
    rng = np.random.default_rng(7)
    t = np.ldexp(rng.uniform(0.5, 1.0, 10**5), rng.integers(-1074, 1024, 10**5))
    edges = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324]
    t[::10] = rng.choice(edges, t[::10].size)
    f = PiecewisePower(a0, a_inf)
    with np.errstate(over="ignore"):
        want = np.where(t <= 1.0, np.power(t, a0), np.power(t, a_inf))
        assert f.value(t.reshape(100, -1)).tobytes() == want.tobytes()
        assert [f.value(x) for x in t[:1000].tolist()] == want[:1000].tolist()


def test_table_interpolates_exactly_at_nodes():
    f = exp_table()
    assert f.value(math.log(2.0)) == pytest.approx(1.0, abs=0.0)
    assert f.value(0.5) == pytest.approx(math.expm1(0.5), rel=1e-15)


def test_table_log_log_midpoint():
    f = TableFn(((1.0, 1.0), (4.0, 16.0)))
    # log-log linear: value at geometric mean is the geometric mean of values
    assert f.value(2.0) == pytest.approx(4.0, rel=1e-12)


def test_table_extrapolates_with_boundary_slope():
    f = TableFn(((1.0, 1.0), (2.0, 4.0), (4.0, 16.0)))
    assert f.value(8.0) == pytest.approx(64.0, rel=1e-12)
    assert f.value(0.5) == pytest.approx(0.25, rel=1e-12)


def test_table_rejects_bad_points():
    with pytest.raises(ValueError):
        TableFn(((1.0, 1.0),))
    with pytest.raises(ValueError):
        TableFn(((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        TableFn(((1.0, 2.0), (2.0, 1.0)))


def test_lorentz_role_check():
    Lorentz(1, PiecewisePower(0.25, 0.75))
    Lorentz(1, PowerLog(0.5, 1.0))
    with pytest.raises(ValueError):
        Lorentz(1, PurePower(1.5))  # value/t increases
    with pytest.raises(ValueError):
        Lorentz(0.5, PurePower(0.5))  # q below 1
    with pytest.raises(ValueError):
        Lorentz(1, PiecewisePower(1.5, 0.5))


def test_orlicz_role_check():
    Orlicz(PurePower(2.0))
    Orlicz(PiecewisePower(1.5, 3.0))
    Orlicz(PiecewisePower(2.0, 2.0))
    Orlicz(exp_table())


@pytest.mark.parametrize(
    "N, slopes",
    [
        (PurePower(0.5), "(0.5, 0.5)"),  # concave
        (PiecewisePower(0.5, 2.0), "(0.5, 2.0)"),
        (PiecewisePower(3.0, 1.5), "(3.0, 1.5)"),  # convexity needs a0 <= a_inf
        (TableFn(((1.0, 1.0), (4.0, 2.0))), "(0.5, 0.5, 0.5)"),
    ],
)
def test_orlicz_role_message_names_the_slopes(N, slopes):
    want = f"orlicz function needs log-log slopes 1 <= s_0 <= s_1 <= ..., got {slopes}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        Orlicz(N)


# Tables whose knots fall between the points of the dyadic role grid, so
# that only the exact slope tests see their faults.
CONCAVE_KNOT_N = TableFn(((1.0, 1.0), (1.1, 1.3), (1.15, 1.35), (2.0, 4.0)))
RISING_RATIO_PSI = TableFn(
    ((0.5, 0.5), (1.0, 1.0), (1.1, 1.25), (1.2, 1.3), (2.0, 1.6), (4.0, 2.0))
)


def test_table_role_checks_are_exact_between_grid_points():
    # log-log slopes 2.75, 0.85, 1.96: N' drops at t = 1.1.
    with pytest.raises(ValueError, match="^orlicz function needs log-log slopes"):
        Orlicz(CONCAVE_KNOT_N)
    # psi(t)/t rises from 1 to 1.136 on [1, 1.1].
    with pytest.raises(ValueError, match="fails quasi-concavity"):
        Lorentz(1, RISING_RATIO_PSI)
    # Both pass the dyadic grid tests alone.
    grid = 2.0 ** np.arange(-60, 61, dtype=float)
    ratio = RISING_RATIO_PSI.value(grid) / grid
    assert np.all(ratio[1:] <= ratio[:-1] * (1 + 1e-9))
    v, vm = CONCAVE_KNOT_N.value(grid), CONCAVE_KNOT_N.value(0.5 * (grid[:-1] + grid[1:]))
    assert np.all(vm <= 0.5 * (v[:-1] + v[1:]) * (1 + 1e-9))


def test_table_slopes_run_from_zero_to_infinity():
    f = TableFn(((1.0, 1.0), (2.0, 4.0), (4.0, 8.0)))
    assert f.slopes() == pytest.approx((2.0, 2.0, 1.0, 1.0), rel=1e-15)
    assert f.exponents() is None


# Knots on the grid 2**(j/4); piece slopes in eighths, so none lies within
# rounding of a role threshold other than exactly on it.
@st.composite
def grid_tables(draw) -> TableFn:
    js = sorted(draw(st.sets(st.integers(-24, 24), min_size=2, max_size=7)))
    slopes = draw(st.lists(st.integers(1, 24), min_size=len(js) - 1, max_size=len(js) - 1))
    lv = [draw(st.integers(-8, 8)) / 4]
    for (j1, j2), s in zip(zip(js, js[1:]), slopes):
        lv.append(lv[-1] + s / 8 * (j2 - j1) / 4)
    return TableFn(tuple((2.0 ** (j / 4), 2.0**v) for j, v in zip(js, lv)))


def accepts(make) -> bool:
    try:
        make()
    except ValueError:
        return False
    return True


@settings(max_examples=200)
@given(fn=grid_tables())
def test_exact_table_roles_agree_with_a_dense_grid(fn):
    """With every knot on the grid 2**(j/4), the log-log chords between grid
    points are the piece slopes, so a dense-grid test is exact too."""
    ts = 2.0 ** (np.arange(-40 * 4, 40 * 4 + 1) / 4)
    chords = np.diff(np.log(fn.value(ts))) / np.diff(np.log(ts))
    tol = 1 + 1e-9
    assert accepts(lambda: Lorentz(1, fn)) == bool(np.all(chords <= tol))
    convex = chords[0] * tol >= 1 and np.all(chords[:-1] <= chords[1:] * tol)
    assert accepts(lambda: Orlicz(fn)) == bool(convex)


# --- inverse and fundamental -------------------------------------------------


@pytest.mark.parametrize("N", [PurePower(2.0), PiecewisePower(1.5, 3.0), PiecewisePower(2.5, 2.5)])
def test_orlicz_fundamentals_closed_forms_bit_for_bit(N):
    """1 / N^-1(1/t), with x ** (1/e0) for x <= 1 and x ** (1/e_inf) above."""
    e0, e_inf = N.exponents()
    ts = [2.0**k for k in range(-40, 41)] + [0.3, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 7.5]
    xs = [1.0 / t for t in ts]
    want = [1.0 / (x ** (1.0 / e0) if x <= 1.0 else x ** (1.0 / e_inf)) for x in xs]
    assert fundamentals(Orlicz(N), ts).tolist() == want
    assert fundamental(Orlicz(N), 0.25) == pytest.approx(0.25 ** (1.0 / e_inf), rel=1e-15)


def test_orlicz_fundamental_bisection_inverts_N():
    f = exp_table()
    for u in (0.25, 1.0, 3.0, 40.0):
        t = 1.0 / fundamental(Orlicz(f), 1.0 / u)
        assert float(f.value(t)) == pytest.approx(u, rel=1e-10)


def test_fundamental_examples(lorentz_sqrt, orlicz_square):
    assert fundamental(Lorentz(2, PurePower(1.0)), 4.0) == pytest.approx(2.0, rel=1e-15)
    assert fundamental(orlicz_square, 4.0) == pytest.approx(2.0, rel=1e-15)
    assert fundamental(lorentz_sqrt, 16.0) == pytest.approx(4.0, rel=1e-15)


def test_fundamental_matches_indicator_norm(quarter, orlicz_piecewise):
    for sp in (quarter, orlicz_piecewise):
        for t in (0.375, 1.0, 7.5, 2.0**-9, 2.0**9):
            ind = Distribution(((1.0, t),))
            assert space_norm(sp, ind) == pytest.approx(fundamental(sp, t), rel=1e-11)


# --- Lorentz norm -------------------------------------------------------------


def test_lorentz_norm_l1_case():
    d = Distribution(((2.0, 1.0), (1.0, 2.0)))
    assert space_norm(Lorentz(1, PurePower(1.0)), d) == 4.0


def test_lorentz_norm_l2_case():
    d = Distribution(((2.0, 1.0), (1.0, 2.0)))
    assert space_norm(Lorentz(2, PurePower(1.0)), d) == pytest.approx(math.sqrt(6.0), rel=1e-15)


def test_lorentz_norm_sqrt_parameter():
    d = Distribution(((2.0, 1.0), (1.0, 2.0)))
    want = 1.0 + math.sqrt(3.0)
    assert space_norm(Lorentz(1, PurePower(0.5)), d) == pytest.approx(want, rel=1e-15)


def test_lorentz_norm_zero():
    assert space_norm(Lorentz(1, PurePower(1.0)), Distribution()) == 0.0


@pytest.mark.parametrize(
    "space,d",
    [
        (Lorentz(1, PurePower(1.0)), Distribution(((1e300, 1e30),))),
        (Orlicz(PurePower(2.0)), Distribution(((1e300, 1e30),))),
        (Orlicz(PowerLog(2.0, 1.0)), Distribution(((1e300, 1e30),))),
        # 2**1e6 overflows, and meets the psi step 0 of a measure 2**-60
        # absorbed into the cumulative sum: inf * 0, with no warning.
        (Lorentz(1e6, PurePower(1.0)), Distribution(((2.0, 1.0), (1.5, 2.0**-60)))),
    ],
    ids=["lorentz-l1", "orlicz-square", "orlicz-power_log", "lorentz-q1e6-absorbed-measure"],
)
def test_norm_above_the_largest_float_is_numerical_failure(space, d):
    """A norm that overflows raises, as one that underflows to 0 does."""
    with pytest.raises(NumericalError, match="^the norm of a distribution overflows$"):
        space_norm(space, d)


# Every N kind, and power_log with c < 0, whose N(inf) = inf * 0 reads NaN;
# Lorentz spaces up to q = 1e6.
extreme_spaces = st.one_of(
    st.sampled_from([Orlicz(N) for N in NS] + [Orlicz(PowerLog(2.0, -1.0))]),
    st.builds(Lorentz, st.one_of(st.floats(1.0, 1e6), st.just(1e6)), st.sampled_from(PSIS)),
)
extreme_atoms = st.tuples(st.floats(5e-324, 1.7e308), st.floats(2.0**-1074, 2.0**1023))
extreme_coeffs = st.floats(5e-324, 1.7e308).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=600)
@given(
    space=extreme_spaces,
    ds=st.lists(st.lists(extreme_atoms, min_size=1, max_size=5), min_size=1, max_size=4),
    coeffs=st.dictionaries(st.integers(-1000, 1000), extreme_coeffs, min_size=1, max_size=5),
    ks=st.lists(st.integers(-1000, 1000), min_size=1, max_size=4),
    ts=st.lists(st.floats(2.0**-1074, 2.0**1023), min_size=1, max_size=4),
)
# A block norm that overflows (it read inf), measures whose merged sum
# overflows, and cumulative Lorentz measures that overflow (both warned).
@example(space=Orlicz(PurePower(2.0)), ds=[[(1.0, 1.0)]], coeffs={0: 1.5e154}, ks=[0], ts=[1.0])
@example(
    space=Orlicz(PurePower(2.0)),
    ds=[[(1.0, 1e308), (1.0, 1e308)]],
    coeffs={0: 1.0},
    ks=[0],
    ts=[1.0],
)
@example(
    space=Lorentz(1e6, PurePower(0.5)),
    ds=[[(1.0, 1e308), (2.0, 1e308)]],
    coeffs={0: 1.0},
    ks=[0],
    ts=[1.0],
)
def test_norms_of_extreme_inputs_are_positive_floats_or_refused(space, ds, coeffs, ks, ts):
    """space_norms, block_norms and fundamentals give finite positive norms,
    or raise NumericalError or ValueError, with no warning, for values from
    the least subnormal to 1.7e308 and measures from 2**-1074 to 2**1023."""
    calls = [
        lambda: space_norms(space, [Distribution(tuple(atoms)) for atoms in ds]),
        lambda: block_norms(space, Seq(coeffs), ks),
        lambda: fundamentals(space, ts),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                got = np.asarray(call())
            except (NumericalError, ValueError):
                continue
            assert np.all(np.isfinite(got) & (got > 0.0))


# --- Luxemburg norm -----------------------------------------------------------


def test_luxemburg_indicator():
    d = Distribution(((1.0, 4.0),))
    assert space_norm(Orlicz(PurePower(2.0)), d) == pytest.approx(2.0, rel=1e-15)


def test_luxemburg_single_atom_unit_measure():
    assert space_norm(Orlicz(PurePower(2.0)), Distribution(((3.0, 1.0),))) == pytest.approx(3.0)


def test_luxemburg_exponential_table():
    d = Distribution(((1.0, 1.0),))
    assert space_norm(Orlicz(exp_table()), d) == pytest.approx(1.0 / math.log(2.0), rel=1e-10)


@given(atom_lists)
def test_luxemburg_root_residual(pairs):
    """The modular evaluated at the returned norm sits at 1."""
    d = Distribution(tuple(pairs))
    if d.is_zero:
        return
    N = PiecewisePower(1.5, 3.0)
    u = space_norm(Orlicz(N), d)
    modular = float(np.sum(d.measures * np.asarray(N.value(d.values / u))))
    assert modular == pytest.approx(1.0, rel=1e-10)


# --- block norms ---------------------------------------------------------------


def test_block_norm_examples(l1, orlicz_square):
    assert block_norm(l1, Seq({0: 1.0, 1: 1.0})) == 3.0
    for k in (-4, 0, 6):
        assert block_norm(orlicz_square, Seq.unit(k)) == pytest.approx(2.0 ** (k / 2), rel=1e-12)
    assert block_norm(l1, Seq()) == 0.0


def test_block_norm_equals_orlicz_seq_norm(orlicz_piecewise):
    """Same modular on both sides, so the roots agree to bisection accuracy."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        ks = rng.choice(np.arange(-12, 13), size=rng.integers(1, 7), replace=False)
        a = Seq({int(k): float(rng.standard_normal()) for k in ks})
        if a.is_zero:
            continue
        support = a.support()
        lhs = block_norm(orlicz_piecewise, a)
        rhs = reference_root(
            np.abs([a[k] for k in support]), np.ldexp(1.0, support), orlicz_piecewise.N
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_block_norm_vs_lorentz_seq_equivalence(quarter):
    """The embedded-step norm and the weighted sum are equivalent, not equal."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        ks = rng.choice(np.arange(-12, 13), size=rng.integers(1, 7), replace=False)
        a = Seq({int(k): float(rng.standard_normal()) for k in ks})
        if a.is_zero:
            continue
        support = a.support()
        lhs = block_norm(quarter, a)
        # (sum_k |a_k|**q * psi(2**k))**(1/q)
        weights = np.asarray(quarter.psi.value(np.ldexp(1.0, support)), dtype=float)
        rhs = float(np.sum(np.abs([a[k] for k in support]) ** quarter.q * weights) ** (1.0 / quarter.q))
        assert lhs <= 4.0 * rhs
        assert rhs <= 4.0 * lhs


# --- norm axioms ----------------------------------------------------------------


@given(atom_lists, st.floats(min_value=0.01, max_value=20.0))
def test_norm_homogeneity(pairs, c):
    d = Distribution(tuple(pairs))
    for sp in (Lorentz(1, PiecewisePower(0.25, 0.75)), Orlicz(PiecewisePower(1.5, 3.0))):
        assert space_norm(sp, d.scale(c)) == pytest.approx(c * space_norm(sp, d), rel=1e-9)


@given(atom_lists, atom_lists)
def test_norm_triangle_for_disjoint_functions(pairs1, pairs2):
    d1 = Distribution(tuple(pairs1))
    d2 = Distribution(tuple(pairs2))
    joined = Distribution(tuple(pairs1) + tuple(pairs2))
    for sp in (Lorentz(2, PurePower(0.5)), Orlicz(PiecewisePower(1.5, 3.0))):
        assert space_norm(sp, joined) <= (
            space_norm(sp, d1) + space_norm(sp, d2)
        ) * (1 + 1e-9)


@given(atom_lists)
def test_norm_monotone_in_values(pairs):
    d = Distribution(tuple(pairs))
    bigger = Distribution(tuple((v * 2.0, m) for v, m in pairs))
    for sp in (Lorentz(1, PiecewisePower(0.25, 0.75)), Orlicz(PurePower(2.0))):
        assert space_norm(sp, d) <= space_norm(sp, bigger) * (1 + 1e-9)


def test_rearrangement_invariance(quarter, orlicz_piecewise):
    pairs = ((0.7, 3.0), (2.5, 0.25), (1.1, 1.0))
    shuffled = (pairs[2], pairs[0], pairs[1])
    for sp in (quarter, orlicz_piecewise):
        assert space_norm(sp, Distribution(pairs)) == space_norm(sp, Distribution(shuffled))


@given(atom_lists, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lorentz_orlicz_agree_on_lp(pairs, q):
    """Lorentz with parameter t and Orlicz with N=t**q both give the L^q norm."""
    d = Distribution(tuple(pairs))
    lo = space_norm(Lorentz(q, PurePower(1.0)), d)
    lux = space_norm(Orlicz(PurePower(q)), d)
    assert lo == pytest.approx(lux, rel=1e-10)


@given(atom_lists, st.floats(min_value=1.0, max_value=4.0))
def test_orlicz_equal_piecewise_exponents_is_the_pure_power(pairs, a):
    """PiecewisePower(a, a) is t**a and takes the same closed-form root."""
    d = Distribution(tuple(pairs))
    assert space_norm(Orlicz(PiecewisePower(a, a)), d) == space_norm(Orlicz(PurePower(a)), d)


# --- sampled-step chain -----------------------------------------------------------


def test_sample_chain_counterexample(l1):
    x = Distribution(((1.0, 3.0),))
    assert space_norm(l1, x) == 3.0
    assert dyadic_sample_norm(l1, x) == 4.0


@given(atom_lists)
def test_sample_chain_all_spaces(pairs):
    d = Distribution(tuple(pairs))
    if d.is_zero:
        return
    spaces = (
        Lorentz(1, PurePower(0.5)),
        Lorentz(2, PurePower(1.0)),
        Lorentz(1, PiecewisePower(0.25, 0.75)),
        Orlicz(PurePower(2.0)),
        Orlicz(PiecewisePower(1.5, 3.0)),
    )
    for sp in spaces:
        nx = space_norm(sp, d)
        ns = dyadic_sample_norm(sp, d)
        assert nx <= ns * (1 + 1e-9)
        assert ns <= 2.0 * nx * (1 + 1e-9)


# --- JSON codec ---------------------------------------------------------------------


def test_space_json_roundtrip(quarter, orlicz_piecewise, lorentz_sqrt):
    for sp in (quarter, orlicz_piecewise, lorentz_sqrt):
        obj = space_to_json(sp)
        assert space_from_json(obj) == sp


def test_fn_json_roundtrip():
    fns = [
        PurePower(0.5),
        PiecewisePower(0.25, 0.75),
        PowerLog(0.5, 1.0),
        TableFn(((1.0, 1.0), (2.0, 4.0))),
    ]
    for fn in fns:
        assert fn_from_json(fn_to_json(fn)) == fn


def test_fn_json_keys_follow_schema_and_dataclass_fields():
    """docs/space-spec.schema.json names the kinds of _FN_KINDS, each
    requiring "kind" plus its class's dataclass fields, and fn_to_json
    writes exactly those keys."""
    schema_path = Path(__file__).parent.parent / "docs" / "space-spec.schema.json"
    kinds = json.loads(schema_path.read_text())["$defs"]["fn"]["oneOf"]
    required = {kind["properties"]["kind"]["const"]: kind["required"] for kind in kinds}
    assert set(required) == set(_FN_KINDS)
    samples = [
        PurePower(0.5),
        PiecewisePower(0.25, 0.75),
        PowerLog(0.5, -1.0),
        TableFn(((1.0, 1.0), (2.0, 4.0))),
    ]
    assert {fn.kind for fn in samples} == set(_FN_KINDS)
    for fn in samples:
        keys = ["kind", *(f.name for f in fields(_FN_KINDS[fn.kind]))]
        assert required[fn.kind] == keys
        assert list(fn_to_json(fn)) == keys


def test_fn_json_reads_fields_in_declaration_order():
    with pytest.raises(SpecJSONError, match=r"^missing field fn\.a0$"):
        fn_from_json({"kind": "piecewise_power"})
    with pytest.raises(SpecJSONError, match=r"^field fn\.a must be a number, got 'x'$"):
        fn_from_json({"kind": "power_log", "a": "x", "c": "y"})
    with pytest.raises(SpecJSONError, match=r"^field fn\.kind must be one of \('pure_power', "):
        fn_from_json({"kind": ["pure_power"]})


def test_space_json_canonical_shape():
    obj = space_to_json(Lorentz(1, PiecewisePower(0.25, 0.75)))
    assert obj == {
        "type": "lorentz",
        "q": 1,
        "psi": {"kind": "piecewise_power", "a0": 0.25, "a_inf": 0.75},
    }


def test_space_json_errors_name_fields():
    with pytest.raises(SpecJSONError, match="space.type"):
        space_from_json({"type": "weird"})
    with pytest.raises(SpecJSONError, match="missing field space.q"):
        space_from_json({"type": "lorentz", "psi": {"kind": "pure_power", "a": 1.0}})
    with pytest.raises(SpecJSONError, match="space.psi.kind"):
        space_from_json({"type": "lorentz", "q": 1, "psi": {"kind": "nope"}})
    with pytest.raises(SpecJSONError, match="space.psi.a"):
        space_from_json({"type": "lorentz", "q": 1, "psi": {"kind": "pure_power", "a": "x"}})
    with pytest.raises(SpecJSONError, match="invalid space"):
        space_from_json({"type": "lorentz", "q": 0.5, "psi": {"kind": "pure_power", "a": 1.0}})
    with pytest.raises(SpecJSONError):
        space_from_json("not an object")


def lorentz_json(psi) -> dict:
    return {"type": "lorentz", "q": 1, "psi": psi}


@pytest.mark.parametrize(
    "obj, message",
    [
        (lorentz_json({"kind": "pure_power", "a": -1}), "invalid space.psi: pure_power exponent must be positive, got -1.0"),
        (
            lorentz_json({"kind": "piecewise_power", "a0": 0.5, "a_inf": 0}),
            "invalid space.psi: piecewise_power a_inf must be positive, got 0.0",
        ),
        (
            {"type": "orlicz", "N": {"kind": "power_log", "a": 0, "c": 1}},
            "invalid space.N: power_log exponent must be positive, got 0.0",
        ),
        (
            lorentz_json({"kind": "power_log", "a": 0.5, "c": math.inf}),
            "invalid space.psi: power_log log-exponent must be finite, got inf",
        ),
        (
            lorentz_json({"kind": "table", "points": [[1, 0], [2, 1]]}),
            "invalid space.psi: table points must be positive, got (1.0, 0.0)",
        ),
        (lorentz_json({"kind": "table", "points": {}}), "field space.psi.points must be a list"),
        (lorentz_json({"kind": "table", "points": [[1, 1], [2]]}), "field space.psi.points[1] must be a [t, value] pair"),
        (lorentz_json("x"), "field space.psi must be an object"),
    ],
    ids=[
        "pure_power-exponent",
        "piecewise_power-a_inf",
        "power_log-exponent",
        "power_log-log-exponent",
        "table-point",
        "table-points-not-a-list",
        "table-point-not-a-pair",
        "fn-not-an-object",
    ],
)
def test_space_from_json_names_each_bad_field(obj, message):
    with pytest.raises(SpecJSONError, match=f"^{re.escape(message)}$"):
        space_from_json(obj)

