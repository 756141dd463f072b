"""Norm evaluators: Lorentz sums, Luxemburg roots, block norms, JSON."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispect import (
    Distribution,
    Lorentz,
    Orlicz,
    PiecewisePower,
    PowerLog,
    PurePower,
    Seq,
    SpecJSONError,
    TableFn,
    block_norm,
    disjoint_sum,
    dyadic_sample_norm,
    fn_from_json,
    fn_to_json,
    fundamental,
    lorentz_norm,
    luxemburg_norm,
    orlicz_inverse,
    space_from_json,
    space_norm,
    space_to_json,
)
from rispect.spaces import _FN_KINDS
from test_batched_norms import reference_root

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
    Orlicz(exp_table())
    with pytest.raises(ValueError):
        Orlicz(PurePower(0.5))  # concave
    with pytest.raises(ValueError):
        Orlicz(PiecewisePower(3.0, 1.5))  # convexity needs a0 <= a_inf


# --- inverse and fundamental -------------------------------------------------


def test_orlicz_inverse_closed_forms():
    assert orlicz_inverse(PurePower(2.0), 4.0) == pytest.approx(2.0, rel=1e-15)
    pw = PiecewisePower(1.5, 3.0)
    assert orlicz_inverse(pw, 8.0) == pytest.approx(2.0, rel=1e-15)
    assert orlicz_inverse(pw, 2.0**-3) == pytest.approx(2.0**-2, rel=1e-15)


def test_orlicz_inverse_bisection_against_forward():
    f = exp_table()
    for u in (0.25, 1.0, 3.0, 40.0):
        t = orlicz_inverse(f, u)
        assert float(f.value(t)) == pytest.approx(u, rel=1e-10)


def test_orlicz_inverse_rejects_nonpositive():
    with pytest.raises(ValueError):
        orlicz_inverse(PurePower(2.0), 0.0)


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
    assert lorentz_norm(d, 1, PurePower(1.0)) == 4.0


def test_lorentz_norm_l2_case():
    d = Distribution(((2.0, 1.0), (1.0, 2.0)))
    assert lorentz_norm(d, 2, PurePower(1.0)) == pytest.approx(math.sqrt(6.0), rel=1e-15)


def test_lorentz_norm_sqrt_parameter():
    d = Distribution(((2.0, 1.0), (1.0, 2.0)))
    assert lorentz_norm(d, 1, PurePower(0.5)) == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-15)


def test_lorentz_norm_zero():
    assert lorentz_norm(Distribution(), 1, PurePower(1.0)) == 0.0


# --- Luxemburg norm -----------------------------------------------------------


def test_luxemburg_indicator():
    d = Distribution(((1.0, 4.0),))
    assert luxemburg_norm(d, PurePower(2.0)) == pytest.approx(2.0, rel=1e-15)


def test_luxemburg_single_atom_unit_measure():
    assert luxemburg_norm(Distribution(((3.0, 1.0),)), PurePower(2.0)) == pytest.approx(3.0)


def test_luxemburg_exponential_table():
    d = Distribution(((1.0, 1.0),))
    assert luxemburg_norm(d, exp_table()) == pytest.approx(1.0 / math.log(2.0), rel=1e-10)


@given(atom_lists)
def test_luxemburg_root_residual(pairs):
    """The modular evaluated at the returned norm sits at 1."""
    d = Distribution(tuple(pairs))
    if d.is_zero:
        return
    N = PiecewisePower(1.5, 3.0)
    u = luxemburg_norm(d, N)
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
    lo = lorentz_norm(d, q, PurePower(1.0))
    lux = luxemburg_norm(d, PurePower(q))
    assert lo == pytest.approx(lux, rel=1e-10)


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
