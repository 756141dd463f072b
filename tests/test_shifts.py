"""Weighted shift algebra: windows, telescoping, and the right inverse."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispect import (
    Seq,
    SeriesDivergenceError,
    block_norm,
    geometric_window,
    shift,
    shift_minus,
    solve_shift_minus,
    squared_window,
)

coeff_maps = st.dictionaries(
    st.integers(min_value=-30, max_value=30),
    st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: abs(v) > 1e-9),
    min_size=1,
    max_size=8,
)


# --- Seq container -----------------------------------------------------------


def test_seq_drops_zeros_and_accumulates():
    a = Seq({0: 1.0, 3: 0.0})
    assert a.support() == (0,)


def test_seq_algebra():
    a = Seq({0: 1.0, 2: -2.0})
    b = Seq({0: 1.0, 1: 4.0})
    assert (a + b)[0] == 2.0
    assert (a - b)[1] == -4.0
    assert (-a)[2] == 2.0
    assert (a * 3.0)[2] == -6.0
    assert (a + (-a)).is_zero


def test_seq_support_sorted_and_norm():
    a = Seq({5: 1.0, -2: -3.0, 0: 0.5})
    assert a.support() == (-2, 0, 5)
    assert a.k_min == -2 and a.k_max == 5
    assert a.sup_norm() == 3.0


@given(coeff_maps, coeff_maps)
def test_seq_addition_commutes(c1, c2):
    assert Seq(c1) + Seq(c2) == Seq(c2) + Seq(c1)


# --- plain and weighted shifts -----------------------------------------------


def test_shift_examples():
    assert shift(Seq.unit(0), 1) == Seq.unit(1)
    assert shift(Seq({0: 1.0, 3: 2.0}), -2) == Seq({-2: 1.0, 1: 2.0})
    a = Seq({0: 1.0, 5: -1.0})
    assert shift(a, 0) == a


@given(coeff_maps, st.integers(-20, 20), st.integers(-20, 20))
def test_shift_composes(c, n, m):
    a = Seq(c)
    assert shift(shift(a, n), m) == shift(a, n + m)


def test_shift_minus_pointwise():
    lam = 1.7
    a = Seq({0: 1.0, 1: -2.0, 4: 3.0})
    out = shift_minus(a, lam)
    for k in range(-2, 8):
        assert out[k] == pytest.approx(a[k - 1] - lam * a[k], abs=1e-15)


def test_shift_minus_unit_vector():
    out = shift_minus(Seq.unit(0), 2.0)
    assert out == Seq({0: -2.0, 1: 1.0})


# --- geometric windows ----------------------------------------------------------


def test_geometric_window_shape():
    g = geometric_window(2.0, 0, 3)
    assert g.support() == (0, 1, 2, 3)
    assert g[0] == 1.0
    assert g[3] == pytest.approx(2.0**-3)


@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=0, max_value=60),
)
def test_telescoping_identity(lam, k, n):
    """shift_minus collapses the geometric window to two spikes."""
    g = geometric_window(lam, k, n)
    image = shift_minus(g, lam)
    expected = Seq({k: -lam, k + n + 1: lam**-n})
    defect = image - expected
    # interior coefficients cancel up to one ulp of the largest window term
    assert defect.sup_norm() <= 1e-13 * (1.0 + lam) * g.sup_norm()


def test_squared_window_is_self_convolution():
    lam, k, n = 1.6, -2, 5
    g = geometric_window(lam, 0, n)
    conv: dict[int, float] = {}
    for i, gi in g.items():
        for j, gj in g.items():
            conv[i + j + k] = conv.get(i + j + k, 0.0) + gi * gj
    want = Seq(conv)
    got = squared_window(lam, k, n)
    assert got.support() == want.support()
    for idx in got.support():
        assert got[idx] == pytest.approx(want[idx], rel=1e-13)


def test_squared_window_small_example():
    assert squared_window(1.0, 0, 1) == Seq({0: 1.0, 1: 2.0, 2: 1.0})


def test_squared_window_center_coefficient():
    for n in (1, 4, 9):
        lam = 1.4
        g = squared_window(lam, 0, n)
        assert g[n] == pytest.approx((n + 1) * lam**-n, rel=1e-13)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_squared_window_three_term_image(lam):
    for n in (1, 2, 7, 33, 64):
        for k in (-32, -5, 0, 11, 32):
            once = shift_minus(squared_window(lam, k, n), lam)
            image = shift_minus(once, lam)
            expected = Seq(
                {
                    k: lam**2,
                    k + n + 1: -2.0 * lam ** (1 - n),
                    k + 2 * n + 2: lam ** (-2 * n),
                }
            )
            defect = image - expected
            scale = max(abs(v) for _, v in expected.items())
            assert defect.sup_norm() <= 1e-12 * scale


# --- right inverse ---------------------------------------------------------------


def test_solve_on_unit_vector_halving(lorentz_sqrt):
    """Preimage of e_1 at rate 2: each forward coefficient halves exactly."""
    sol = solve_shift_minus(Seq.unit(1), 2.0, 1e-12, lorentz_sqrt)
    y = sol.seq
    assert y[0] == 0.0
    for n in range(1, 20):
        assert y[n] == -(2.0**-n)
    # the reported tail bound sums the dropped terms, so it can sit a few
    # halvings above the cut threshold
    assert sol.tail_bound <= 1e-10


def test_solve_zero_input(lorentz_sqrt):
    sol = solve_shift_minus(Seq(), 1.5, 1e-12, lorentz_sqrt)
    assert sol.seq.is_zero
    assert sol.tail_bound == 0.0


def test_solve_roundtrip_defect(quarter_mirror):
    import numpy as np

    rng = np.random.default_rng(42)
    lam = 1.5
    for _ in range(10):
        ks = rng.choice(np.arange(-6, 7), size=4, replace=False)
        a = Seq({int(k): float(rng.standard_normal()) for k in ks})
        sol = solve_shift_minus(a, lam, 1e-12, quarter_mirror)
        defect = shift_minus(sol.seq, lam) - a
        assert block_norm(quarter_mirror, defect) <= sol.tail_bound * (lam + 1.0) + 1e-12


def test_solve_diverges_outside_window(quarter):
    """The (1/4, 3/4) space has an empty convergence window at rate 1.5."""
    with pytest.raises(SeriesDivergenceError):
        solve_shift_minus(Seq.unit(0), 1.5, 1e-12, quarter)


def test_solve_interior_rate_on_mirror(quarter_mirror):
    lam = 2.0**0.5
    sol = solve_shift_minus(Seq.unit(0), lam, 1e-10, quarter_mirror)
    defect = shift_minus(sol.seq, lam) - Seq.unit(0)
    assert block_norm(quarter_mirror, defect) <= sol.tail_bound * (lam + 1.0) + 1e-12
