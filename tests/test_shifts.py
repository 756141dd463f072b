"""Weighted shift algebra: windows, telescoping, and the right inverse."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispect import (
    Lorentz,
    NumericalError,
    Orlicz,
    PiecewisePower,
    PurePower,
    Seq,
    SeriesDivergenceError,
    TableFn,
    block_norm,
    fundamental,
    geometric_window,
    shift,
    shift_minus,
    solve_shift_minus,
    squared_window,
)
from rispect import shifts

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
    message = "^series reaches block index -1001 without decaying below tol$"
    with pytest.raises(SeriesDivergenceError, match=message):
        solve_shift_minus(Seq.unit(0), 1.5, 1e-12, quarter)


def test_solve_interior_rate_on_mirror(quarter_mirror):
    lam = 2.0**0.5
    sol = solve_shift_minus(Seq.unit(0), lam, 1e-10, quarter_mirror)
    defect = shift_minus(sol.seq, lam) - Seq.unit(0)
    assert block_norm(quarter_mirror, defect) <= sol.tail_bound * (lam + 1.0) + 1e-12


# --- the inverse series against a per-term reference ------------------------------


def reference_side(ys, sign, reach, tol, space):
    """One side of solve_shift_minus as its docstring states it, ys[n - 1]
    being y at block sign * n for n = 1 .. 1000: (kept coefficients by block,
    tail bound), or the message of the SeriesDivergenceError due.  Each block
    is weighed by one scalar `fundamental` call, and only as far as needed."""
    terms = []
    for n, y in enumerate(ys, start=1):
        terms.append(abs(y) * fundamental(space, 2.0 ** (sign * n)))
        if n > max(1, reach) and terms[-1] < tol:
            break
        if not terms[-1] <= 1e250:
            return f"series term at offset {n} overflows; no convergent right inverse"
    else:
        return f"series reaches block index {sign * 1001} without decaying below tol"
    cut = len(terms)
    for n, y in enumerate(ys[cut:], start=cut + 1):
        terms.append(abs(y) * fundamental(space, 2.0 ** (sign * n)))
        if not math.isfinite(terms[-1]):
            return "discarded tail overflows"
        if terms[-1] > tol:
            return "discarded tail fails to decay"
        if terms[-1] < tol * 1e-9:
            return {sign * m: ys[m - 1] for m in range(1, cut)}, sum(terms[cut - 1 :])
    return f"discarded tail above tol*1e-9 at block index {sign * 1000}"


def reference_solve(a, lam, tol, space):
    """(Seq of the coefficients, tail bound) or the error message, from the
    recurrences of the docstring: y[1] = -a[1] / lam, y[n+1] = (y[n] -
    a[n+1]) / lam, y[-1] = a[0], y[-n-1] = lam * y[-n] + a[-n]."""
    up, down = [-a[1] / lam], [a[0]]
    for n in range(1, 1000):
        up.append((up[-1] - a[n + 1]) / lam)
        down.append(lam * down[-1] + a[-n])
    sides = [
        reference_side(up, 1, a.k_max, tol, space),
        reference_side(down, -1, -a.k_min, tol, space),
    ]
    for side in sides:
        if isinstance(side, str):
            return side
    return Seq({**sides[0][0], **sides[1][0]}), sides[0][1] + sides[1][1]


# The series converges for theta = log2(lam) in (1/4, 3/4) on the third
# space and in (1/8, 1/2) on the fourth, and nowhere on the others.
INVERSE_SPACES = [
    Lorentz(1, PurePower(0.5)),
    Lorentz(1, PiecewisePower(0.25, 0.75)),
    Lorentz(1, PiecewisePower(0.75, 0.25)),
    Lorentz(2, PiecewisePower(1.0, 0.25)),
    Orlicz(PurePower(2.0)),
]


@settings(max_examples=120)
@given(
    space=st.sampled_from(INVERSE_SPACES),
    coeffs=st.dictionaries(st.integers(-6, 6), st.floats(-2.0, 2.0), min_size=1, max_size=4),
    theta=st.floats(0.0, 1.0),
    log_tol=st.floats(-14.0, -1.0),
)
def test_solve_equals_the_per_term_reference(space, coeffs, theta, log_tol):
    """Coefficients and tail bound bit for bit, or the same error message."""
    a, lam, tol = Seq(coeffs), 2.0**theta, 10.0**log_tol
    if a.is_zero:
        return
    want = reference_solve(a, lam, tol, space)
    try:
        got = solve_shift_minus(a, lam, tol, space)
    except SeriesDivergenceError as err:
        assert str(err) == want
        return
    assert (got.seq, got.tail_bound) == want


def test_solve_sums_the_tail_past_the_former_400_term_cap(lorentz_sqrt):
    """Terms fall by 0.97 per block, from the cut at block 227 to tol * 1e-9
    at block 907.  The former 400-term cap stopped the tail at block 627 and
    read 0.03311770777554462, 5e-6 below the full sum; the 226 coefficients
    are the ones it kept."""
    sol = solve_shift_minus(Seq.unit(1), 2.0**0.5 / 0.97, 1e-3, lorentz_sqrt)
    assert sorted(sol.seq.coeffs) == list(range(1, 227))
    assert sol.seq[226] == -9.863304347127843e-38
    assert sol.tail_bound == 0.03311787200254368 >= 0.03311770777554462
    assert (sol.seq, sol.tail_bound) == reference_solve(
        Seq.unit(1), 2.0**0.5 / 0.97, 1e-3, lorentz_sqrt
    )


@pytest.mark.parametrize(
    "lam, tol",
    # Cut at block 342, where the former cap returned a tail bound of 0.0499
    # that stopped 400 terms later; and a cut at block 907, which read "series
    # reaches block index 1001 without decaying below tol".
    [(2.0**0.5 / 0.98, 1e-3), (2.0**0.5 / 0.97, 1e-12)],
)
def test_solve_tail_still_above_its_floor_at_block_1000_diverges(lorentz_sqrt, lam, tol):
    message = "^discarded tail above tol\\*1e-9 at block index 1000$"
    with pytest.raises(SeriesDivergenceError, match=message):
        solve_shift_minus(Seq.unit(1), lam, tol, lorentz_sqrt)


@pytest.mark.parametrize(
    "a, lam, message",
    [
        (Seq.unit(1), 1e-200, "series term at offset 2 overflows; no convergent right inverse"),
        (Seq.unit(-1), 1e200, "series term at offset 4 overflows; no convergent right inverse"),
        (Seq.unit(1000), 2.0, "series reaches block index 1001 without decaying below tol"),
    ],
)
def test_solve_divergence_messages(lorentz_sqrt, a, lam, message):
    with pytest.raises(SeriesDivergenceError, match=f"^{message}$"):
        solve_shift_minus(a, lam, 1e-12, lorentz_sqrt)


def test_solve_weighs_each_side_in_windows(monkeypatch, quarter_mirror):
    """Work count: four `fundamentals` calls, blocks 1 .. 65 and 66 .. 130 on
    the positive side, 1 .. 65 and 66 .. 260 on the negative, where a scalar
    `fundamental` call per term took 256."""
    calls = []

    def counted(space, t):
        calls.append(len(t))
        return weigh(space, t)

    weigh = shifts.fundamentals
    monkeypatch.setattr(shifts, "fundamentals", counted)
    sol = solve_shift_minus(Seq.unit(0), 2.0**0.5, 1e-10, quarter_mirror)
    assert calls == [65, 65, 65, 130]
    assert len(sol.seq.coeffs) == 130 and sol.tail_bound == 6.152798309624373e-10


@pytest.mark.parametrize(
    "tol, size, tail_bound, weighed",
    # The bounds read 1.1641532177273487e190 and 5.271098966708839e118 while
    # the table's slope read 1 + 2.7e-15.
    [
        (1e190, 33, 1.1641532177272826e190, [65, 65]),
        (1e200 * 2.0**-270, 270, 5.2710989667062e118, [65, 65, 130, "260 failed"] + [1] * 40 + [65]),
    ],
)
def test_solve_weighs_only_the_blocks_it_reaches(monkeypatch, tol, size, tail_bound, weighed):
    """Block weights 1e200 * 2**k leave the floats from k = 359 on, past
    both walks: their coefficients are -4**-n, as when each term was weighed
    alone.  Weighing blocks -1000 .. 1000 at once raised, and so does the
    window 261 .. 520 of the second walk, which then weighs block by block:
    one failing `fundamentals` call, where retrying a window for each later
    block made 40."""
    calls = []

    def counted(space, t):
        try:
            out = weigh(space, t)
        except NumericalError:
            calls.append(f"{len(t)} failed")
            raise
        calls.append(len(t))
        return out

    weigh = shifts.fundamentals
    monkeypatch.setattr(shifts, "fundamentals", counted)
    space = Lorentz(1, TableFn(((1, 1e200), (2, 2e200))))
    sol = solve_shift_minus(Seq.unit(1), 4.0, tol, space)
    assert sol.seq.coeffs == {n: -(4.0**-n) for n in range(1, size + 1)}
    assert sol.tail_bound == tail_bound
    assert calls == weighed
