"""Dilation exponents from dyadic weight sequences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispect import (
    IndexSet,
    Lorentz,
    NumericalError,
    Orlicz,
    PiecewisePower,
    PowerLog,
    PurePower,
    Seq,
    TableFn,
    WeightSeq,
    analytic_indices,
    block_norm,
    block_weights,
    estimate_indices,
    shift,
)
from rispect.indices import _EXPONENTS

ANALYTIC = {
    # six shipped fixtures: (space fixture name, expected six-tuple)
    "lorentz_sqrt": (0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
    "lorentz_two": (0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
    "l1": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    "quarter": (0.25, 0.75, 0.25, 0.25, 0.75, 0.75),
    "orlicz_square": (0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
    "orlicz_piecewise": (1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
}


def as_tuple(ix: IndexSet) -> tuple[float, ...]:
    return (ix.alpha, ix.beta, ix.alpha0, ix.beta0, ix.alpha_inf, ix.beta_inf)


def ratio_sup(w: WeightSeq, n: int, region: str, direction: str) -> float:
    """sup over the region's admissible k of s_{k+n}/s_k (up) or s_k/s_{k+n}
    (down), one sup per call: the reference for estimate_indices, which takes
    all six sups of a window n in one pass.  The admissible k have k and k + n
    in the window, and k + n <= 0 ("zero") or k >= 0 ("infinity")."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > w.width // 2:
        raise ValueError(f"n={n} too large for window width {w.width}")
    admits = {"all": lambda k: True, "zero": lambda k: k + n <= 0, "infinity": lambda k: k >= 0}
    if region not in admits:
        raise ValueError(f"unknown region {region!r}")
    ks = [k for k in range(w.k_min, w.k_max - n + 1) if admits[region](k)]
    if not ks:
        raise ValueError(f"window too small for n={n} in region {region!r}")
    lo, hi = ks[0], ks[-1]
    base = w.s[lo - w.k_min : hi - w.k_min + 1]
    shifted = w.s[lo + n - w.k_min : hi + n - w.k_min + 1]
    if direction == "up":
        return float(np.max(shifted / base))
    if direction == "down":
        return float(np.max(base / shifted))
    raise ValueError(f"unknown direction {direction!r}")


# --- weight extraction ---------------------------------------------------------


def test_block_weights_orlicz_square(orlicz_square):
    w = block_weights(orlicz_square, -2, 2)
    np.testing.assert_allclose(w.s, [2.0 ** (k / 2) for k in range(-2, 3)], rtol=1e-14)


def test_block_weights_l1(l1):
    w = block_weights(l1, -3, 3)
    np.testing.assert_allclose(w.s, [2.0**k for k in range(-3, 4)], rtol=0)


def test_block_weights_lorentz_fourth_root(lorentz_two):
    w = block_weights(Lorentz(2, PurePower(0.5)), -2, 2)
    np.testing.assert_allclose(w.s, [2.0 ** (k / 4) for k in range(-2, 3)], rtol=1e-14)


def test_weight_seq_validation():
    WeightSeq(0, 2, np.array([1.0, 1.5, 2.0]))
    with pytest.raises(ValueError):
        WeightSeq(0, 2, np.array([1.0, 2.0]))  # length mismatch
    with pytest.raises(ValueError):
        WeightSeq(0, 2, np.array([1.0, 0.0, 2.0]))  # not positive
    with pytest.raises(ValueError):
        WeightSeq(0, 2, np.array([1.0, 0.9, 2.0]))  # decreasing
    with pytest.raises(ValueError):
        WeightSeq(0, 2, np.array([1.0, 1.0, 2.5]))  # jumps by more than 2


def test_block_weights_that_break_a_bound_are_numerical_failure():
    """The capped N inverse bisection stops short for roots below about
    2**-200: on power_log(1.139..., 1) s_227 / s_226 reads 2.33, which no
    fundamental function allows.  A window with k_max <= k_min is still the
    caller's ValueError."""
    space = Orlicz(PowerLog(1.1391730631176669, 1.0))
    with pytest.raises(NumericalError) as exc:
        block_weights(space, -244, 244)
    assert str(exc.value) == (
        "block weights on [-244, 244] break a bound: weights must satisfy s_{k+1} <= 2 s_k"
    )
    assert isinstance(exc.value.__cause__, ValueError)
    with pytest.raises(ValueError, match=r"^need k_min < k_max, got \[3, 3\]$"):
        block_weights(space, 3, 3)


# --- ratio suprema ----------------------------------------------------------------


def test_ratio_sup_pure_power_is_exact(lorentz_sqrt):
    w = block_weights(lorentz_sqrt, -16, 16)
    assert ratio_sup(w, 4, "all", "up") == 4.0
    assert ratio_sup(w, 4, "zero", "up") == 4.0
    assert ratio_sup(w, 4, "infinity", "up") == 4.0


def test_ratio_sup_quarter_examples(quarter):
    w = block_weights(quarter, -16, 16)
    assert ratio_sup(w, 4, "zero", "up") == pytest.approx(2.0, rel=1e-14)
    assert ratio_sup(w, 4, "all", "up") == pytest.approx(8.0, rel=1e-14)


def test_ratio_sup_against_double_loop(quarter):
    w = block_weights(quarter, -12, 12)
    s = {k: w.s[k - w.k_min] for k in range(w.k_min, w.k_max + 1)}
    for n in (1, 3, 6):
        for region in ("all", "zero", "infinity"):
            for direction in ("up", "down"):
                best = -math.inf
                for k in range(w.k_min, w.k_max - n + 1):
                    if region == "zero" and k + n > 0:
                        continue
                    if region == "infinity" and k < 0:
                        continue
                    r = s[k + n] / s[k] if direction == "up" else s[k] / s[k + n]
                    best = max(best, r)
                assert ratio_sup(w, n, region, direction) == pytest.approx(best, rel=1e-14)


def test_ratio_sup_rejects_bad_arguments(quarter):
    w = block_weights(quarter, -8, 8)
    with pytest.raises(ValueError):
        ratio_sup(w, 0, "all", "up")
    with pytest.raises(ValueError):
        ratio_sup(w, 9, "all", "up")
    with pytest.raises(ValueError):
        ratio_sup(w, 2, "everywhere", "up")
    with pytest.raises(ValueError):
        ratio_sup(w, 2, "all", "sideways")


def test_unit_vector_ratio_matches_norm_quotients(quarter):
    """The weight-ratio supremum is exactly the unit-vector growth rate."""
    w = block_weights(quarter, -8, 8)
    for n in (1, 2, 5):
        best = max(
            block_norm(quarter, shift(Seq.unit(k), n)) / block_norm(quarter, Seq.unit(k))
            for k in range(w.k_min, w.k_max - n + 1)
        )
        assert ratio_sup(w, n, "all", "up") == best


# --- index estimation -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_estimate_matches_analytic(name, request):
    space = request.getfixturevalue(name)
    w = block_weights(space, -64, 64)
    est = estimate_indices(w, 16)
    want = ANALYTIC[name]
    got = as_tuple(est)
    for g, t in zip(got, want):
        assert g == pytest.approx(t, abs=0.02)


@pytest.mark.parametrize("name", ["lorentz_sqrt", "lorentz_two", "l1", "orlicz_square"])
def test_estimate_tight_on_pure_powers(name, request):
    space = request.getfixturevalue(name)
    est = estimate_indices(block_weights(space, -64, 64), 16)
    for g, t in zip(as_tuple(est), ANALYTIC[name]):
        assert g == pytest.approx(t, abs=1e-9)


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_analytic_closed_forms(name, request):
    space = request.getfixturevalue(name)
    ix = analytic_indices(space)
    assert ix is not None
    for g, t in zip(as_tuple(ix), ANALYTIC[name]):
        assert g == pytest.approx(t, abs=1e-12)
    assert ix.meta["method"] == "analytic"
    assert ix.meta["est_error"] == 0.0


# Each (space type, function kind) pair: its six indices, exact in floating
# point, or None where no closed form is implemented.  The Orlicz branches
# swap: N's exponent at infinity gives the indices at zero.
ANALYTIC_BY_KIND = {
    "lorentz-pure_power": (Lorentz(2, PurePower(0.5)), (0.25,) * 6),
    "lorentz-piecewise_power": (
        Lorentz(2, PiecewisePower(0.25, 0.75)),
        (0.125, 0.375, 0.125, 0.125, 0.375, 0.375),
    ),
    "lorentz-power_log": (Lorentz(1, PowerLog(0.5, 1.0)), None),
    "lorentz-table": (
        Lorentz(1, TableFn(((0.25, 0.5), (1.0, 1.0), (4.0, 2.0), (16.0, 4.0)))),
        None,
    ),
    "orlicz-pure_power": (Orlicz(PurePower(4.0)), (0.25,) * 6),
    "orlicz-piecewise_power": (
        Orlicz(PiecewisePower(2.0, 4.0)),
        (0.25, 0.5, 0.25, 0.25, 0.5, 0.5),
    ),
    "orlicz-power_log": (Orlicz(PowerLog(2.0, 1.0)), None),
    "orlicz-table": (Orlicz(TableFn(((0.5, 0.25), (1.0, 1.0), (2.0, 6.0), (4.0, 48.0)))), None),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_BY_KIND))
def test_analytic_indices_by_kind(name):
    space, want = ANALYTIC_BY_KIND[name]
    ix = analytic_indices(space)
    assert (None if ix is None else as_tuple(ix)) == want


def test_power_log_estimate_converges():
    """Log factors bias finite windows, and est_error owns up to the bias."""
    sp = Lorentz(1, PowerLog(0.5, 1.0))
    est = estimate_indices(block_weights(sp, -256, 256), 64)
    assert est.meta["est_error"] > 0.0
    for g in as_tuple(est):
        assert abs(g - 0.5) <= est.meta["est_error"] + 0.04
    wider = estimate_indices(block_weights(sp, -512, 512), 128)
    assert abs(wider.beta - 0.5) < abs(est.beta - 0.5)


# Steps s_{k+1}/s_k in [1, 2]: a few exact values give tied ratio sups, free
# floats ratios that rise and fall along k.
step_ratio = st.one_of(st.sampled_from([1.0, 1.25, 1.5, 2.0]), st.floats(1.0, 2.0))


@st.composite
def weight_seqs(draw) -> WeightSeq:
    """Positive weights on windows straddling 0, wholly above it (k_min > 0)
    or wholly below it (k_max < 0)."""
    width = draw(st.integers(4, 48))
    k_min = draw(st.integers(-60, 30))
    steps = draw(st.lists(step_ratio, min_size=width, max_size=width))
    s = np.cumprod([draw(st.floats(1e-3, 1e3))] + steps)
    return WeightSeq(k_min, k_min + width, s)


def reference_per_n(w: WeightSeq, n_max: int) -> dict[str, list[float]]:
    """The sup series as one ratio_sup call per (name, n), names outermost."""
    inner = w.window(w.k_min + n_max, w.k_max - n_max)
    return {
        name: [
            sign * math.log2(ratio_sup(inner, n, region, direction)) / n
            for n in range(1, n_max + 1)
        ]
        for name, (region, direction, sign) in _EXPONENTS.items()
    }


@settings(max_examples=200)
@given(data=st.data())
def test_estimate_indices_equal_ratio_sup_loop(data):
    """The one pass per n gives per_n, the six estimates and est_error bit for
    bit, and an empty region raises the message the loop raises first."""
    w = data.draw(weight_seqs())
    n_max = data.draw(st.integers(1, w.width // 4))
    try:
        want = reference_per_n(w, n_max)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            estimate_indices(w, n_max)
        assert str(got.value) == str(exc)
        return
    est = estimate_indices(w, n_max)
    assert est.meta["per_n"] == want
    assert est.as_dict() == {name: min(1.0, max(0.0, series[-1])) for name, series in want.items()}
    half = max(1, n_max // 2)
    assert est.meta["est_error"] == max(abs(v[-1] - v[half - 1]) for v in want.values())


def reference_estimate(w: WeightSeq, n_max: int) -> dict:
    """per_n, est_error and regression_slope of estimate_indices from the
    ratio_sup loop, raising the errors estimate_indices raises."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_max > w.width // 4:
        raise ValueError(f"n_max={n_max} needs window width >= {4 * n_max}, got {w.width}")
    per_n = reference_per_n(w, n_max)
    half = max(1, n_max // 2)
    ns = np.arange(half, n_max + 1, dtype=float)
    return {
        "est_error": max(abs(v[-1] - v[half - 1]) for v in per_n.values()),
        "regression_slope": {
            name: None if n_max == 1 else float(np.polyfit(ns, np.array(v[half - 1 :]) * ns, 1)[0])
            for name, v in per_n.items()
        },
        "per_n": per_n,
    }


def test_estimate_indices_equal_reference_on_every_window_shape():
    """4,032 shapes: k_min from -30 to 30 in steps of 3, widths 4 to 59 in
    steps of 5, n_max 1 to 16.  Most raise (n_max too large for the width, or
    a restricted region empty), each with the reference's first error."""
    rng = np.random.default_rng(21)
    s = np.cumprod(np.r_[1.0, rng.uniform(1.0, 2.0, 59)])
    shapes = solved = 0
    for k_min in range(-30, 31, 3):
        for width in range(4, 60, 5):
            w = WeightSeq(k_min, k_min + width, s[: width + 1])
            for n_max in range(1, 17):
                shapes += 1
                try:
                    want = reference_estimate(w, n_max)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        estimate_indices(w, n_max)
                    assert str(got.value) == str(exc)
                    continue
                meta = estimate_indices(w, n_max).meta
                assert {key: meta[key] for key in want} == want
                solved += 1
    assert (shapes, solved) == (4032, 4032 - 3561)


def test_estimate_indices_empty_region_messages():
    flat = np.ones(21)
    with pytest.raises(ValueError, match=r"^window too small for n=1 in region 'zero'$"):
        estimate_indices(WeightSeq(5, 25, flat), 4)
    with pytest.raises(ValueError, match=r"^window too small for n=1 in region 'infinity'$"):
        estimate_indices(WeightSeq(-25, -5, flat), 4)
    # Inner window [-2, 15]: the zero region holds k + n <= 0 up to n = 2.
    with pytest.raises(ValueError, match=r"^window too small for n=3 in region 'zero'$"):
        estimate_indices(WeightSeq(-6, 19, np.ones(26)), 4)


def test_estimate_requires_wide_window(quarter):
    w = block_weights(quarter, -16, 16)
    with pytest.raises(ValueError):
        estimate_indices(w, 16)  # width 32 < 4 * 16
    estimate_indices(w, 8)


def test_index_set_orderings(quarter):
    est = estimate_indices(block_weights(quarter, -64, 64), 16)
    assert 0.0 <= est.alpha <= est.beta <= 1.0
    assert est.alpha <= est.alpha0 <= est.beta0 <= est.beta
    assert est.alpha <= est.alpha_inf <= est.beta_inf <= est.beta
    assert est.meta["method"] == "fekete"
    assert est.meta["n_max"] == 16


def test_index_set_rejects_disorder():
    with pytest.raises(ValueError):
        IndexSet(0.6, 0.4, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        IndexSet(-0.1, 0.5, 0.1, 0.2, 0.3, 0.4)
