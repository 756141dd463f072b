"""Approximate point spectrum assembly and the finite probing experiments."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispect import (
    IndexSet,
    ProbeConfig,
    ProbeResult,
    Seq,
    ThetaInterval,
    Verdict,
    analytic_indices,
    approx_eigenvalue_set,
    block_weights,
    classify_lambda,
    frep_set,
    functional_bound_test,
    kernel_witness_curve,
    probe_lower_bound,
    range_identity_check,
    residual_curve,
    shift_minus,
)
from rispect.steps import MAX_RANDOM


def intervals(report) -> list[tuple[float, float]]:
    return [(iv.lo, iv.hi) for iv in report.eigen_set]


# --- intervals -----------------------------------------------------------------


def test_theta_interval_validation():
    ThetaInterval(0.25, 0.75)
    ThetaInterval(0.5, 0.5)
    with pytest.raises(ValueError):
        ThetaInterval(0.75, 0.25)
    with pytest.raises(ValueError):
        ThetaInterval(-0.1, 0.5)
    with pytest.raises(ValueError):
        ThetaInterval(0.5, 1.1)


def test_theta_interval_to_p_reverses_order():
    p_lo, p_hi = ThetaInterval(0.25, 0.75).to_p()
    assert p_lo == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert p_hi == pytest.approx(4.0, rel=1e-15)


def test_theta_interval_to_p_endpoint_infinity():
    p_lo, p_hi = ThetaInterval(0.0, 0.5).to_p()
    assert p_lo == 2.0
    assert p_hi == math.inf


# --- eigenvalue set assembly ------------------------------------------------------


def test_eigen_set_single_point(lorentz_two):
    rep = approx_eigenvalue_set(analytic_indices(lorentz_two))
    assert rep.case_tag == "i"
    assert intervals(rep) == [(0.5, 0.5)]


def test_eigen_set_two_components(quarter):
    rep = approx_eigenvalue_set(analytic_indices(quarter))
    assert rep.case_tag == "ii"
    assert intervals(rep) == [(0.25, 0.25), (0.75, 0.75)]


def test_eigen_set_single_interval_when_regions_overlap():
    ix = IndexSet(0.25, 0.75, 0.25, 0.6, 0.4, 0.75)
    rep = approx_eigenvalue_set(ix)
    assert rep.case_tag == "i"
    assert intervals(rep) == [(0.25, 0.75)]


def test_eigen_set_ends_that_cross_by_rounding_meet_at_the_upper_one():
    """The estimates of Lorentz q = 64065.69 over a nearly flat table psi at
    k_radius 4, n_max 1: s_k / s_{k+1} is not the float reciprocal of
    s_{k+1} / s_k, so alpha0 reads 2.2e-17 above beta0, and ThetaInterval
    refused [alpha, beta0] with a traceback."""
    lo, hi, beta0 = 7.779885741465973e-06, 7.779885741764201e-06, 7.77988574144386e-06
    rep = approx_eigenvalue_set(IndexSet(lo, hi, lo, beta0, lo, hi))
    assert rep.case_tag == "ii"
    assert intervals(rep) == [(beta0, beta0), (lo, hi)]


def test_eigen_set_split_uncertainty_tracks_estimate_error(quarter):
    w = block_weights(quarter, -256, 256)
    from rispect import estimate_indices

    est = estimate_indices(w, 64)
    rep = approx_eigenvalue_set(est)
    # the gap (0.25, 0.75) is far wider than the estimate error
    assert not rep.split_uncertain


def test_frep_examples(lorentz_two, quarter, orlicz_piecewise):
    assert [iv.to_p() for iv in frep_set(analytic_indices(lorentz_two)).eigen_set] == [(2.0, 2.0)]
    # intervals are listed by increasing theta, so the p values descend
    got = sorted(iv.to_p()[0] for iv in frep_set(analytic_indices(quarter)).eigen_set)
    assert got[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert got[1] == pytest.approx(4.0, rel=1e-15)
    got = sorted(iv.to_p()[0] for iv in frep_set(analytic_indices(orlicz_piecewise)).eigen_set)
    assert got[0] == pytest.approx(1.5, rel=1e-12)
    assert got[1] == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_frep_lorentz_q_spaces(q):
    from rispect import Lorentz, PurePower

    rep = frep_set(analytic_indices(Lorentz(q, PurePower(1.0))))
    assert [iv.to_p() for iv in rep.eigen_set] == [(float(q), float(q))]


# --- lambda classification ----------------------------------------------------------


def test_classify_quarter_interior_gap(quarter):
    ix = analytic_indices(quarter)
    got = classify_lambda(ix, 2.0**0.5)
    assert got.verdict is Verdict.ISO_ONTO_CODIM1
    assert got.theta == pytest.approx(0.5)


def test_classify_mirror_interior_gap(quarter_mirror):
    ix = analytic_indices(quarter_mirror)
    assert classify_lambda(ix, 2.0**0.5).verdict is Verdict.SURJECTIVE_NOT_INJECTIVE


def test_classify_outside_spectrum(quarter):
    ix = analytic_indices(quarter)
    assert classify_lambda(ix, 2.0**0.9).verdict is Verdict.ISO_ONTO
    assert classify_lambda(ix, 2.0**0.05).verdict is Verdict.ISO_ONTO


def test_classify_boundary(quarter):
    ix = analytic_indices(quarter)
    assert classify_lambda(ix, 2.0**0.25).verdict is Verdict.BOUNDARY
    assert classify_lambda(ix, 2.0**0.75).verdict is Verdict.BOUNDARY


def test_classify_not_closed():
    ix = IndexSet(0.2, 0.8, 0.3, 0.4, 0.35, 0.6)
    assert classify_lambda(ix, 2.0**0.5).verdict is Verdict.NOT_CLOSED


def test_classify_rejects_nonpositive(quarter):
    ix = analytic_indices(quarter)
    with pytest.raises(ValueError):
        classify_lambda(ix, 0.0)
    with pytest.raises(ValueError):
        classify_lambda(ix, -1.0)


# --- residual curves -------------------------------------------------------------------


def test_residuals_l1_closed_form(l1):
    res = residual_curve(l1, 2.0, [8, 16, 32, 64], range(-32, 33))
    for n, r in res.residuals:
        assert r == pytest.approx(4.0 / (n + 1), abs=1e-12)


def test_residual_single_window(l1):
    res = residual_curve(l1, 2.0, [7], range(-16, 17))
    assert dict(res.residuals)[7] == pytest.approx(0.5, abs=1e-12)


def test_residuals_pure_power_scaling(lorentz_sqrt):
    lam = 2.0**0.5
    res = residual_curve(lorentz_sqrt, lam, [8, 16, 32, 64], range(-32, 33))
    for n, r in res.residuals:
        assert r <= 4.0 / (n + 1) + 1e-12
        assert r == pytest.approx(2.0 * lam / (n + 1), rel=0.1)


def test_residuals_decrease(quarter):
    for lam in (2.0**0.25, 2.0**0.75):
        # the n=64 squared window spans 130 blocks, so give the search room
        # to park it entirely on one side of the origin
        res = residual_curve(quarter, lam, [8, 16, 32, 64], range(-192, 193))
        table = dict(res.residuals)
        vals = [table[n] for n in (8, 16, 32, 64)]
        assert all(b <= a * 1.05 for a, b in zip(vals, vals[1:]))
        assert table[64] < 0.1


def test_probe_result_validation():
    with pytest.raises(ValueError):
        ProbeResult(2.0, 0.5, -0.1, ((8, 0.5),), {})
    with pytest.raises(ValueError):
        ProbeResult(2.0, 0.5, 0.1, ((16, 0.5), (8, 0.4)), {})


def test_residual_meta_records_argmin(l1):
    res = residual_curve(l1, 2.0, [8], range(-16, 17))
    info = res.meta["argmin"][8]
    assert set(info) >= {"k", "construction"}


# --- probe suite --------------------------------------------------------------------


def test_probe_config_rejects_an_empty_k_range():
    with pytest.raises(ValueError, match=r"^k_hi must be >= k_lo, got k_lo=5, k_hi=0$"):
        ProbeConfig(k_lo=5, k_hi=0)
    assert ProbeConfig(k_lo=5, k_hi=5).k_hi == 5


def test_probe_config_rejects_a_negative_n_random():
    with pytest.raises(ValueError, match=r"^n_random must lie in \[0, 10000\], got -2$"):
        ProbeConfig(n_random=-2)
    assert ProbeConfig(n_random=0).n_random == 0


@pytest.mark.parametrize("n_random", [MAX_RANDOM + 1, 10**23])
def test_probe_config_refuses_a_huge_n_random_before_allocation(quarter, n_random):
    """A count past the bound is refused by name, by the library as by the
    CLI, before any probe is drawn; the bound itself is a valid suite."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^n_random must lie in \[0, {MAX_RANDOM}\], got {n_random}$"):
            probe_lower_bound(quarter, 1.5, ProbeConfig(n_random=n_random))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert ProbeConfig(n_random=MAX_RANDOM).n_random == MAX_RANDOM


def test_probe_lower_bound_outside_spectrum(quarter):
    """Far from the spectrum every probe obeys the reverse triangle bound."""
    lam = 2.0**0.95
    cfg = ProbeConfig(k_lo=-32, k_hi=32, n_values=(4, 8), n_random=25)
    res = probe_lower_bound(quarter, lam, cfg, ix=analytic_indices(quarter))
    assert res.min_ratio >= lam - 2.0**0.75 - 1e-12


def test_probe_lower_bound_near_eigenvalue(quarter):
    lam = 2.0**0.25
    cfg = ProbeConfig(k_lo=-128, k_hi=128, n_values=(8, 16, 32, 64), n_random=25)
    res = probe_lower_bound(quarter, lam, cfg, ix=analytic_indices(quarter))
    assert res.min_ratio <= 0.05
    assert "best_probe" in res.meta


# --- summability functional ------------------------------------------------------------


def test_functional_converges_inside_gap(quarter):
    w = block_weights(quarter, -256, 256)
    lam = 2.0**0.5
    assert not functional_bound_test(w, lam, 80).converged
    out = functional_bound_test(w, lam, 160)
    assert out.converged
    assert out.partial > 0.0


def test_functional_diverges_at_edge_rate(quarter):
    w = block_weights(quarter, -256, 256)
    out = functional_bound_test(w, 2.0**0.9, 60)
    assert not out.converged


def test_functional_constant_increments_on_matching_power(lorentz_sqrt):
    """At the space's own rate each term contributes exactly 2."""
    w = block_weights(lorentz_sqrt, -256, 256)
    M = 40
    out = functional_bound_test(w, 2.0**0.5, M)
    assert not out.converged
    assert out.partial == pytest.approx(1.0 + 2.0 * M, rel=1e-12)
    assert out.last_increment == pytest.approx(2.0, rel=1e-12)


def test_functional_window_validation(quarter):
    w = block_weights(quarter, -16, 16)
    with pytest.raises(ValueError):
        functional_bound_test(w, 2.0**0.5, 40)  # M exceeds the window
    with pytest.raises(ValueError):
        functional_bound_test(w, 2.0**0.5, 0)


# --- kernel witness and range identity ----------------------------------------------


def test_kernel_witness_curve_stabilizes(quarter_mirror):
    curve = kernel_witness_curve(quarter_mirror, 2.0**0.5, [10, 20, 40, 80])
    norms = [v for _, v in curve]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    increments = [b - a for a, b in zip(norms, norms[1:])]
    assert increments[-1] < increments[0]


def test_range_identity_unit_vector():
    assert range_identity_check(Seq.unit(0), 2.0) == 0.0
    assert range_identity_check(Seq(), 1.5) == 0.0


@given(
    st.dictionaries(
        st.integers(min_value=-10, max_value=10),
        st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-9),
        min_size=1,
        max_size=8,
    )
)
def test_range_identity_random(coeffs):
    a = Seq(coeffs)
    assert range_identity_check(a, 1.3) <= 1e-12
