"""Finite lp-copy witnesses built from geometric windows."""

from __future__ import annotations

import math

import pytest

from rispect import (
    Lorentz,
    PurePower,
    space_norm,
    build_witness,
    disjoint_sum,
    distortion,
    lp_norm,
    standard_probes,
)
from test_batched_norms import SPACE_IDS, SPACES, reference_norm


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


def reference_distortion(fam, probes) -> float:
    """distortion as one scalar norm per probe, the form it had before the
    probes were normed as rows."""
    worst = 1.0
    for a in probes:
        if len(a) != fam.n_copies:
            raise ValueError(f"probe length {len(a)} != n_copies {fam.n_copies}")
        if not any(v != 0.0 for v in a):
            continue
        ratio = reference_norm(fam.space, disjoint_sum(a, fam.base)) / lp_norm(a, fam.theta)
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
    probes = standard_probes(n_copies, theta, seed=17, n_random=8)
    probes.insert(n_copies + 1, [0.0] * n_copies)
    assert len({len(disjoint_sum(a, fam.base).atoms) for a in probes}) >= 3
    assert distortion(fam, probes) == reference_distortion(fam, probes)
    with pytest.raises(ValueError):
        distortion(fam, probes + [[1.0] * (n_copies - 1)])


def test_distortion_order_free(quarter):
    fam = build_witness(quarter, 2.0**0.25, 3, 8, -60)
    probes = standard_probes(3, fam.theta, seed=5, n_random=10)
    assert distortion(fam, probes) == distortion(fam, list(reversed(probes)))


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
    assert a == b
    c = standard_probes(5, 0.25, seed=12, n_random=30)
    assert a != c


def test_standard_probes_contain_canonical_directions():
    probes = standard_probes(3, 0.5, seed=1, n_random=0)
    assert [1.0, 0.0, 0.0] in probes
    assert [1.0, 1.0, 1.0] in probes
    assert [1.0, -1.0, 1.0] in probes
