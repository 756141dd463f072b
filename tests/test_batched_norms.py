"""Batched norms and block weights: bit-identical to one scalar evaluation each."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispect import (
    Distribution,
    FnSpec,
    Lorentz,
    NumericalError,
    Orlicz,
    PiecewisePower,
    PowerLog,
    PurePower,
    Seq,
    TableFn,
    block_norm,
    block_norms,
    block_weights,
    fundamental,
    fundamentals,
    lorentz_norm,
    orlicz_inverse,
)
from rispect.shifts import geometric_window, shift, shift_minus, squared_window
from rispect.spaces import INV_REL_TOL, _inverse_rows, _luxemburg_root, _luxemburg_rows
from rispect.spectra import ProbeConfig, _image, _probe_ratios, _random_probes, probe_lower_bound

PSIS = [
    PurePower(0.5),
    PiecewisePower(0.25, 0.75),
    PowerLog(0.5, 1.0),
    TableFn(((0.25, 0.5), (1.0, 1.0), (4.0, 2.0), (16.0, 4.0))),
]
NS = [
    PurePower(2.0),
    PiecewisePower(1.5, 3.0),
    PowerLog(2.0, 1.0),
    TableFn(((0.5, 0.25), (1.0, 1.0), (2.0, 6.0), (4.0, 48.0))),
]
SPACES = [Lorentz(q, psi) for psi in PSIS for q in (1.0, 1.5, 2.0)] + [Orlicz(N) for N in NS]
SPACE_IDS = [f"lorentz-{s.psi.kind}-q{s.q:g}" for s in SPACES[:12]] + [
    f"orlicz-{s.N.kind}" for s in SPACES[12:]
]

# Values with repeats, near-repeats inside the merge tolerance and the
# rounding residue that telescoped window images leave behind.
coefficient = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([1.0, -1.0, 0.5, 1.0 / 3.0, 1.0 + 1e-13, 6e-17, -2.7755575615628914e-17]),
)


@st.composite
def windows(draw) -> Seq:
    """A window shape at offset 0: free coefficients or a (telescoped) window."""
    kind = draw(st.sampled_from(["free", "geometric", "squared"]))
    if kind == "free":
        coeffs = draw(st.lists(coefficient, min_size=1, max_size=40).filter(any))
        return Seq(dict(enumerate(coeffs)))
    rate = draw(st.floats(min_value=0.5, max_value=2.0))
    n = draw(st.integers(min_value=1, max_value=19))
    a = geometric_window(rate, 0, n) if kind == "geometric" else squared_window(rate, 0, n)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = shift_minus(a, rate)
    return a


@st.composite
def starts(draw, a: Seq) -> list[int]:
    """Window starts keeping every shifted block inside |k| <= 1000."""
    lo, hi = -1000 - a.k_min, 1000 - a.k_max
    edges = st.sampled_from([lo, hi, 0])
    return draw(st.lists(st.one_of(st.integers(lo, hi), edges), min_size=1, max_size=6))


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_block_norms_equal_blockwise_norms(space, data):
    a = data.draw(windows())
    ks = data.draw(starts(a))
    try:
        want = [block_norm(space, shift(a, k)) for k in ks]
    except NumericalError:
        # A root that one start cannot bracket fails the whole batch too.
        with pytest.raises(NumericalError):
            block_norms(space, a, ks)
        return
    assert block_norms(space, a, ks).tolist() == want


@pytest.mark.parametrize("psi", PSIS, ids=[p.kind for p in PSIS])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@given(atoms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-6, 1e6)), min_size=1, max_size=40))
def test_lorentz_norm_is_the_direct_sum(psi, q, atoms):
    """The one-row form gives the same bits as the direct 1-D formula."""
    d = Distribution(tuple(atoms))
    dpsi = np.diff(np.asarray(psi.value(np.cumsum(d.measures)), dtype=float), prepend=0.0)
    assert lorentz_norm(d, q, psi) == float(np.sum(d.values**q * dpsi) ** (1.0 / q))


@pytest.mark.parametrize("N", NS, ids=[N.kind for N in NS])
@settings(max_examples=25)
@given(
    values=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
    # Scales near +-400 put the root past 200 doublings or halvings of u0.
    scales=st.lists(
        st.one_of(st.integers(-250, 250), st.integers(390, 410), st.integers(-410, -390)),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_luxemburg_rows_match_scalar_root(N, values, scales, seed):
    values = np.array(values)
    rng = np.random.default_rng(seed)
    weights = np.ldexp(rng.uniform(0.5, 1.0, (len(scales), values.size)), np.array(scales)[:, None])
    rows = _luxemburg_rows(values, weights, N)
    assert rows.tolist() == [_luxemburg_root(values, w, N) for w in weights]


@pytest.mark.parametrize("space", [SPACES[0], SPACES[12]], ids=["lorentz", "orlicz"])
def test_block_norms_refuse_blocks_past_1000(space):
    a = Seq({0: 1.0, 5: 2.0})
    assert block_norms(space, a, [995, -1000]).size == 2
    for ks in ([996], [-1001], [0, 996]):
        with pytest.raises(ValueError):
            block_norms(space, a, ks)
    with pytest.raises(ValueError):
        block_norm(space, shift(a, 996))


def test_block_norms_of_zero_sequence():
    assert block_norms(SPACES[0], Seq(), [0, 3]).tolist() == [0.0, 0.0]


# --- block weights: the array fundamental against the scalar loop ----------------------


def reference_inverse(N: FnSpec, u: float) -> float:
    """orlicz_inverse as one scalar bisection per u, the form it had before
    the array root solve."""
    if not u > 0:
        raise ValueError(f"positive u required, got {u}")
    if isinstance(N, PurePower):
        return u ** (1.0 / N.a)
    if isinstance(N, PiecewisePower):
        return u ** (1.0 / N.a0) if u <= 1.0 else u ** (1.0 / N.a_inf)
    lo = hi = 1.0
    for _ in range(1100):
        if float(N.value(hi)) >= u:
            break
        hi *= 2.0
    else:
        raise NumericalError(f"failed to bracket N inverse above for u={u}")
    for _ in range(1100):
        if float(N.value(lo)) <= u:
            break
        lo /= 2.0
    else:
        raise NumericalError(f"failed to bracket N inverse below for u={u}")
    for _ in range(200):
        if hi - lo <= INV_REL_TOL * lo:
            break
        mid = 0.5 * (lo + hi)
        if float(N.value(mid)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_fundamental(space, t: float) -> float:
    if isinstance(space, Lorentz):
        return float(space.psi.value(t)) ** (1.0 / space.q)
    return 1.0 / reference_inverse(space.N, 1.0 / t)


@st.composite
def k_windows(draw) -> tuple[int, int]:
    """Block windows inside +-1000; past |k| = 400 the Orlicz bisection stops
    at its 200-step cap before converging."""
    width = draw(st.integers(1, 16))
    k_lo = draw(
        st.one_of(
            st.integers(-1000, 1000 - width),
            st.integers(-1000, -400),
            st.integers(400, 1000 - width),
            st.sampled_from([-1000, -1 - width // 2, 1000 - width]),
        )
    )
    return k_lo, k_lo + width


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@settings(max_examples=15, deadline=None)
@given(window=k_windows())
def test_block_weights_equal_the_scalar_loop(space, window):
    k_lo, k_hi = window
    want = [reference_fundamental(space, math.ldexp(1.0, k)) for k in range(k_lo, k_hi + 1)]
    assert block_weights(space, k_lo, k_hi).s.tolist() == want
    assert fundamental(space, math.ldexp(1.0, k_hi)) == want[-1]


@dataclass(frozen=True)
class Between(FnSpec):
    """2 - 1/(1+t): increasing from 1 to 2, so N(t) = u has no root outside (1, 2)."""

    kind = "between"

    def value(self, t):
        out = 2.0 - 1.0 / (1.0 + np.asarray(t, dtype=float))
        return out if out.ndim else float(out)


@pytest.mark.parametrize("us", [[1.5, 3.0, 0.5], [1.5, 0.5, 3.0], [0.25]])
def test_inverse_bracket_failure_names_the_first_failing_u(us):
    with pytest.raises(NumericalError) as want:
        [reference_inverse(Between(), u) for u in us]
    with pytest.raises(NumericalError) as got:
        _inverse_rows(Between(), np.array(us))
    assert str(got.value) == str(want.value)
    with pytest.raises(NumericalError, match="^failed to bracket N inverse below for u=0.25$"):
        orlicz_inverse(Between(), 0.25)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_nonpositive_arguments_are_refused(bad):
    with pytest.raises(ValueError, match="positive u required"):
        orlicz_inverse(NS[2], bad)
    for space in (SPACES[0], SPACES[14]):
        with pytest.raises(ValueError, match="positive t required"):
            fundamental(space, bad)
        with pytest.raises(ValueError, match=f"positive t required, got {bad}$"):
            fundamentals(space, [1.0, bad, -2.0])


# --- random probes: batched ratios against one scalar ratio per probe -------------------


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@pytest.mark.parametrize("lam", [0.5, 1.2, 2.0])
@pytest.mark.parametrize("seed", [1, 0x5EED])
def test_random_probe_ratios_equal_scalar_ratios(space, lam, seed):
    cfg = ProbeConfig(k_lo=-24, k_hi=24, n_values=(), n_random=40, seed=seed)
    probes = _random_probes(cfg, 0)
    want = [block_norm(space, _image(a, lam)) / block_norm(space, a) for a in probes]
    assert _probe_ratios(space, lam, probes) == want
    # The first strict minimum in probe order wins, after the unit vectors.
    ks = range(cfg.k_lo, cfg.k_hi + 1)
    best, best_probe = math.inf, None
    for k in ks:
        r = block_norm(space, _image(Seq.unit(k), lam)) / block_norm(space, Seq.unit(k))
        if r < best:
            best, best_probe = r, ("unit", k)
    for i, r in enumerate(want):
        if r < best:
            best, best_probe = r, ("random", i)
    res = probe_lower_bound(space, lam, cfg)
    assert (res.min_ratio, res.meta["best_probe"]) == (best, best_probe)
