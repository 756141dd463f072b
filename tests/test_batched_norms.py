"""Batched block norms over window starts: bit-identical to one norm per start."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
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
    TableFn,
    block_norm,
    block_norms,
    lorentz_norm,
)
from rispect.shifts import geometric_window, shift, shift_minus, squared_window
from rispect.spaces import _luxemburg_root, _luxemburg_rows

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
