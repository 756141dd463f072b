"""Batched norms and block weights: bit-identical to one scalar evaluation each.

The scalar references here (`reference_root`, `reference_inverse`) are the
loops the array kernels replaced; they stay as the tests' reference, and
`reference_norm` norms atoms canonicalised by `test_steps.reference_atoms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    space_norm,
    space_norms,
)
from rispect.shifts import geometric_window, shift, shift_minus, squared_window
from rispect.spaces import (
    _MAX_BISECT,
    _MAX_BRACKET,
    INV_REL_TOL,
    LUX_REL_TOL,
    _bisect_rows,
    _bracket_rows,
    _inverse_rows,
    _lorentz_rows,
    _luxemburg_rows,
)
from rispect.spectra import ProbeConfig, _image, _probe_ratios, _random_probes, probe_lower_bound
from test_steps import reference_seq_atoms

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


@np.errstate(over="ignore", divide="ignore")
def reference_root(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> float:
    """Root u of sum_i weights_i * N(values_i / u) = 1 (decreasing in u), as
    one scalar bracket and bisection: the Luxemburg norm before the row kernel."""
    if isinstance(N, PurePower):
        return float(np.sum(weights * values**N.a) ** (1.0 / N.a))

    def modular(u: float) -> float:
        return float(np.sum(weights * np.asarray(N.value(values / u), dtype=float)))

    u0 = float(values.max())
    m0 = modular(u0)
    if m0 == 1.0:
        return u0
    if m0 > 1.0:
        lo, hi = u0, 2.0 * u0
        for _ in range(1100):
            if modular(hi) <= 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NumericalError("luxemburg bracketing failed above")
    else:
        lo, hi = 0.5 * u0, u0
        for _ in range(1100):
            if modular(lo) >= 1.0:
                break
            lo, hi = 0.5 * lo, lo
        else:
            raise NumericalError("luxemburg bracketing failed below")
        if lo == 0.0:
            raise NumericalError("luxemburg bracketing underflows to u = 0")
    for _ in range(200):
        if hi - lo <= LUX_REL_TOL * lo:
            break
        mid = 0.5 * (lo + hi)
        if modular(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_norm(space, atoms) -> float:
    """The space norm of canonical atoms by the one-row Lorentz sum or the
    scalar Luxemburg root."""
    if not atoms:
        return 0.0
    values, measures = np.array(atoms).T
    if isinstance(space, Lorentz):
        return float(_lorentz_rows(values, measures[None, :], space.q, space.psi)[0])
    return reference_root(values, measures, space.N)


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
        want = [reference_norm(space, reference_seq_atoms(shift(a, k))) for k in ks]
    except NumericalError:
        # A root that one start cannot bracket fails the whole batch too.
        with pytest.raises(NumericalError):
            block_norms(space, a, ks)
        return
    if 0.0 in want:
        # So does a nonzero window whose norm underflows to 0 at one start.
        with pytest.raises(NumericalError, match="underflows to 0"):
            block_norms(space, a, ks)
        return
    assert block_norms(space, a, ks).tolist() == want


@pytest.mark.parametrize("psi", PSIS, ids=[p.kind for p in PSIS])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@given(atoms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-6, 1e6)), min_size=1, max_size=40))
def test_lorentz_norm_is_the_direct_sum(psi, q, atoms):
    """One distribution's norm has the same bits as the direct 1-D formula."""
    d = Distribution(tuple(atoms))
    dpsi = np.diff(np.asarray(psi.value(np.cumsum(d.measures)), dtype=float), prepend=0.0)
    assert space_norm(Lorentz(q, psi), d) == float(np.sum(d.values**q * dpsi) ** (1.0 / q))


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
    assert rows.tolist() == [reference_root(values, w, N) for w in weights]


@pytest.mark.parametrize("N", [NS[2], NS[3]], ids=[NS[2].kind, NS[3].kind])
def test_luxemburg_bracket_reaching_zero_is_numerical_failure(N):
    """A subnormal value halves u down to 0; that row raises, with no
    division by zero on the way, and so does a batch holding it."""
    with pytest.raises(NumericalError, match="u = 0"):
        space_norm(Orlicz(N), Distribution(((5e-324, 0.5),)))
    with pytest.raises(NumericalError, match="u = 0"):
        _luxemburg_rows(np.array([5e-324]), np.array([[1.0], [0.5]]), N)


@pytest.mark.parametrize(
    "space", [Orlicz(PurePower(2.0)), Lorentz(2, PurePower(0.5))], ids=["orlicz", "lorentz"]
)
def test_closed_form_norm_underflow_is_numerical_failure(space):
    """A nonzero distribution whose closed-form norm underflows to 0 raises,
    one at a time and in a window batch, where 0/0 would otherwise reach a
    window scan as a ratio that never wins."""
    with pytest.raises(NumericalError, match="underflows to 0"):
        space_norm(space, Distribution(((5e-324, 0.5),)))
    with pytest.raises(NumericalError, match="underflows to 0"):
        block_norms(space, Seq({0: 1e-200, 1: 1e-200}), [0, 1, 2])


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


distributions = st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-6, 1e6)), max_size=6
).map(lambda atoms: Distribution(tuple(atoms)))


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@settings(max_examples=25)
@given(ds=st.lists(distributions, max_size=8))
@example(
    ds=[
        Distribution(((2.0, 1.0), (1.0, 3.0))),
        Distribution(),
        Distribution(((0.5, 4.0),)),
        Distribution(((3.0, 0.25), (1.5, 2.0))),
        Distribution(((1.0, 1.0), (0.75, 1.0), (0.25, 8.0))),
        Distribution(),
    ]
)
def test_space_norms_take_any_iterable(space, ds):
    """A generator gives what a list gives, zero distributions keep 0.0 in
    their slot, and with mixed atom counts each element equals its one-row
    norm and the scalar reference."""
    got = space_norms(space, ds)
    assert space_norms(space, (d for d in ds)) == got
    assert all(v == 0.0 for v, d in zip(got, ds) if d.is_zero)
    assert got == [space_norm(space, d) for d in ds]
    assert got == [reference_norm(space, d.atoms) for d in ds]


# --- block weights: the array fundamental against the scalar loop ----------------------


def reference_inverse(N: FnSpec, u: float) -> float:
    """_inverse_rows as one scalar bisection per u, the form it had before
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
        _inverse_rows(Between(), np.array([0.25]))


def test_block_weights_bracket_up_and_down_rows_in_the_same_steps():
    """Work count for the power_log weights on [-512, 512]: 711 N.value calls
    when the rows above t = 1 and those below had a bracketing loop each."""
    calls = []

    @dataclass(frozen=True)
    class Counting(PowerLog):
        def value(self, t):
            calls.append(np.size(t))
            return super().value(t)

    space = Orlicz(Counting(2.0, 1.0))
    calls.clear()
    got = block_weights(space, -512, 512).s
    assert len(calls) <= 457
    want = block_weights(Orlicz(PowerLog(2.0, 1.0)), -512, 512).s
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_nonpositive_arguments_are_refused(bad):
    with pytest.raises(ValueError, match="positive u required"):
        _inverse_rows(NS[2], np.array([bad]))
    for space in (SPACES[0], SPACES[14]):
        with pytest.raises(ValueError, match="positive t required"):
            fundamental(space, bad)
        with pytest.raises(ValueError, match=f"positive t required, got {bad}$"):
            fundamentals(space, [1.0, bad, -2.0])


# --- the shared bisection: compacted rows against one scalar loop per row -----------------


def reference_bisect(below, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """One row's bracket after _bisect_rows' steps, taken one at a time."""
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol * lo:
            break
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@settings(max_examples=50)
@given(
    brackets=st.lists(
        st.tuples(
            st.floats(1e-3, 1e3),
            st.one_of(
                st.floats(0.0, 1e3),
                st.sampled_from([0.0, 1e-13, 1e-12, 1e-6, 1.0]),
                st.just(math.nan),
            ),
            st.floats(0.0, 1.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    tol=st.sampled_from([LUX_REL_TOL, 1e-6]),
)
def test_bisect_rows_equal_one_row_at_a_time(brackets, tol):
    """Rows whose brackets have different relative widths finish at different
    steps (a NaN bracket runs to _MAX_BISECT); rows left out keep their
    brackets.  Every bracket and midpoint equals the scalar loop's."""
    lo = np.array([x for x, _, _, _ in brackets])
    hi = lo * (1.0 + np.array([w for _, w, _, _ in brackets]))
    roots = lo + (hi - lo) * np.array([f for _, _, f, _ in brackets])
    rows = np.array([i for i, (*_, kept) in enumerate(brackets) if kept], dtype=int)
    want_lo, want_hi = lo.copy(), hi.copy()
    for i in rows.tolist():
        want_lo[i], want_hi[i] = reference_bisect(lambda m: m < roots[i], lo[i], hi[i], tol)
    calls = []

    def below(mid, r):
        calls.append(r.size)
        return mid < roots[r]

    mids = _bisect_rows(below, lo, hi, rows, tol)
    assert (lo.tobytes(), hi.tobytes()) == (want_lo.tobytes(), want_hi.tobytes())
    assert mids.tobytes() == (0.5 * (want_lo + want_hi)).tobytes()
    assert 0 not in calls and sorted(calls, reverse=True) == calls


# --- the shared bracket: rows in both directions against one scalar loop per row ----------


def reference_bracket(excess, x0: float) -> tuple[float, float, str | None]:
    """One row of _bracket_rows as a scalar loop that picks its direction at
    x0: the bracket, and the side _bracket_rows reports for it if it fails."""
    lo = hi = x0
    e0 = excess(x0)
    if e0 == 0.0:
        return lo, hi, None
    up = e0 > 0.0
    for _ in range(_MAX_BRACKET):
        if up:
            lo, hi = hi, 2.0 * hi
            if excess(hi) <= 0.0:
                break
        else:
            lo, hi = 0.5 * lo, lo
            if excess(lo) >= 0.0:
                break
    else:
        return lo, hi, "above" if up else "below"
    return lo, hi, "zero" if lo == 0.0 else None


NO_NAN = (math.inf, math.inf)
# Row i's excess is (root - x) * scale, NaN on [nan_lo, nan_hi].  A root of
# inf or -1 runs out of steps above or below, a root of 0 halves x to 0, a
# root at x0 is solved there, and a large scale overflows to +-inf.
bracket_rows = st.lists(
    st.tuples(
        st.one_of(
            st.floats(1e-320, 1e300),
            st.sampled_from([0.0, -1.0, math.inf, 1.0, 0.75, 5e-324]),
        ),
        st.sampled_from([1.0, 3.0, 1e300, 1e308]),
        st.one_of(
            st.just(NO_NAN),
            st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)).map(sorted),
            st.sampled_from([(0.0, 0.0), (1.0, 1.0), (1e300, math.inf)]),
        ),
        st.sampled_from([1.0, 0.75, 3.0, 1e-300, 1e300, 5e-324]),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=60)
@given(rows=bracket_rows)
@example(
    rows=[
        (3.0, 1.0, NO_NAN, 1.0),  # up
        (0.1, 1.0, NO_NAN, 1.0),  # down
        (1.0, 1.0, NO_NAN, 1.0),  # solved at x0
        (5.0, 1.0, (2.0, 2.0), 1.0),  # NaN on the way up keeps going
        (2.0, 1.0, (1.0, 1.0), 1.0),  # NaN at x0 goes down
        (3.0, 1e308, NO_NAN, 1.0),  # +-inf excess
        (1e-320, 1.0, NO_NAN, 1.0),  # halves into the subnormals
    ]
)
@example(rows=[(0.5, 1.0, NO_NAN, 1.0), (math.inf, 1.0, NO_NAN, 1.0)])  # out of steps above
@example(rows=[(0.0, 1.0, NO_NAN, 1.0), (-1.0, 1.0, NO_NAN, 1.0)])  # below beats zero
@example(rows=[(0.5, 1.0, NO_NAN, 1.0), (0.0, 1.0, NO_NAN, 3.0)])  # halves to 0
def test_bracket_rows_equal_one_row_at_a_time(rows):
    """Brackets bit for bit, or the failure of the first row that runs out of
    steps, else of the first that halves to 0."""
    root = np.array([r for r, _, _, _ in rows])
    scale = np.array([s for _, s, _, _ in rows])
    nan_lo = np.array([n[0] for _, _, n, _ in rows])
    nan_hi = np.array([n[1] for _, _, n, _ in rows])
    x0 = np.array([x for *_, x in rows])

    @np.errstate(over="ignore", invalid="ignore")
    def excess(x, r):
        e = (root[r] - x) * scale[r]
        return np.where((nan_lo[r] <= x) & (x <= nan_hi[r]), math.nan, e)

    want = [
        reference_bracket(lambda x, i=i: float(excess(np.array([x]), np.array([i]))[0]), x)
        for i, x in enumerate(x0.tolist())
    ]
    failures = [(side, i) for i, (_, _, side) in enumerate(want) if side is not None]
    steps = [f for f in failures if f[0] != "zero"]
    if failures:
        side, i = (steps or failures)[0]
        with pytest.raises(NumericalError, match=f"^{side} {i}$"):
            _bracket_rows(excess, x0, lambda i, side: f"{side} {i}")
        return
    lo, hi, todo, e0 = _bracket_rows(excess, x0, lambda i, side: f"{side} {i}")
    assert lo.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert hi.tobytes() == np.array([w[1] for w in want]).tobytes()
    assert e0.tobytes() == excess(x0, np.arange(x0.size)).tobytes()
    assert todo.tolist() == [i for i, e in enumerate(e0.tolist()) if e != 0.0]


# --- random probes: batched ratios against one scalar ratio per probe -------------------


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@pytest.mark.parametrize("lam", [0.5, 1.2, 2.0])
@pytest.mark.parametrize("seed", [1, 0x5EED])
def test_random_probe_ratios_equal_scalar_ratios(space, lam, seed):
    cfg = ProbeConfig(k_lo=-24, k_hi=24, n_values=(), n_random=40, seed=seed)
    firsts, coeffs = _random_probes(cfg, 0)
    probes = [Seq({k + j: c for j, c in enumerate(row)}) for k, row in zip(firsts, coeffs.tolist())]
    want = [
        reference_norm(space, reference_seq_atoms(_image(a, lam)))
        / reference_norm(space, reference_seq_atoms(a))
        for a in probes
    ]
    assert _probe_ratios(space, lam, firsts, coeffs) == want
    # The first strict minimum in probe order wins, after the unit vectors.
    ks = range(cfg.k_lo, cfg.k_hi + 1)
    best, best_probe = math.inf, None
    for k in ks:
        unit = Seq.unit(k)
        r = reference_norm(space, reference_seq_atoms(_image(unit, lam))) / reference_norm(
            space, reference_seq_atoms(unit)
        )
        if r < best:
            best, best_probe = r, ("unit", k)
    for i, r in enumerate(want):
        if r < best:
            best, best_probe = r, ("random", i)
    res = probe_lower_bound(space, lam, cfg)
    assert (res.min_ratio, res.meta["best_probe"]) == (best, best_probe)
