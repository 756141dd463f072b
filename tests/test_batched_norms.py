"""Batched norms and block weights: bit-identical to one scalar evaluation each.

The scalar references here (`reference_root`, `reference_inverse`) are the
loops the array kernels replaced; they stay as the tests' reference, and
`reference_norm` norms atoms canonicalised by `test_steps.reference_atoms`.
"""

from __future__ import annotations

import contextlib
import math
import re
import warnings
from dataclasses import dataclass
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispect import (
    Distribution,
    FnSpec,
    IndexSet,
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
    estimate_indices,
    fundamental,
    fundamentals,
    space_norm,
    space_norms,
)
from rispect import spaces
from rispect.shifts import geometric_window, shift, shift_minus, squared_window
from rispect.spaces import (
    _LOG_LEAST,
    _LOG_MAX,
    _MAX_BISECT,
    _MAX_BRACKET,
    _MAX_ROOT,
    _NORM_ELEMS,
    _ROOT_TOL,
    INV_REL_TOL,
    _bisect_rows,
    _block_request,
    _grouped_norms,
    _inverse_rows,
    _lorentz_rows,
    _luxemburg_rows,
)
from rispect.spectra import (
    ProbeConfig,
    ProbeResult,
    _curve,
    _never_wins,
    _probe_requests,
    _probe_result,
    _random_probes,
    _scan_requests,
    _window_scan,
    probe_lower_bound,
    probe_lower_bounds,
)
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def reference_root(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> float:
    """Root u of sum_i weights_i * N(values_i / u) = 1 (decreasing in u), as
    one scalar loop of the row kernel's steps on f(x) = log modular(u0 e**x):
    a search from x = 0 toward the root, first to f(0) * (1 + 2**-30) (or to
    +-1 where f(0) is not finite), then doubling x, up to the edge where
    u0 e**x leaves the positive floats and then to u = inf or 0, until f
    changes sign; then secant steps measured from the last point evaluated.
    Its floats are numpy scalars, so that a division by 0 reads inf or NaN
    as in the kernel's arrays."""
    if isinstance(N, PurePower):
        return float(np.sum(weights * values**N.a) ** (1.0 / N.a))

    def f(u: float) -> np.float64:
        return np.log(np.float64(np.sum(weights * np.asarray(N.value(values / u), dtype=float))))

    u0 = float(values.max())
    a = b = np.float64(0.0)
    fa = fb = f0 = f(u0)
    if not abs(f0) <= _ROOT_TOL:
        # y = s * x runs toward the root.
        s = 1.0 if f0 > 0.0 else -1.0
        lu = np.log(np.float64(u0))
        edge = _LOG_MAX - max(lu, 0.0) if s > 0.0 else min(lu, 0.0) - _LOG_LEAST
        y_last, f_last = np.float64(0.0), f0
        y = min(s * f0 * (1.0 + 2.0**-30) if math.isfinite(f0) else np.float64(1.0), edge)
        while not s * (fy := f(u0 * float(np.exp(s * y)))) <= 0.0:
            if y == math.inf:
                raise NumericalError(f"luxemburg bracketing failed {'above' if s > 0.0 else 'below'}")
            y_last, f_last = y, fy
            y = np.float64(math.inf) if y >= edge else min(2.0 * y, edge)
        if s < 0.0 and y == math.inf:
            raise NumericalError("luxemburg bracketing underflows to u = 0")
        last, new = (s * y_last, f_last), (s * y, fy)
        (a, fa), (b, fb) = (last, new) if s > 0.0 else (new, last)
    if not (a < b and math.isfinite(b - a)):
        return u0 * float(np.exp(0.5 * (a + b)))
    # From here x is measured from the last point evaluated, u.
    u, a, b = u0 * float(np.exp(b)), a - b, np.float64(0.0)
    p, fp, fq = a, fa, fb
    for _ in range(_MAX_ROOT):
        c = fq * p / (fq - fp)
        if not a < c < b:
            ab = a + fa * (b - a) / (fa - fb)
            c = ab if a < ab < b else 0.5 * (a + b)
        u = u * float(np.exp(c))
        fc = f(u)
        r = fc / fq
        kept = (1.0 - r if r < 1.0 else 0.5) if r > 0.0 else 1.0
        if fc > 0.0:
            a, fa, fb = c, fc, kept * fb
        else:
            b, fb, fa = c, fc, kept * fa
        a, b, p, fp, fq = a - c, b - c, -c, fq, fc
        if abs(fc) <= _ROOT_TOL:
            return u
        if b - a <= _ROOT_TOL:
            return u * float(np.exp(0.5 * (a + b)))
    raise NumericalError(f"luxemburg root did not converge in the step cap {_MAX_ROOT}")


def reference_norm(space, atoms) -> float:
    """The space norm of canonical atoms by the one-row Lorentz sum, on the
    cumulative measures summed here, or the scalar Luxemburg root."""
    if not atoms:
        return 0.0
    values, measures = np.array(atoms).T
    if isinstance(space, Lorentz):
        return float(_lorentz_rows([(values, np.cumsum(measures)[None, :])], space.q, space.psi)[0])
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


@pytest.mark.parametrize("psi", PSIS, ids=[p.kind for p in PSIS])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@settings(max_examples=25)
@given(data=st.data())
def test_lorentz_rows_of_scaled_cumulative_measures_are_the_direct_sum(psi, q, data):
    """Rows fed 2**k * cumsum(m), the cumulative measures summed once and
    scaled per start k, have the bits of the direct 1-D formula on the
    shifted measures 2**k * m, for starts up to the |k| <= 1000 block edges."""
    a = data.draw(windows())
    ks = data.draw(starts(a))
    values, m = np.array(reference_seq_atoms(a)).T
    got = _lorentz_rows([(values, np.ldexp(1.0, ks)[:, None] * np.cumsum(m))], q, psi)
    for k, norm in zip(ks, got.tolist()):
        dpsi = np.diff(np.asarray(psi.value(np.cumsum(np.ldexp(m, k))), dtype=float), prepend=0.0)
        assert norm == float(np.sum(values**q * dpsi) ** (1.0 / q))


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
    rows = _luxemburg_rows([(values, weights)], N)
    assert rows.tolist() == [reference_root(values, w, N) for w in weights]


@pytest.mark.parametrize("N", [NS[2], NS[3]], ids=[NS[2].kind, NS[3].kind])
def test_luxemburg_bracket_reaching_zero_is_numerical_failure(N):
    """A subnormal value halves u down to 0; that row raises, with no
    division by zero on the way, and so does a batch holding it."""
    with pytest.raises(NumericalError, match="u = 0"):
        space_norm(Orlicz(N), Distribution(((5e-324, 0.5),)))
    with pytest.raises(NumericalError, match="u = 0"):
        _luxemburg_rows([(np.array([5e-324]), np.array([[1.0], [0.5]]))], N)


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


# --- window scans: the array requests against windows built one at a time ---------------


def reference_image(a: Seq, lam: float) -> Seq:
    """shift_minus(a, lam); NumericalError when a coefficient overflows."""
    b = shift_minus(a, lam)
    if not all(math.isfinite(v) for v in b.coeffs.values()):
        raise NumericalError(f"(shift - lam) image overflows at lam={lam}")
    return b


def reference_scan_requests(lam: float, rates, ns, ks) -> list:
    """_scan_requests as Seq windows, one (rate, n) at a time: the form it
    had before the windows became array rows."""
    requests = []
    for rate in rates:
        for n in ns:
            try:
                geo, sq = geometric_window(rate, 0, n), squared_window(rate, 0, n)
            except OverflowError as exc:
                raise NumericalError(f"window at rate {rate} overflows") from exc
            image, t1 = reference_image(geo, lam), reference_image(sq, lam)
            requests += [
                _block_request(a, ks) for a in (geo, image, sq, t1, reference_image(t1, lam))
            ]
    return requests


def outcome(build, *args) -> list:
    """The bytes of each row of the batches, batch after batch, with its
    scales, or the exception's type and message.  Starts ks give no rows
    when empty, so then only the (empty) scales are kept."""
    try:
        batches = build(*args)
    except (NumericalError, ValueError) as exc:
        return [type(exc), str(exc)]
    return [
        (values[lo:hi].tobytes(), measures[lo:hi].tobytes(), scales.tobytes()) if scales.size else (b"",)
        for values, measures, offsets, scales in batches
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]


extreme = st.sampled_from([1e-300, 1e-200, 1e-5, 1e150, 1e300])


@settings(max_examples=200)
@given(
    lam=st.one_of(st.floats(0.25, 4.0), extreme),
    rates=st.lists(st.one_of(st.floats(0.25, 4.0), extreme), min_size=1, max_size=3),
    ns=st.lists(st.integers(0, 300), max_size=4, unique=True).map(sorted),
    ks=st.lists(st.integers(-1010, 1010), max_size=6, unique=True).map(sorted),
)
@example(lam=1.3, rates=[1.3], ns=[], ks=[0])  # no window at all
@example(lam=1.3, rates=[1.3, 2.0], ns=[0, 4], ks=[-3, 0, 3])  # n = 0: one block
@example(lam=1.3, rates=[1e-5], ns=[8, 100], ks=[0])  # 1e-5 ** -100 overflows
@example(lam=1e300, rates=[1.5], ns=[2], ks=[0])  # the second image overflows
@example(lam=1e-200, rates=[1.5], ns=[2], ks=[-1000])  # lam**2 underflows at block 0
@example(lam=1.3, rates=[1.3], ns=[8], ks=[-1000, 984])  # the last image reaches 1002
def test_scan_requests_equal_windows_built_one_at_a_time(lam, rates, ns, ks):
    """Every row, to the bit, or the same failure for the first (rate, n)
    that fails: a window or image that overflows, a block past |k| = 1000."""
    want = outcome(reference_scan_requests, lam, rates, ns, np.asarray(ks, dtype=int))
    assert outcome(lambda *args: [_scan_requests(*args)], lam, rates, ns, ks) == want


@pytest.mark.parametrize("n_values", [(), (4,)])
def test_probe_at_infinite_rate_is_numerical_failure(n_values):
    """The unit vector's image -lam e_0 + e_1 overflows first."""
    cfg = ProbeConfig(k_lo=-4, k_hi=4, n_values=n_values, n_random=2)
    with pytest.raises(NumericalError, match=r"^\(shift - lam\) image overflows at lam=inf$"):
        probe_lower_bound(SPACES[0], math.inf, cfg)


def test_scan_requests_refuse_windows_past_block_1000():
    """A window longer than the exact range is refused at k = 0 too (the
    Seq window names the block)."""
    with pytest.raises(ValueError, match="^block index 1001 outside"):
        reference_scan_requests(1.3, [1.3], [500], np.array([-500]))
    with pytest.raises(ValueError, match="outside the exact-measure range$"):
        _scan_requests(1.3, [1.3], [500], [-500])


# --- the grouped kernel: a mixed request list against one request at a time -------------


@st.composite
def request_lists(draw) -> list:
    """Windows over drawn starts, two geometric windows of one length at
    different rates (equal atom counts), the zero sequence and one-row
    distributions, in drawn order."""
    items = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(windows())
        items.append((a, draw(starts(a))))
    n = draw(st.integers(1, 19))
    for rate in draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2, unique=True)):
        a = geometric_window(rate, 0, n)
        items.append((a, draw(starts(a))))
    items.append((Seq(), draw(st.lists(st.integers(-5, 5), max_size=3))))
    items += draw(st.lists(distributions, max_size=6))
    return draw(st.permutations(items))


D_ONE = Distribution(((1.0, 1.0),))


def as_batches(items) -> list:
    """One batch per window over its starts, and one batch of many rows per
    run of consecutive distributions."""
    batches, run = [], []
    for item in [*items, None]:
        if isinstance(item, Distribution):
            run.append(item)
            continue
        if run:
            offsets = np.cumsum([0] + [d.values.size for d in run])
            values, measures = (np.concatenate([getattr(d, a) for d in run]) for a in ("values", "measures"))
            batches.append((values, measures, offsets, np.ones(1)))
            run = []
        if item is not None:
            batches.append(_block_request(*item))
    return batches


def one_request(space, item) -> np.ndarray:
    if isinstance(item, Distribution):
        return np.array(space_norms(space, [item]))
    return block_norms(space, *item)


# Geometric windows of 4 and 8 atoms over a few starts and a one-atom row:
# at a budget of 256 elements, one evaluation holds all three atom counts.
MIXED_WIDTHS = [(geometric_window(1.3, 0, 3), [0, 5, -5]), (geometric_window(1.5, 0, 7), [-3, 2]), D_ONE]


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@settings(max_examples=20, deadline=None)
@given(items=request_lists(), elems=st.sampled_from([_NORM_ELEMS, 256, 64, 1]))
# A norm past the largest float on some spaces (Orlicz t**2: 2**40 * 2**1000
# overflows), then two rows of one batch.
@example(items=[(Seq({0: 1.0, 12: 2.0**20}), [988]), D_ONE, D_ONE], elems=_NORM_ELEMS)
@example(items=MIXED_WIDTHS, elems=256)
def test_grouped_norms_equal_one_request_each(space, items, elems):
    """Each item's rows have the bits of its own block_norms or space_norms
    call however the rows of the batches are grouped, chunked and shared
    between evaluations: at the shipped element budget, at ones that cut
    windows into chunks and put several atom counts in one evaluation, and
    at one row per evaluation.  An item that fails alone fails the batches:
    a norm that underflows raises, and one that overflows reads inf or NaN,
    which block_norms and space_norms refuse."""
    try:
        want = [one_request(space, item) for item in items]
    except NumericalError:
        with patch.object(spaces, "_NORM_ELEMS", elems):
            with contextlib.suppress(NumericalError):
                assert not np.isfinite(_grouped_norms(space, as_batches(items))).all()
        return
    with patch.object(spaces, "_NORM_ELEMS", elems):
        got = _grouped_norms(space, as_batches(items))
    parts = np.split(got, np.cumsum([w.size for w in want])[:-1])
    assert [part.tobytes() for part in parts] == [w.tobytes() for w in want]


def piece_widths(monkeypatch) -> list[list[int]]:
    """The atom count of each piece of each row-kernel evaluation from here on."""
    widths, norm_rows = [], spaces._norm_rows

    def counted(space, pieces):
        widths.append([measures.shape[1] for _, measures in pieces])
        return norm_rows(space, pieces)

    monkeypatch.setattr(spaces, "_norm_rows", counted)
    return widths


@pytest.mark.parametrize("space", [SPACES[14], SPACES[15]], ids=SPACE_IDS[14:])
def test_mixed_widths_share_one_evaluation(space, monkeypatch):
    """The MIXED_WIDTHS example puts its three atom counts in one evaluation
    of an Orlicz space that takes secant steps, and keeps every bit."""
    want = [one_request(space, item).tobytes() for item in MIXED_WIDTHS]
    widths = piece_widths(monkeypatch)
    with patch.object(spaces, "_NORM_ELEMS", 256):
        got = _grouped_norms(space, as_batches(MIXED_WIDTHS))
    assert [sorted(set(w)) for w in widths] == [[1, 4, 8]]
    assert [part.tobytes() for part in np.split(got, [3, 5])] == want


@pytest.mark.parametrize("N", [NS[2], NS[3]], ids=[NS[2].kind, NS[3].kind])
def test_bracketing_failure_reads_the_same_among_other_widths(N, monkeypatch):
    """A row whose root brackets at u = 0 raises the message it raises
    alone, also when it shares its evaluation with rows of other atom counts
    that norm fine, before or after it."""
    bad = Distribution(((5e-324, 0.5),))
    with pytest.raises(NumericalError) as alone:
        space_norm(Orlicz(N), bad)
    healthy = [Distribution(((3.0, 1.0), (1.0, 2.0))), Distribution(((4.0, 0.5), (2.0, 1.0), (1.0, 3.0)))]
    widths = piece_widths(monkeypatch)
    for ds in ([healthy[0], bad, healthy[1]], [*healthy, bad], [bad, *healthy]):
        with pytest.raises(NumericalError, match=f"^{re.escape(str(alone.value))}$"):
            space_norms(Orlicz(N), ds)
    assert [sorted(w) for w in widths] == [[1, 2, 3]] * 3


def test_probe_lower_bound_norms_in_grouped_evaluations(counted):
    """Work count for probe_lower_bound on power_log(2, 1) in the shape of the
    probe-orlicz benchmark (65 starts, windows 8, 16 and 32 at three rates,
    50 random probes): 226 N.value calls over 526,673 elements.  Illinois
    roots took 284 calls over 618,915 elements, bisected roots 1614 calls
    over 4,218,701 elements, and 3936 calls when each window and each set of
    probes had its own evaluation.  The winning probe is the one the
    bisected roots found."""
    N, calls = counted(PowerLog(2.0, 1.0))
    space = Orlicz(N)
    ix = estimate_indices(block_weights(space, -128, 128), 32)
    cfg = ProbeConfig(k_lo=-32, k_hi=32, n_values=(8, 16, 32), n_random=50, seed=1)
    calls.clear()
    got = probe_lower_bound(space, 1.3, cfg, ix=ix)
    assert len(calls) <= 226
    assert sum(calls) == 526673
    assert got.min_ratio == 0.11174406042720281
    assert got.meta["best_probe"] == ("squared", 1.4142135623679501, -32, 32)


def probe_bits(res) -> str:
    """Every float of a probe result, its best probe and its rate-lam curve
    (repr round-trips a float's bits)."""
    curve = res.meta["residual_curve"]
    return repr((res.lam, res.theta, res.min_ratio, res.residuals, res.meta["best_probe"])) + repr(
        (curve.lam, curve.theta, curve.min_ratio, curve.residuals, curve.meta)
    )


def test_probe_lower_bounds_norm_the_shared_rows_once(evaluations):
    """Work count for two lambdas in the shape of the probe-lorentz benchmark
    (257 starts, windows 8 to 64 at three rates, 200 random probes): 16,334
    rows reach the row kernels per lambda alone, 32,668 for both, and 28,299
    in one batch, which norms the unit vector (257 rows) and the geometric
    and squared windows of the two index rates (4,112 rows) once."""
    space = Lorentz(1.0, PiecewisePower(0.25, 0.75))
    ix = IndexSet(0.25, 0.75, 0.25, 0.75, 0.25, 0.75)
    cfg = ProbeConfig(k_lo=-128, k_hi=128, n_values=(8, 16, 32, 64), n_random=200, seed=1)
    want = [probe_lower_bound(space, lam, cfg, ix, lam_index=i) for i, lam in enumerate((1.3, 1.5))]
    assert sum(evaluations) == 32668
    evaluations.clear()
    got = probe_lower_bounds(space, [1.3, 1.5], cfg, ix)
    assert sum(evaluations) == 28299
    assert [probe_bits(r) for r in got] == [probe_bits(r) for r in want]


def test_probe_lower_bounds_share_power_log_work(counted, evaluations):
    """Work count for two lambdas in the shape of the probe-orlicz benchmark
    (65 starts, windows 8, 16 and 32 at three rates, 50 random probes) on
    power_log(2, 1): N.value runs over 1,084,823 elements for the two
    lambdas one at a time and 947,152 in one batch, which solves the roots of
    the unit vector and of the index rates' windows once.  The batch makes
    25 row-kernel evaluations, each of chunks of several atom counts up to
    the element budget."""
    N, calls = counted(PowerLog(2.0, 1.0))
    space = Orlicz(N)
    ix = estimate_indices(block_weights(space, -128, 128), 32)
    cfg = ProbeConfig(k_lo=-32, k_hi=32, n_values=(8, 16, 32), n_random=50, seed=1)
    calls.clear()
    want = [probe_lower_bound(space, lam, cfg, ix, lam_index=i) for i, lam in enumerate((1.3, 1.6))]
    assert sum(calls) == 1084823
    calls.clear()
    evaluations.clear()
    got = probe_lower_bounds(space, [1.3, 1.6], cfg, ix)
    assert sum(calls) == 947152
    assert len(evaluations) == 25
    assert [probe_bits(r) for r in got] == [probe_bits(r) for r in want]


@st.composite
def probe_grids(draw) -> tuple:
    """A space, indices (or none), and 1 to 3 rates, some of them an index
    rate 2**alpha or 2**beta and some that fail: 1e-300 overflows its window
    and 1e300 its second image."""
    space = draw(st.sampled_from(SPACES))
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(alpha, 1.0))
    ix = draw(st.sampled_from([None, IndexSet(alpha, beta, alpha, beta, alpha, beta)]))
    rate = st.one_of(st.floats(0.5, 3.0), st.sampled_from([2.0**alpha, 2.0**beta, 1e-300, 1e300]))
    lams = draw(st.lists(rate, min_size=1, max_size=3))
    return space, ix, lams


@settings(max_examples=60, deadline=None)
@given(
    grid=probe_grids(),
    n_values=st.lists(st.integers(0, 8), max_size=3),
    n_random=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_lower_bounds_equal_one_lambda_at_a_time(grid, n_values, n_random, seed):
    """The batch gives every probe_lower_bound to the bit, best probe and
    rate-lam curve included, or the exception of the first lambda that fails."""
    space, ix, lams = grid
    cfg = ProbeConfig(k_lo=-8, k_hi=8, n_values=tuple(n_values), n_random=n_random, seed=seed)
    try:
        want = [probe_lower_bound(space, lam, cfg, ix, lam_index=i) for i, lam in enumerate(lams)]
    except (NumericalError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            probe_lower_bounds(space, lams, cfg, ix)
        assert str(got.value) == str(exc)
        return
    assert [probe_bits(r) for r in probe_lower_bounds(space, lams, cfg, ix)] == [
        probe_bits(r) for r in want
    ]


def reference_probe_result(lam, rates, ns, ks, norms) -> ProbeResult:
    """_probe_result as three update passes, unit vector, windows and random
    probes, each taking a candidate only when strictly below the best so far:
    the form it had before one ordered minimum."""
    splits = [len(ks), 2 * len(ks), (2 + 5 * len(ns) * len(rates)) * len(ks)]
    units, images, scans, probes = np.split(norms, splits)
    best = math.inf
    best_probe = None

    with np.errstate(invalid="ignore"):
        units = _never_wins(images / units)
    i = int(np.argmin(units))
    if units[i] < best:
        best, best_probe = float(units[i]), ("unit", ks[i])

    per_n_best: dict[int, float] = {}
    for rate, rate_norms in zip(rates, np.split(scans, len(rates))):
        scan = _window_scan(rate_norms, ns, ks)
        if rate == lam:
            curve = _curve(lam, ks, scan)
        for n, r, k, kind in scan:
            per_n_best[n] = min(per_n_best.get(n, math.inf), r)
            if r < best:
                best, best_probe = r, (kind, rate, k, n)

    probe_norms, image_norms = probes.reshape(2, -1)
    with np.errstate(invalid="ignore"):
        ratios = (image_norms / probe_norms).tolist()
    for i, r in enumerate(ratios):
        if r < best:
            best, best_probe = r, ("random", i)

    return ProbeResult(
        lam,
        math.log2(lam),
        best,
        tuple(sorted(per_n_best.items())),
        meta={"best_probe": best_probe, "residual_curve": curve},
    )


@st.composite
def scored_norms(draw) -> tuple:
    """A suite's shape and the norms of its requests, each drawn from a few
    values with inf and NaN among them, so that ties between unit, window and
    random candidates are common and some ratios are inf/inf or inf/x."""
    rates = sorted(draw(st.sets(st.sampled_from([0.75, 1.3, 2.0]), min_size=1, max_size=3)))
    lam = draw(st.sampled_from(rates))
    ns = sorted(draw(st.sets(st.integers(1, 64), max_size=3)))
    k_lo = draw(st.integers(-8, 8))
    ks = range(k_lo, k_lo + draw(st.integers(1, 5)))
    size = (2 + 5 * len(ns) * len(rates)) * len(ks) + 2 * draw(st.integers(0, 4))
    norm = st.sampled_from([0.5, 1.0, 2.0, math.inf, math.nan])
    return lam, rates, ns, ks, np.array(draw(st.lists(norm, min_size=size, max_size=size)))


@settings(max_examples=300)
@given(suite=scored_norms())
def test_probe_result_takes_the_first_strict_minimum_of_the_finite_ratios(suite):
    """The ordered minimum scores as the three update passes did: min_ratio,
    residuals, best probe and rate-lam curve, to the repr of every float."""
    assert probe_bits(_probe_result(*suite)) == probe_bits(reference_probe_result(*suite))


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


@dataclass(frozen=True)
class Holed(FnSpec):
    """t**2, but NaN on [2**-5, 2**-2] and on [2**2, 2**5]."""

    kind = "holed"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where((2.0**-5 <= t) & (t <= 2.0**-2) | (4.0 <= t) & (t <= 32.0), np.nan, t * t)
        return out if out.ndim else float(out)


@pytest.mark.parametrize(
    "N,us",
    [
        (PowerLog(2.0, 1.0), [5e-324, 1e-320, 1e300]),  # subnormal u: J = 537 and 532
        (PowerLog(2.0, -1.0), [5e-324, 1e-320, 1e300]),  # NaN at t = inf, on the lattice
        (PowerLog(1.01, -0.5), [1e300]),  # J = 992: next to N's overflow, then NaN
        (Holed(), [1e-300, 0.001, 100.0, 1e300]),  # steps past NaN both ways
    ],
    ids=["power_log", "power_log-c<0", "power_log-a1.01-c<0", "holed"],
)
def test_inverse_lattice_lookup_equals_the_scalar_loop(N, us):
    """The lattice evaluation reads N at 2**+-1100, where 2**1024 on is inf
    and 2**-1075 on is 0, with no warning; each root is the scalar loop's."""
    assert _inverse_rows(N, np.array(us)).tolist() == [reference_inverse(N, u) for u in us]


@pytest.mark.parametrize(
    "N",
    [PowerLog(2.0, 1.0), PowerLog(2.0, -1.0), NS[3], Between()],
    ids=["power_log", "power_log-c<0", "table", "between"],
)
def test_inverse_of_inf_fails_above(N):
    """u = inf reaches no step: the step loop's test inf - N(t) <= 0 is NaN
    where N(t) = inf, so it fails above, not at the first t with N(t) = inf."""
    with pytest.raises(NumericalError, match="^failed to bracket N inverse above for u=inf$"):
        _inverse_rows(N, np.array([2.0, math.inf, 0.5]))


def test_inverse_at_n_of_one_is_solved_on_the_lattice(counted):
    """u == N(1) is solved at t = 1: one lattice evaluation and no bisection."""
    N, calls = counted(PowerLog(2.0, 1.0))
    u = N.value(1.0)
    calls.clear()
    got = _inverse_rows(N, np.array([u])).tolist()
    assert calls == [2 * _MAX_BRACKET + 1]
    assert got == [1.0] == [reference_inverse(N, u)]


def test_block_weights_bracket_up_and_down_rows_in_the_same_steps(counted):
    """Work count for the power_log weights on [-512, 512]: 201 N.value calls,
    one on the lattice 2**+-j that brackets every row and 200 the bisection's,
    which stops at its cap.  A galloping search on the step count took 217,
    the bracket 457 when it stepped once per call, and 711 when the rows
    above t = 1 and those below had a bracketing loop each."""
    N, calls = counted(PowerLog(2.0, 1.0))
    space = Orlicz(N)
    calls.clear()
    got = block_weights(space, -512, 512).s
    assert len(calls) <= 201
    want = block_weights(Orlicz(PowerLog(2.0, 1.0)), -512, 512).s
    assert got.tobytes() == want.tobytes()


def test_luxemburg_rows_bracket_far_roots_by_search(counted):
    """Work count for 17 rows whose roots lie up to about 200 doublings from
    u0: 7 N.value calls, as the slope bound brackets each root from its
    modular at u0 and secant steps find it.  Illinois steps took 9, the
    bracket search and bisection 57, and 242 when the bracket stepped once
    per call.  Every norm is the scalar root's."""
    N, calls = counted(PowerLog(2.0, 1.0))
    values = np.array([3.0, 2.0, 1.0])
    weights = np.ldexp(np.array([1.0, 2.0, 4.0]), np.arange(-400, 401, 50)[:, None])
    got = _luxemburg_rows([(values, weights)], N)
    assert len(calls) <= 7
    assert got.tolist() == [reference_root(values, w, PowerLog(2.0, 1.0)) for w in weights]


# Rows the slope point cannot bracket, each batched with rows it does: a
# modular that overflows at the slope point (3 * 2**-347 on one value, for
# piecewise_power) or at u0 (weights 1e308), and roots below the normal
# floats (weights 2**-60 on values near 1e-300).
PAST_THE_SLOPE = {
    "one-value": (np.array([1.0]), 3.0 * np.ldexp(1.0, np.array([[-347], [-200], [0], [200]]))),
    "three-values": (
        np.array([3.0, 2.0, 1.0]),
        np.array([[1e308] * 3, [1.0, 2.0, 4.0], [2.0**-1000] * 3]),
    ),
    "tiny-values": (
        np.array([1e-300, 5e-301]),
        np.array([[2.0**-100, 1.0], [1.0, 1.0], [2.0**-60] * 2]),
    ),
}
# N.value calls of the doubling search in x = log(u / u0).  Doubling or
# halving u one step per call took 123, 689, 27; 7, 522, 38; 135, 528, 28.
# The table's tiny-values row with weights 2**-60 brackets its root at the
# subnormal u = 1.08e-318, so its secant steps land near, not on, the root:
# with the high slope exactly 3 its third lands at f = 1.6e-15, above
# _ROOT_TOL, and it takes 5 steps (3 when the slope read 3 + 4.4e-16), for a
# root 6.7e-16 from the 40-digit one instead of 1.1e-15.
PAST_THE_SLOPE_CALLS = {
    ("piecewise_power", "one-value"): 5,
    ("piecewise_power", "three-values"): 10,
    ("piecewise_power", "tiny-values"): 5,
    ("power_log", "one-value"): 7,
    ("power_log", "three-values"): 16,
    ("power_log", "tiny-values"): 7,
    ("table", "one-value"): 16,
    ("table", "three-values"): 17,
    ("table", "tiny-values"): 7,
}


@pytest.mark.parametrize("rows", PAST_THE_SLOPE)
@pytest.mark.parametrize("N", NS[1:], ids=[N.kind for N in NS[1:]])
def test_luxemburg_rows_past_the_slope_bracket_match_scalar_root(counted, N, rows):
    """Each norm is the scalar root's, in the pinned number of N.value calls."""
    values, weights = PAST_THE_SLOPE[rows]
    counted_N, calls = counted(N)
    got = _luxemburg_rows([(values, weights)], counted_N)
    assert len(calls) <= PAST_THE_SLOPE_CALLS[N.kind, rows]
    assert got.tolist() == [reference_root(values, w, N) for w in weights]


def test_luxemburg_root_past_its_step_cap_is_numerical_failure(monkeypatch):
    """A row still going after _MAX_ROOT steps raises, and so does a batch
    holding it: a root never comes back unconverged."""
    monkeypatch.setattr(spaces, "_MAX_ROOT", 1)
    space = Orlicz(PowerLog(2.0, 1.0))
    with pytest.raises(NumericalError, match="^luxemburg root did not converge in the step cap 1$"):
        space_norm(space, Distribution(((3.0, 1.0), (1.0, 2.0))))
    with pytest.raises(NumericalError, match="did not converge"):
        block_norms(space, Seq({0: 1.0, 1: 0.5}), [-3, 0, 3])


@pytest.mark.parametrize(
    "N", [PurePower(2.0), PowerLog(2.0, 1.0)], ids=["closed_form", "bisection"]
)
def test_orlicz_fundamental_refuses_t_whose_reciprocal_overflows(N):
    """N is inverted at u = 1/t, which is inf for t below 2**-1024: that t is
    refused, by name and with no warning, for every kind; 2**-1020 solves."""
    space = Orlicz(N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5e-324, 2.0**-1024):
            message = f"^t with a finite reciprocal required, got {re.escape(str(t))}$"
            with pytest.raises(ValueError, match=message):
                fundamental(space, t)
        assert fundamental(space, 2.0**-1020) == reference_fundamental(space, 2.0**-1020)
    if N.kind == "power_log":
        assert fundamental(space, 2.0**-1020) == 5.593845860723245e-153


@pytest.mark.parametrize(
    "N", [PurePower(2.0), PowerLog(2.0, 1.0)], ids=["closed_form", "bisection"]
)
def test_orlicz_fundamental_at_infinity_is_inf(N):
    """phi(inf) = 1/N^-1(0) = inf, as the Lorentz side gives, with no warning;
    the finite t of the same call keep their one-t values."""
    space = Orlicz(N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fundamental(space, math.inf) == math.inf
        got = fundamentals(space, [4.0, math.inf, 0.25]).tolist()
    assert got == [fundamental(space, 4.0), math.inf, fundamental(space, 0.25)]
    assert fundamental(Lorentz(1.0, PurePower(0.5)), math.inf) == math.inf


@pytest.mark.parametrize(
    "space,t",
    [
        (Orlicz(TableFn(((1.0, 1e-100), (2.0, 2e-100)))), 2.0**-700),  # N^-1 overflows: 0
        (Lorentz(1.0, TableFn(((1.0, 1e-290), (2.0, 2e-290)))), 2.0**-700),  # psi underflows: 0
        (Lorentz(1.0, TableFn(((1.0, 1e280), (2.0, 2e280)))), 2.0**100),  # psi overflows: inf
    ],
    ids=["orlicz-zero", "lorentz-zero", "lorentz-inf"],
)
def test_fundamental_outside_the_float_range_is_numerical_failure(space, t):
    """A finite t whose norm is 0 or inf is refused by name, first in order
    (it would fail WeightSeq with a ValueError), while t = inf gives inf."""
    message = f"^fundamental function leaves the float range at t={re.escape(str(t))}$"
    with pytest.raises(NumericalError, match=message):
        fundamentals(space, [1.0, t, t**1.25, math.inf])
    with pytest.raises(NumericalError, match="^fundamental function leaves the float range"):
        block_weights(space, -1000 if t < 1 else 0, 0 if t < 1 else 1000)
    assert fundamentals(space, [1.0, math.inf])[1] == math.inf


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
    tol=st.sampled_from([INV_REL_TOL, 1e-6]),
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


# --- random probes: batched ratios against one scalar ratio per probe -------------------


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
@pytest.mark.parametrize("lam", [0.5, 1.2, 2.0])
@pytest.mark.parametrize("seed", [1, 0x5EED])
def test_random_probe_ratios_equal_scalar_ratios(space, lam, seed):
    cfg = ProbeConfig(k_lo=-24, k_hi=24, n_values=(), n_random=40, seed=seed)
    firsts, coeffs = _random_probes(cfg, 0)
    probes = [Seq({k + j: c for j, c in enumerate(row)}) for k, row in zip(firsts, coeffs.tolist())]
    want = [
        reference_norm(space, reference_seq_atoms(reference_image(a, lam)))
        / reference_norm(space, reference_seq_atoms(a))
        for a in probes
    ]
    norms, image_norms = _grouped_norms(space, [_probe_requests(lam, firsts, coeffs)]).reshape(2, -1)
    assert (image_norms / norms).tolist() == want
    # The first strict minimum in probe order wins, after the unit vectors.
    ks = range(cfg.k_lo, cfg.k_hi + 1)
    best, best_probe = math.inf, None
    for k in ks:
        unit = Seq.unit(k)
        r = reference_norm(space, reference_seq_atoms(reference_image(unit, lam))) / reference_norm(
            space, reference_seq_atoms(unit)
        )
        if r < best:
            best, best_probe = r, ("unit", k)
    for i, r in enumerate(want):
        if r < best:
            best, best_probe = r, ("random", i)
    res = probe_lower_bound(space, lam, cfg)
    assert (res.min_ratio, res.meta["best_probe"]) == (best, best_probe)
