"""Approximate point spectrum of the doubling operator and probe experiments.

Everything is phrased in theta = log2(lambda).  The interval assembly follows
the index case split; the probe routines produce finite-truncation evidence:
residual curves along window constructions that collapse at approximate
eigenvalues, suite-wide lower bounds elsewhere, partial sums for the kernel
functional, and the exact range identity.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .indices import IndexSet, WeightSeq
from .shifts import shift_minus
from .spaces import _UNSCALED, NumericalError, SpaceSpec, _block_request, _grouped_norms, space_norms
from .steps import MAX_RANDOM, Seq, _canonical_rows, _seeded_generators

__all__ = [
    "ThetaInterval",
    "SpectrumReport",
    "Verdict",
    "LambdaClass",
    "ProbeConfig",
    "ProbeResult",
    "FunctionalSumTest",
    "approx_eigenvalue_set",
    "frep_set",
    "classify_lambda",
    "residual_curve",
    "probe_lower_bound",
    "probe_lower_bounds",
    "functional_bound_test",
    "kernel_witness_curve",
    "range_identity_check",
]

_BOUNDARY_TOL = 1e-12
_CONVERGED_REL = 1e-9
# Longest random probe of the standard suite, in blocks.
RANDOM_MAX_LEN = 16


@dataclass(frozen=True)
class ThetaInterval:
    """Closed interval of theta = log2(lambda) values inside [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"bad theta interval [{self.lo}, {self.hi}]")

    def contains(self, theta: float) -> bool:
        return self.lo <= theta <= self.hi

    def to_p(self) -> tuple[float, float]:
        """Image under p = 1/theta (order reversing; theta=0 -> inf)."""
        p_lo = 1.0 / self.hi if self.hi > 0 else math.inf
        p_hi = 1.0 / self.lo if self.lo > 0 else math.inf
        return (p_lo, p_hi)


@dataclass(frozen=True)
class SpectrumReport:
    """Approximate eigenvalue set in theta, with its p-coordinate view."""

    eigen_set: tuple[ThetaInterval, ...]
    case_tag: str
    source: IndexSet
    split_uncertain: bool = False

    @property
    def frep_set(self) -> tuple[tuple[float, float], ...]:
        """p-intervals, largest p last; math.inf marks an unbounded endpoint."""
        return tuple(iv.to_p() for iv in self.eigen_set)


def approx_eigenvalue_set(ix: IndexSet) -> SpectrumReport:
    """Case split on the restricted indices.

    alpha_inf <= beta0: one interval [alpha, beta].  Otherwise the middle
    (beta0, alpha_inf) consists of isomorphisms onto a closed hyperplane, and
    the set splits into [alpha, beta0] and [alpha_inf, beta].
    """
    err = float(ix.meta.get("est_error", 0.0)) if ix.meta else 0.0
    split_uncertain = abs(ix.alpha_inf - ix.beta0) < 2.0 * err
    if ix.alpha_inf <= ix.beta0:
        case_tag, ends = "i", [(ix.alpha, ix.beta)]
    else:
        case_tag, ends = "ii", [(ix.alpha, ix.beta0), (ix.alpha_inf, ix.beta)]
    # Ends that cross by rounding, as IndexSet allows, meet at the upper one.
    intervals = tuple(ThetaInterval(min(lo, hi), hi) for lo, hi in ends)
    return SpectrumReport(intervals, case_tag, ix, split_uncertain=split_uncertain)


def frep_set(ix: IndexSet) -> SpectrumReport:
    """Same report; read the p-coordinate view via .frep_set."""
    return approx_eigenvalue_set(ix)


class Verdict(str, Enum):
    ISO_ONTO = "iso_onto"
    ISO_ONTO_CODIM1 = "iso_onto_codim1"
    SURJECTIVE_NOT_INJECTIVE = "surjective_not_injective"
    NOT_CLOSED = "not_closed"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class LambdaClass:
    lam: float
    theta: float
    verdict: Verdict


def classify_lambda(ix: IndexSet, lam: float) -> LambdaClass:
    """Place lambda relative to the isomorphism / closed-image regions.

    Outside [2**alpha, 2**beta] the operator is an isomorphism onto the whole
    lattice.  Inside, the window (beta0, alpha_inf) gives an isomorphism onto
    a codimension-one closed subspace, the window (beta_inf, alpha0) gives a
    surjection with one-dimensional kernel, threshold hits are 'boundary',
    and everything else has non-closed image.
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    theta = math.log2(lam)
    thresholds = [ix.alpha, ix.beta]
    if ix.beta0 < ix.alpha_inf:
        thresholds += [ix.beta0, ix.alpha_inf]
    if ix.beta_inf < ix.alpha0:
        thresholds += [ix.beta_inf, ix.alpha0]
    if any(abs(theta - t) <= _BOUNDARY_TOL for t in thresholds):
        verdict = Verdict.BOUNDARY
    elif theta < ix.alpha or theta > ix.beta:
        verdict = Verdict.ISO_ONTO
    elif ix.beta0 < theta < ix.alpha_inf:
        verdict = Verdict.ISO_ONTO_CODIM1
    elif ix.beta_inf < theta < ix.alpha0:
        verdict = Verdict.SURJECTIVE_NOT_INJECTIVE
    else:
        verdict = Verdict.NOT_CLOSED
    return LambdaClass(lam, theta, verdict)


@dataclass(frozen=True)
class ProbeConfig:
    """Probe suite shape; defaults give the standard deterministic suite."""

    k_lo: int = -128
    k_hi: int = 128
    n_values: tuple[int, ...] = (8, 16, 32, 64)
    n_random: int = 200
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.k_lo > self.k_hi:
            raise ValueError(f"k_hi must be >= k_lo, got k_lo={self.k_lo}, k_hi={self.k_hi}")
        if not 0 <= self.n_random <= MAX_RANDOM:
            raise ValueError(f"n_random must lie in [0, {MAX_RANDOM}], got {self.n_random}")


@dataclass(frozen=True)
class ProbeResult:
    lam: float
    theta: float
    min_ratio: float
    residuals: tuple[tuple[int, float], ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.min_ratio < 0:
            raise ValueError("min_ratio must be nonnegative")
        ns = [n for n, _ in self.residuals]
        if ns != sorted(set(ns)):
            raise ValueError("residual entries must have strictly increasing n")


def _never_wins(r: np.ndarray) -> np.ndarray:
    """NaN (a norm that overflowed) read as inf: neither is a strict minimum."""
    return np.where(np.isnan(r), np.inf, r)


def _images(lam: float, coeffs: np.ndarray) -> np.ndarray:
    """Row i is shift_minus(coeffs[i], lam) for coefficients on blocks 0, 1, ...
    ending in a 0, to the bit; an overflow reads inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.pad(coeffs[:, :-1], ((0, 0), (1, 0))) - lam * coeffs


def _scan_requests(lam: float, rates: Sequence[float], ns: Sequence[int], ks, keep=slice(None)):
    """The _grouped_norms batch, at every start k of ks, of the windows of each
    rate (outer) and n: the geometric window, its image under shift - lam,
    the squared window, its image and the image of that.  Each is a row of
    coefficients on blocks 0, 1, ..., in the batch where keep selects it; the
    first (rate, n) that fails raises as its windows built one by one do."""
    ks, ns = np.asarray(ks, dtype=int), np.asarray(ns, dtype=int)[:, None]
    j = np.arange(2 * ns.max(initial=0) + 3)
    c = np.full((len(rates), 1, j.size), np.nan)  # NaN from the first rate ** -j that overflows
    for r, rate in enumerate(rates):
        with contextlib.suppress(OverflowError):
            for i in j.tolist():
                c[r, 0, i] = rate**-i
    blown = np.isnan(c[:, 0, 2 * ns[:, 0]]).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        geo = np.where(j <= ns, c, 0.0).reshape(-1, j.size)
        sq = np.where(j <= 2 * ns, np.minimum(j + 1, 2 * ns + 1 - j) * c, 0.0).reshape(-1, j.size)
    t1 = _images(lam, sq)
    rows = np.stack([geo, _images(lam, geo), sq, t1, _images(lam, t1)], axis=1)
    last = j.size - 1 - (rows != 0.0).any(axis=1)[:, ::-1].argmax(axis=1)
    outside = (ks.min(initial=0) < -1000) | (last + ks.max(initial=0) > 1000)
    for i in np.flatnonzero(blown | ~np.isfinite(rows).all(axis=(1, 2)) | outside)[:1]:
        if blown[i]:
            raise NumericalError(f"window at rate {rates[i // len(ns)]} overflows")
        if not np.isfinite(rows[i]).all():
            raise NumericalError(f"(shift - lam) image overflows at lam={lam}")
        raise ValueError("shifted block index outside the exact-measure range")
    # Past the last nonzero block the rows are 0: a block measure there could overflow.
    measures = np.ldexp(1.0, np.arange(last.max(initial=-1) + 1))
    rows = np.abs(rows[:, :, : measures.size]).reshape(5 * len(rows), measures.size)
    return (*_canonical_rows(rows[keep], measures), np.ldexp(1.0, ks))


def _window_scan(norms: np.ndarray, ns: Sequence[int], ks: Sequence[int]) -> list[tuple]:
    """(n, best ratio, argmin k, construction) per n from the norms of one
    rate's _scan_requests, scored as in residual_curve.  The first strict
    minimum in k order wins, geometric before squared."""
    out = []
    for n, (geo, image, sq, t1, t2) in zip(ns, norms.reshape(len(ns), 5, len(ks))):
        with np.errstate(invalid="ignore"):
            geometric = _never_wins(image / geo)
            r1 = t1 / sq
            r2 = t2 / t1
        # min(r1, r2) as Python's min takes it, NaN included.
        squared = _never_wins(np.where(r2 < r1, r2, r1))
        # At each k the squared window replaces the geometric one only when
        # strictly better; argmin then takes the first minimum in k order.
        pick_sq = squared < geometric
        best = np.where(pick_sq, squared, geometric)
        i = int(np.argmin(best))
        kind = "squared" if pick_sq[i] else "geometric"
        out.append((n, float(best[i]), int(ks[i]), kind))
    return out


def _curve(lam: float, ks: Sequence[int], scan: list) -> ProbeResult:
    residuals = tuple((n, r) for n, r, _, _ in scan)
    return ProbeResult(
        lam,
        math.log2(lam),
        min((r for _, r in residuals), default=math.inf),
        residuals,
        meta={
            "argmin": {n: {"k": k, "construction": kind} for n, _, k, kind in scan},
            "k_search": [ks[0], ks[-1]],
        },
    )


def residual_curve(
    space: SpaceSpec,
    lam: float,
    n_list: Sequence[int],
    k_search: Sequence[int],
) -> ProbeResult:
    """Best window residual per window size n.

    For each n and window start k the candidates are the geometric window's
    one-step ratio and the squared window's better of first- and second-step
    ratios; the curve records the minimum over k with its argmin.
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    ks = sorted(set(int(k) for k in k_search))
    if not ks:
        raise ValueError("empty k_search")
    ns = sorted(set(int(n) for n in n_list))
    norms = _grouped_norms(space, [_scan_requests(lam, [lam], ns, ks)])
    return _curve(lam, ks, _window_scan(norms, ns, ks))


def _random_probes(cfg: ProbeConfig, lam_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero random probes as (first blocks, coefficient rows): row i
    holds probe i's coefficients on blocks starts[i], starts[i] + 1, ...,
    padded with zeros to RANDOM_MAX_LEN + 1."""
    starts, rows = [], np.zeros((cfg.n_random, RANDOM_MAX_LEN + 1))
    for rng in _seeded_generators((cfg.seed, lam_index), cfg.n_random):
        # A draw longer than the k range is cut to it; shorter draws are
        # unchanged, so every suite that ran before keeps its probes.
        length = min(int(rng.integers(1, RANDOM_MAX_LEN + 1)), cfg.k_hi - cfg.k_lo + 1)
        start = int(rng.integers(cfg.k_lo, cfg.k_hi - length + 2))
        vals = rng.standard_normal(length)
        if vals.any():
            rows[len(starts), :length] = vals
            starts.append(start)
    return np.array(starts, dtype=int), rows[: len(starts)]


def _probe_requests(lam: float, starts: np.ndarray, coeffs: np.ndarray) -> tuple:
    """The _grouped_norms batch of the probes a of _random_probes, in order,
    then of each (shift - lam) a, each row normed as it is."""
    images = _images(lam, coeffs)
    if not np.isfinite(images).all():
        raise NumericalError(f"(shift - lam) image overflows at lam={lam}")
    measures = np.ldexp(1.0, starts[:, None] + np.arange(images.shape[1]))
    rows = np.abs(np.concatenate((coeffs, images)))
    return (*_canonical_rows(rows, np.concatenate((measures, measures))), _UNSCALED)


def probe_lower_bound(
    space: SpaceSpec,
    lam: float,
    cfg: ProbeConfig = ProbeConfig(),
    ix: Optional[IndexSet] = None,
    lam_index: int = 0,
) -> ProbeResult:
    """Minimum of ||(shift - lam) a|| / ||a|| over the standard probe suite.

    The suite contains unit vectors across the window, geometric and squared
    windows at rates lam and (when ix is given) 2**alpha and 2**beta, and
    seeded random finite sequences, drawn for lam_index.  The result
    upper-bounds the operator's lower norm bound; small values are eigenvalue
    evidence.  Its residuals are the best window ratio per n over all rates,
    and meta["residual_curve"] holds the rate-lam scan as the ProbeResult of
    residual_curve(space, lam, cfg.n_values, range(cfg.k_lo, cfg.k_hi + 1)).
    """
    return _probe_bounds(space, [(lam_index, lam)], cfg, ix)[0]


def probe_lower_bounds(
    space: SpaceSpec,
    lams: Sequence[float],
    cfg: ProbeConfig = ProbeConfig(),
    ix: Optional[IndexSet] = None,
) -> list[ProbeResult]:
    """[probe_lower_bound(space, lam, cfg, ix, lam_index=i) for i, lam in
    enumerate(lams)], bit for bit, from one grouped norm evaluation: the unit
    vector and the rows that no lam changes are normed once for the grid."""
    return _probe_bounds(space, list(enumerate(lams)), cfg, ix)


def _probe_bounds(space: SpaceSpec, grid: list, cfg: ProbeConfig, ix: Optional[IndexSet]) -> list:
    """The probe_lower_bound of each (lam_index, lam) of grid.  Each lam's
    batches are built in grid order, so the first lam that fails to build
    raises as it would alone, and then all are normed in one _grouped_norms
    call.  The unit vector, and the geometric and squared windows of each
    (rate, n) (scan positions 0 and 2), do not depend on lam: each row is
    normed once, by that position, at the first lam that has it."""
    ks = range(cfg.k_lo, cfg.k_hi + 1)
    ns = sorted(set(int(n) for n in cfg.n_values))
    batches, seen, plans, size = [], {}, [], 0
    for lam_index, lam in grid:
        if not lam > 0:
            raise ValueError(f"positive lam required, got {lam}")
        if math.isinf(lam):  # (shift - lam) e_0 = e_1 - lam e_0
            raise NumericalError(f"(shift - lam) image overflows at lam={lam}")
        rates = sorted(set([lam] + ([] if ix is None else [2.0**ix.alpha, 2.0**ix.beta])))
        # The unit vector and its image, the windows of every rate: keyed where lam
        # leaves them as they are.  A row's norms at every k start at its where.
        keys = ["unit", None]
        keys += [(rate, n, i) if i in (0, 2) else None for rate in rates for n in ns for i in range(5)]
        where, new = [], []
        for key in keys:
            where.append(size if key is None else seen.setdefault(key, size))
            new.append(where[-1] == size)
            size += len(ks) * new[-1]
        unit, image = (_block_request(Seq(a), ks) for a in ({0: 1.0}, {0: -lam, 1: 1.0}))
        scan = _scan_requests(lam, rates, ns, ks, np.array(new[2:], dtype=bool))
        probes = _probe_requests(lam, *_random_probes(cfg, lam_index))
        batches += [unit] * new[0] + [image, scan, probes]
        take = (np.array(where)[:, None] + np.arange(len(ks))).ravel()
        plans.append((lam, rates, np.r_[take, size : size + probes[2].size - 1]))
        size += probes[2].size - 1
    norms = _grouped_norms(space, batches)
    return [_probe_result(lam, rates, ns, ks, norms[take]) for lam, rates, take in plans]


def _probe_result(lam: float, rates: list, ns: list, ks: range, norms: np.ndarray) -> ProbeResult:
    """probe_lower_bound's result from the norms of its requests in order:
    the unit vector and its image at every k, the windows of every rate, the
    random probes and then their images.  Scored in that order, each rate's
    windows n by n, the first strict minimum of the finite ratios wins."""
    splits = [len(ks), 2 * len(ks), (2 + 5 * len(ns) * len(rates)) * len(ks)]
    units, images, windows, probes = np.split(norms, splits)
    probe_norms, image_norms = probes.reshape(2, -1)
    with np.errstate(invalid="ignore"):
        unit_ratios = (images / units).tolist()
        ratios = (image_norms / probe_norms).tolist()
    scans = [_window_scan(w, ns, ks) for w in np.split(windows, len(rates))]
    candidates = [(r, ("unit", k)) for k, r in zip(ks, unit_ratios)]
    for rate, scan in zip(rates, scans):
        candidates += [(r, (kind, rate, k, n)) for n, r, k, kind in scan]
    candidates += [(r, ("random", i)) for i, r in enumerate(ratios)]
    finite = [c for c in candidates if c[0] < math.inf]
    best, best_probe = min(finite, key=lambda c: c[0], default=(math.inf, None))
    return ProbeResult(
        lam,
        math.log2(lam),
        best,
        tuple((n, min(scan[j][1] for scan in scans)) for j, n in enumerate(ns)),
        meta={"best_probe": best_probe, "residual_curve": _curve(lam, ks, scans[rates.index(lam)])},
    )


@dataclass(frozen=True)
class FunctionalSumTest:
    converged: bool
    partial: float
    last_increment: float


def functional_bound_test(w: WeightSeq, lam: float, M: int) -> FunctionalSumTest:
    """Partial sums of sum_{|k| <= M} lam**k / s_k.

    Bounded sums mean the coefficient functional sum_k lam**k a_k is bounded
    on the weighted lattice, which is what makes the codimension-one image
    closed.  Convergence = last increment below 1e-9 * partial.
    """
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    if w.k_min > -M or w.k_max < M:
        raise ValueError(f"M={M} outside weight window [{w.k_min}, {w.k_max}]")
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    partial = 1.0 / w.get(0)
    increment = partial
    for m in range(1, M + 1):
        increment = lam**m / w.get(m) + lam**-m / w.get(-m)
        partial += increment
    return FunctionalSumTest(
        converged=increment < _CONVERGED_REL * partial,
        partial=partial,
        last_increment=increment,
    )


def kernel_witness_curve(
    space: SpaceSpec, lam: float, m_values: Sequence[int]
) -> list[tuple[int, float]]:
    """Norms of the truncated kernel candidate sum_{|n| <= M} lam**(-n) e_n."""
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    ms = sorted(set(int(m) for m in m_values))
    seqs = [Seq({n: lam ** (-n) for n in range(-M, M + 1)}) for M in ms]
    return list(zip(ms, space_norms(space, [a.distribution() for a in seqs])))


def range_identity_check(a: Seq, lam: float) -> float:
    """Relative residual of sum_k lam**k * ((shift - lam) a)_k = 0."""
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    b = shift_minus(a, lam)
    total = sum(lam**k * v for k, v in b.items())
    scale = sum(lam**k * abs(v) for k, v in a.items())
    return abs(total) / max(1.0, scale)
