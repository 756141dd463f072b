"""Approximate point spectrum of the doubling operator and probe experiments.

Everything is phrased in theta = log2(lambda).  The interval assembly follows
the index case split; the probe routines produce finite-truncation evidence:
residual curves along window constructions that collapse at approximate
eigenvalues, suite-wide lower bounds elsewhere, partial sums for the kernel
functional, and the exact range identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .indices import IndexSet, WeightSeq
from .shifts import geometric_window, shift_minus, squared_window
from .spaces import NumericalError, SpaceSpec, _grouped_norms, block_norm, block_norms
from .steps import Seq, _canonical_rows

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
        intervals = (ThetaInterval(ix.alpha, ix.beta),)
        case_tag = "i"
    else:
        intervals = (
            ThetaInterval(ix.alpha, ix.beta0),
            ThetaInterval(ix.alpha_inf, ix.beta),
        )
        case_tag = "ii"
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


def _image(a: Seq, lam: float) -> Seq:
    """shift_minus(a, lam); NumericalError when a coefficient overflows."""
    b = shift_minus(a, lam)
    if not all(math.isfinite(v) for v in b.coeffs.values()):
        raise NumericalError(f"(shift - lam) image overflows at lam={lam}")
    return b


def _never_wins(r: np.ndarray) -> np.ndarray:
    """NaN (a norm that overflowed) read as inf: neither is a strict minimum."""
    return np.where(np.isnan(r), np.inf, r)


def _ratios(space: SpaceSpec, lam: float, a: Seq, ks: Sequence[int]) -> np.ndarray:
    """||_image(b, lam)|| / ||b|| for b = shift(a, k), every k in ks, NaN read as inf."""
    with np.errstate(invalid="ignore"):
        return _never_wins(block_norms(space, _image(a, lam), ks) / block_norms(space, a, ks))


def _window_scan(
    space: SpaceSpec, lam: float, rate: float, ns: Sequence[int], ks: Sequence[int]
) -> list[tuple[int, float, int, str]]:
    """(n, best ratio, argmin k, construction) per distinct n, ascending, for
    windows of the given rate scored under shift - lam as in residual_curve.
    The first strict minimum in k order wins, geometric before squared.

    The window starting at k is shift(window at 0, k): its coefficient values
    do not depend on k, and moving it by k scales every block measure by
    2**k, exactly.  So each window and each image is built once, at k = 0,
    and block_norms evaluates all k at once, bit for bit as k-by-k norms.
    """
    out = []
    for n in sorted(set(int(n) for n in ns)):
        try:
            geo = geometric_window(rate, 0, n)
            sq = squared_window(rate, 0, n)
        except OverflowError as exc:
            raise NumericalError(f"window at rate {rate} overflows") from exc
        geometric = _ratios(space, lam, geo, ks)
        t1 = _image(sq, lam)
        norm_t1 = block_norms(space, t1, ks)
        with np.errstate(invalid="ignore"):
            r1 = norm_t1 / block_norms(space, sq, ks)
            r2 = block_norms(space, _image(t1, lam), ks) / norm_t1
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
    return _curve(lam, ks, _window_scan(space, lam, lam, n_list, ks))


def _random_probes(cfg: ProbeConfig, lam_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero random probes as (first blocks, coefficient rows): row i
    holds probe i's coefficients on blocks starts[i], starts[i] + 1, ...,
    padded with zeros to RANDOM_MAX_LEN."""
    starts, rows = [], np.zeros((cfg.n_random, RANDOM_MAX_LEN))
    for i in range(cfg.n_random):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((cfg.seed, lam_index, i)))
        )
        # A draw longer than the k range is cut to it; shorter draws are
        # unchanged, so every suite that ran before keeps its probes.
        length = min(int(rng.integers(1, RANDOM_MAX_LEN + 1)), cfg.k_hi - cfg.k_lo + 1)
        start = int(rng.integers(cfg.k_lo, cfg.k_hi - length + 2))
        vals = rng.standard_normal(length)
        if vals.any():
            rows[len(starts), :length] = vals
            starts.append(start)
    return np.array(starts, dtype=int), rows[: len(starts)]


def _probe_ratios(
    space: SpaceSpec, lam: float, starts: np.ndarray, coeffs: np.ndarray
) -> list[float]:
    """||(shift - lam) a|| / ||a|| for every probe a of _random_probes, in
    order.  Row i of the images holds (shift - lam) a on blocks starts[i],
    starts[i] + 1, ..., computed as shift_minus computes it; both sets of
    rows are canonicalised and normed as arrays."""
    padded = np.zeros((len(coeffs), RANDOM_MAX_LEN + 2))
    padded[:, 1:-1] = coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        images = padded[:, :-1] - lam * padded[:, 1:]
    if not np.isfinite(images).all():
        raise NumericalError(f"(shift - lam) image overflows at lam={lam}")
    measures = np.ldexp(1.0, starts[:, None] + np.arange(images.shape[1]))
    norms = _grouped_norms(space, _canonical_rows(np.abs(coeffs), measures[:, :-1]))
    image_norms = _grouped_norms(space, _canonical_rows(np.abs(images), measures))
    return [num / den for num, den in zip(image_norms, norms)]


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
    seeded random finite sequences.  The result upper-bounds the operator's
    lower norm bound; small values are eigenvalue evidence.  Its residuals
    are the best window ratio per n over all rates, and
    meta["residual_curve"] holds the rate-lam scan as the ProbeResult of
    residual_curve(space, lam, cfg.n_values, range(cfg.k_lo, cfg.k_hi + 1)).
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    ks = range(cfg.k_lo, cfg.k_hi + 1)
    best = math.inf
    best_probe = None

    units = _ratios(space, lam, Seq.unit(0), ks)
    i = int(np.argmin(units))
    if units[i] < best:
        best, best_probe = float(units[i]), ("unit", ks[i])

    rates = [lam]
    if ix is not None:
        rates += [2.0**ix.alpha, 2.0**ix.beta]
    rates = sorted(set(rates))

    per_n_best: dict[int, float] = {}
    for rate in rates:
        scan = _window_scan(space, lam, rate, cfg.n_values, ks)
        if rate == lam:
            curve = _curve(lam, ks, scan)
        for n, r, k, kind in scan:
            per_n_best[n] = min(per_n_best.get(n, math.inf), r)
            if r < best:
                best, best_probe = r, (kind, rate, k, n)

    for i, r in enumerate(_probe_ratios(space, lam, *_random_probes(cfg, lam_index))):
        if r < best:
            best, best_probe = r, ("random", i)

    return ProbeResult(
        lam,
        math.log2(lam),
        best,
        tuple(sorted(per_n_best.items())),
        meta={"best_probe": best_probe, "residual_curve": curve},
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
    out = []
    for M in sorted(set(int(m) for m in m_values)):
        a = Seq({n: lam ** (-n) for n in range(-M, M + 1)})
        out.append((M, block_norm(space, a)))
    return out


def range_identity_check(a: Seq, lam: float) -> float:
    """Relative residual of sum_k lam**k * ((shift - lam) a)_k = 0."""
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    b = shift_minus(a, lam)
    total = sum(lam**k * v for k, v in b.items())
    scale = sum(lam**k * abs(v) for k, v in a.items())
    return abs(total) / max(1.0, scale)
