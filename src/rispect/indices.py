"""Dilation indices from dyadic block weights.

The six indices are limits of (1/n) * log2 of suprema of weight ratios
s_{k+n}/s_k, taken over all k, over the blocks at or below scale one
("zero" region, k <= 0) or at or above it ("infinity" region, k >= 0).
The ratio-sup sequences are submultiplicative, so the value at the largest
window is the Fekete bound for the limit; a regression slope is kept as a
diagnostic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .spaces import Lorentz, Orlicz, PiecewisePower, PurePower, SpaceSpec, fundamentals

__all__ = [
    "WeightSeq",
    "IndexSet",
    "block_weights",
    "ratio_sup",
    "estimate_indices",
    "analytic_indices",
]

Region = Literal["all", "zero", "infinity"]
Direction = Literal["up", "down"]

_ORDER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WeightSeq:
    """Positive weights s_k = ||indicator of block k|| for k in [k_min, k_max].

    Construction checks the two monotonicity properties every fundamental
    function obeys: s_k nondecreasing and s_k / 2**k nonincreasing.
    """

    k_min: int
    k_max: int
    s: np.ndarray

    def __post_init__(self) -> None:
        if self.k_max <= self.k_min:
            raise ValueError(f"need k_min < k_max, got [{self.k_min}, {self.k_max}]")
        s = np.asarray(self.s, dtype=float)
        if len(s) != self.k_max - self.k_min + 1:
            raise ValueError("weight array length does not match the index window")
        if not np.all(np.isfinite(s)) or not np.all(s > 0):
            raise ValueError("weights must be positive and finite")
        if np.any(s[1:] < s[:-1] * (1 - _ORDER_TOL)):
            raise ValueError("weights must be nondecreasing in k")
        if np.any(s[1:] > 2.0 * s[:-1] * (1 + _ORDER_TOL)):
            raise ValueError("weights must satisfy s_{k+1} <= 2 s_k")
        object.__setattr__(self, "s", s)

    def get(self, k: int) -> float:
        if not self.k_min <= k <= self.k_max:
            raise IndexError(f"k={k} outside window [{self.k_min}, {self.k_max}]")
        return float(self.s[k - self.k_min])

    def window(self, k_lo: int, k_hi: int) -> "WeightSeq":
        if k_lo < self.k_min or k_hi > self.k_max:
            raise ValueError("sub-window exceeds the stored window")
        return WeightSeq(k_lo, k_hi, self.s[k_lo - self.k_min : k_hi - self.k_min + 1])

    @property
    def width(self) -> int:
        return self.k_max - self.k_min


def block_weights(space: SpaceSpec, k_min: int, k_max: int) -> WeightSeq:
    """Weights s_k = fundamental(space, 2**k) on the index window."""
    if abs(k_min) > 1000 or abs(k_max) > 1000:
        raise ValueError("index window outside the exact block-measure range")
    return WeightSeq(k_min, k_max, fundamentals(space, np.ldexp(1.0, np.arange(k_min, k_max + 1))))


def _region_bounds(w: WeightSeq, n: int, region: Region) -> tuple[int, int]:
    """First and last admissible k for ratio_sup(w, n, region, ...)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > w.width // 2:
        raise ValueError(f"n={n} too large for window width {w.width}")
    lo, hi = w.k_min, w.k_max - n
    if region == "zero":
        hi = min(hi, -n)
    elif region == "infinity":
        lo = max(lo, 0)
    elif region != "all":
        raise ValueError(f"unknown region {region!r}")
    if lo > hi:
        raise ValueError(f"window too small for n={n} in region {region!r}")
    return lo, hi


def ratio_sup(w: WeightSeq, n: int, region: Region, direction: Direction) -> float:
    """sup over admissible k of s_{k+n}/s_k (up) or s_k/s_{k+n} (down).

    Admissible k keeps both k and k+n inside the window, and inside the
    half-axis for the restricted regions: k+n <= 0 for "zero", k >= 0 for
    "infinity".
    """
    lo, hi = _region_bounds(w, n, region)
    base = w.s[lo - w.k_min : hi - w.k_min + 1]
    shifted = w.s[lo + n - w.k_min : hi + n - w.k_min + 1]
    if direction == "up":
        return float(np.max(shifted / base))
    if direction == "down":
        return float(np.max(base / shifted))
    raise ValueError(f"unknown direction {direction!r}")


# name -> (region, direction, sign), in IndexSet field order; the index
# estimate at window n is sign * log2(ratio_sup)/n.
_EXPONENTS: dict[str, tuple[Region, Direction, float]] = {
    "alpha": ("all", "down", -1.0),
    "beta": ("all", "up", 1.0),
    "alpha0": ("zero", "down", -1.0),
    "beta0": ("zero", "up", 1.0),
    "alpha_inf": ("infinity", "down", -1.0),
    "beta_inf": ("infinity", "up", 1.0),
}


@dataclass(frozen=True)
class IndexSet:
    """The six dilation indices, each in [0, 1].

    alpha/beta are two-sided; the 0-suffix pair is restricted to blocks at or
    below scale one, the inf-suffix pair to blocks at or above it.
    """

    alpha: float
    beta: float
    alpha0: float
    beta0: float
    alpha_inf: float
    beta_inf: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        vals = self.as_dict()
        for name, v in vals.items():
            if not (-_ORDER_TOL <= v <= 1 + _ORDER_TOL):
                raise ValueError(f"{name}={v} outside [0, 1]")
        for lo, hi in (
            ("alpha", "alpha0"),
            ("alpha0", "beta0"),
            ("beta0", "beta"),
            ("alpha", "alpha_inf"),
            ("alpha_inf", "beta_inf"),
            ("beta_inf", "beta"),
        ):
            if vals[lo] > vals[hi] + _ORDER_TOL:
                raise ValueError(f"ordering violated: {lo}={vals[lo]} > {hi}={vals[hi]}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _EXPONENTS}


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def estimate_indices(w: WeightSeq, n_max: int) -> IndexSet:
    """Fekete estimates of all six indices at window size n_max.

    Suprema are taken over the window inset by n_max on both sides so every
    ratio uses weights well inside the stored range.  For power-type weights
    the estimate at n_max is already exact; for general weights it brackets
    the limit from the correct side by submultiplicativity.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_max > w.width // 4:
        raise ValueError(f"n_max={n_max} needs window width >= {4 * n_max}, got {w.width}")
    inner = w.window(w.k_min + n_max, w.k_max - n_max)
    # One pass per n: both ratio arrays once, then each sup over its region's
    # slice, bit for bit ratio_sup(inner, n, region, direction).  Bounds come
    # region by region, then n, so an empty region raises ratio_sup's first error.
    regions = dict.fromkeys(region for region, _, _ in _EXPONENTS.values())
    bounds = {r: [_region_bounds(inner, n, r) for n in range(1, n_max + 1)] for r in regions}
    per_n: dict[str, list[float]] = {name: [] for name in _EXPONENTS}
    s = inner.s
    for n in range(1, n_max + 1):
        ratios = {"up": s[n:] / s[:-n], "down": s[:-n] / s[n:]}
        for name, (region, direction, sign) in _EXPONENTS.items():
            lo, hi = bounds[region][n - 1]
            sup = ratios[direction][lo - inner.k_min : hi - inner.k_min + 1].max()
            per_n[name].append(sign * math.log2(sup) / n)

    estimates = {name: _clamp01(series[-1]) for name, series in per_n.items()}
    half = max(1, n_max // 2)
    est_error = max(
        abs(series[-1] - series[half - 1]) for series in per_n.values()
    )
    regression = {}
    for name, series in per_n.items():
        ns = np.arange(half, n_max + 1, dtype=float)
        rs = np.array(series[half - 1 :]) * ns
        regression[name] = float(np.polyfit(ns, rs, 1)[0])

    meta = {
        "method": "fekete",
        "n_max": n_max,
        "k_range": [w.k_min, w.k_max],
        "per_n": per_n,
        "regression_slope": regression,
        "est_error": est_error,
    }
    return IndexSet(meta=meta, **estimates)


def analytic_indices(space: SpaceSpec) -> Optional[IndexSet]:
    """Closed-form indices for power-type parameter functions, else None.

    Lorentz: branch exponents of psi divided by q.  Orlicz: reciprocals of
    N's branch exponents, with the branches swapping regions because the
    fundamental function inverts N at 1/t.
    """
    if isinstance(space, Lorentz):
        fn = space.psi
        if isinstance(fn, PurePower):
            e0 = e_inf = fn.a / space.q
        elif isinstance(fn, PiecewisePower):
            e0, e_inf = fn.a0 / space.q, fn.a_inf / space.q
        else:
            return None
    elif isinstance(space, Orlicz):
        fn = space.N
        if isinstance(fn, PurePower):
            e0 = e_inf = 1.0 / fn.a
        elif isinstance(fn, PiecewisePower):
            e0, e_inf = 1.0 / fn.a_inf, 1.0 / fn.a0
        else:
            return None
    else:
        raise TypeError(f"unknown space spec {space!r}")
    return IndexSet(
        alpha=min(e0, e_inf),
        beta=max(e0, e_inf),
        alpha0=e0,
        beta0=e0,
        alpha_inf=e_inf,
        beta_inf=e_inf,
        meta={"method": "analytic", "est_error": 0.0},
    )
