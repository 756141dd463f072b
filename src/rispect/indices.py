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

from .spaces import Lorentz, Orlicz, SpaceSpec, fundamentals

__all__ = [
    "WeightSeq",
    "IndexSet",
    "block_weights",
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


# name -> (region, direction, sign), in IndexSet field order; the index
# estimate at window n is sign * log2(sup)/n, the sup over the region of
# s_{k+n}/s_k (up) or s_k/s_{k+n} (down).
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
    # Element i of a ratio array is k = inner.k_min + i.  The regions k + n <= 0
    # and k >= 0 shrink as n grows: each is empty past its last_n.
    for region, last_n in (("zero", -inner.k_min), ("infinity", inner.k_max - max(inner.k_min, 0))):
        if last_n < n_max:
            raise ValueError(f"window too small for n={max(last_n, 0) + 1} in region {region!r}")
    # Row n - 1 of ahead is s moved left by n, NaN past its end (fmax skips NaN),
    # column i at k = inner.k_min + i; "zero" keeps k + n <= 0, "infinity" k >= 0.
    s, z = inner.s, -inner.k_min
    ahead = np.lib.stride_tricks.sliding_window_view(np.r_[s, [np.nan] * n_max], s.size)[1:]
    zero = np.arange(z + 1) <= z - np.arange(1, n_max + 1)[:, None]
    ratios, sups = np.empty(ahead.shape), {}
    for direction, (a, b) in (("up", (ahead, s)), ("down", (s, ahead))):
        np.divide(a, b, out=ratios)  # one array for both directions bounds the memory
        sups["all", direction] = np.fmax.reduce(ratios, axis=1)
        sups["zero", direction] = np.fmax.reduce(ratios[:, : z + 1], 1, where=zero, initial=-np.inf)
        sups["infinity", direction] = np.fmax.reduce(ratios[:, z:], axis=1)
    per_n = {
        name: [sign * math.log2(x) / n for n, x in enumerate(sups[region, direction].tolist(), 1)]
        for name, (region, direction, sign) in _EXPONENTS.items()
    }

    estimates = {name: _clamp01(series[-1]) for name, series in per_n.items()}
    half = max(1, n_max // 2)
    est_error = max(
        abs(series[-1] - series[half - 1]) for series in per_n.values()
    )
    # A line needs two points: at n_max = 1 every slope is None.
    regression = dict.fromkeys(per_n)
    if n_max > 1:
        for name, series in per_n.items():
            ns = np.arange(half, n_max + 1, dtype=float)
            rs = np.array(series[half - 1 :]) * ns
            regression[name] = float(np.polyfit(ns, rs, 1)[0])

    # In the order the CLI prints it.
    meta = {
        "method": "fekete",
        "n_max": n_max,
        "k_range": [w.k_min, w.k_max],
        "est_error": est_error,
        "regression_slope": regression,
        "per_n": per_n,
    }
    return IndexSet(meta=meta, **estimates)


def analytic_indices(space: SpaceSpec) -> Optional[IndexSet]:
    """Closed-form indices where the function states its exponents, else None.

    Lorentz: the exponents of psi divided by q.  Orlicz: reciprocals of N's
    exponents, with the branches swapping regions because the fundamental
    function inverts N at 1/t.
    """
    if isinstance(space, Lorentz):
        e = space.psi.exponents()
        if e is None:
            return None
        e0, e_inf = e[0] / space.q, e[1] / space.q
    elif isinstance(space, Orlicz):
        e = space.N.exponents()
        if e is None:
            return None
        e0, e_inf = 1.0 / e[1], 1.0 / e[0]
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
