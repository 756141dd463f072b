"""Shift operators on block sequences, window constructions and the right inverse.

The central object is the operator  a |-> shift(a, 1) - lam * a  acting on
finitely supported block sequences `Seq` (defined in `steps`).  Windowed
geometric profiles make its operator norm collapse (telescoping), and a
two-sided series gives an explicit right inverse wherever the weighted tails
converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spaces import fundamental
from .steps import Seq

__all__ = [
    "TruncatedSeq",
    "SeriesDivergenceError",
    "shift",
    "shift_minus",
    "geometric_window",
    "squared_window",
    "solve_shift_minus",
]

# Hard cap on one-sided series extension before declaring divergence.
SERIES_MAX_INDEX = 10000
_TERM_OVERFLOW = 1e250


class SeriesDivergenceError(ArithmeticError):
    """Raised when a weighted series fails to decay within the index cap."""


@dataclass(frozen=True)
class TruncatedSeq:
    """A series truncation together with a bound on what was discarded."""

    seq: Seq
    tail_bound: float


def shift(a: Seq, n: int) -> Seq:
    """Move every coefficient up by n: result[k] = a[k - n]."""
    return Seq({k + n: v for k, v in a.coeffs.items()})


def shift_minus(a: Seq, lam: float) -> Seq:
    """Apply shift(., 1) - lam * id:  result[k] = a[k-1] - lam * a[k]."""
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    out: dict[int, float] = {}
    for k, v in a.coeffs.items():
        out[k + 1] = out.get(k + 1, 0.0) + v
        out[k] = out.get(k, 0.0) - lam * v
    return Seq(out)


def geometric_window(lam: float, k: int, n: int) -> Seq:
    """Window sum_{j=0..n} lam**(-j) e_{k+j}.

    Under shift_minus(., lam) the interior telescopes away, leaving
    -lam * e_k + lam**(-n) * e_{k+n+1}.
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    if n < 0:
        raise ValueError(f"nonnegative n required, got {n}")
    return Seq({k + j: lam ** (-j) for j in range(n + 1)})


def squared_window(lam: float, k: int, n: int) -> Seq:
    """Tent-shaped window: the geometric window composed with itself.

    Coefficient at k+j is (j+1) * lam**(-j) for 0 <= j <= n and
    (2n+1-j) * lam**(-j) for n < j <= 2n.  Two applications of
    shift_minus(., lam) reduce it to three spikes.
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    if n < 0:
        raise ValueError(f"nonnegative n required, got {n}")
    out: dict[int, float] = {}
    for j in range(2 * n + 1):
        mult = j + 1 if j <= n else 2 * n + 1 - j
        out[k + j] = mult * lam ** (-j)
    return Seq(out)


def _extend_side(
    start_coeff: float,
    step: "callable",
    weight_at: "callable",
    min_steps: int,
    tol: float,
) -> tuple[list[float], float]:
    """Walk one side of the inverse series until weighted terms fall below tol.

    Returns the kept coefficients (index 1 upward on that side) and a bound on
    the weighted mass of everything discarded.  The recurrences are exact
    beyond the input support, so decay, once established, is geometric.
    """
    kept: list[float] = []
    coeff = start_coeff
    n = 1
    while True:
        term = abs(coeff) * weight_at(n)
        if not math.isfinite(term) or term > _TERM_OVERFLOW:
            raise SeriesDivergenceError(
                f"series term at offset {n} overflows; no convergent right inverse"
            )
        if n > min_steps and term < tol:
            break
        kept.append(coeff)
        if n >= SERIES_MAX_INDEX:
            raise SeriesDivergenceError(
                f"series terms still above tol={tol} at offset {SERIES_MAX_INDEX}"
            )
        coeff = step(n, coeff)
        n += 1

    # Sum the discarded weighted terms explicitly until they are negligible
    # next to tol, then close with a geometric estimate from the last ratio.
    tail = 0.0
    prev_term = abs(coeff) * weight_at(n)
    tail += prev_term
    extra = 0
    while extra < 400 and n + 1 <= SERIES_MAX_INDEX:
        coeff = step(n, coeff)
        n += 1
        term = abs(coeff) * weight_at(n)
        if not math.isfinite(term):
            raise SeriesDivergenceError("discarded tail overflows")
        if term >= prev_term and term > tol:
            raise SeriesDivergenceError("discarded tail fails to decay")
        tail += term
        if term < tol * 1e-9:
            break
        prev_term = term
        extra += 1
    return kept, tail


def solve_shift_minus(a: Seq, lam: float, tol: float, space) -> TruncatedSeq:
    """Right inverse of shift_minus: returns y with shift_minus(y, lam) ~ a.

    y[n]  = -sum_{i=1..n} lam**(i-n-1) a[i]          for n >= 1,
    y[-n] =  sum_{i=1..n} lam**(n-i)  a[-i+1]        for n >= 1,
    y[0]  = 0.

    Both sides are truncated where the term |y[n]| * ||e_n|| (norm taken in
    the block lattice of `space`) stays below tol; applying shift_minus to the
    truncation reproduces a exactly except at the two boundary indices, and the
    boundary defect is controlled by tail_bound.
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    if not tol > 0:
        raise ValueError(f"positive tol required, got {tol}")
    if a.is_zero:
        return TruncatedSeq(Seq(), 0.0)

    def weight(k: int) -> float:
        # Block measures stay exact floats only while |k| is moderate; a series
        # still above tol out here has no usable inverse anyway.
        if abs(k) > 1000:
            raise SeriesDivergenceError(
                f"series reaches block index {k} without decaying below tol"
            )
        return fundamental(space, math.ldexp(1.0, k))

    lo, hi = a.k_min, a.k_max
    # Positive side: c_1 = -a[1]/lam, then c_{n+1} = (c_n - a[n+1]) / lam.
    pos_first = -a[1] / lam
    pos, tail_pos = _extend_side(
        pos_first,
        step=lambda n, c: (c - a[n + 1]) / lam,
        weight_at=lambda n: weight(n),
        min_steps=max(1, hi),
        tol=tol,
    )
    # Negative side: d_1 = a[0], then d_{n+1} = lam * d_n + a[-n].
    neg_first = a[0]
    neg, tail_neg = _extend_side(
        neg_first,
        step=lambda n, d: lam * d + a[-n],
        weight_at=lambda n: weight(-n),
        min_steps=max(1, -lo),
        tol=tol,
    )

    out: dict[int, float] = {}
    for j, c in enumerate(pos, start=1):
        out[j] = c
    for j, d in enumerate(neg, start=1):
        out[-j] = d
    return TruncatedSeq(Seq(out), tail_pos + tail_neg)
