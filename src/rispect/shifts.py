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

import numpy as np

from .spaces import NumericalError, fundamentals
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

_MAX_BLOCK = 1000  # the exact-measure range of a Seq


class SeriesDivergenceError(ArithmeticError):
    """Raised where a side of the inverse series fails to decay within blocks -1000 .. 1000."""


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


def _side(coeff: float, step, sign: int, reach: int, tol: float, space):
    """One side of the inverse series: (kept coefficients by block, tail bound).
    Coefficient n >= 1, on block sign * n, is coeff, then step(n, previous); a
    is 0 past block sign * reach.  Windows of blocks double from max(1, reach)
    + 64, and after one that leaves the floats each block is weighed alone."""
    kept: dict[int, float] = {}
    weights: list[float] = []
    tail, alone = None, False
    for n in range(1, _MAX_BLOCK + 1):
        while n > len(weights):
            stop = n + 1 if alone else min(_MAX_BLOCK, max(2 * len(weights), reach + 64, 65)) + 1
            try:  # weights past the walk may leave the floats
                weights += fundamentals(space, np.ldexp(1.0, sign * np.arange(n, stop))).tolist()
            except NumericalError:
                if stop == n + 1:
                    raise
                alone = True
        term = abs(coeff) * weights[n - 1]
        if tail is not None:
            if not math.isfinite(term):
                raise SeriesDivergenceError("discarded tail overflows")
            if term > tol:  # so above the term before it: each one past the cut was <= tol
                raise SeriesDivergenceError("discarded tail fails to decay")
            tail += term
            if term < tol * 1e-9:
                return kept, tail
        elif n > max(1, reach) and term < tol:
            tail = term
        elif not math.isfinite(term) or term > 1e250:
            raise SeriesDivergenceError(
                f"series term at offset {n} overflows; no convergent right inverse"
            )
        else:
            kept[sign * n] = coeff
        coeff = step(n, coeff)
    if tail is None:
        raise SeriesDivergenceError(
            f"series reaches block index {sign * (_MAX_BLOCK + 1)} without decaying below tol"
        )
    raise SeriesDivergenceError(f"discarded tail above tol*1e-9 at block index {sign * _MAX_BLOCK}")


def solve_shift_minus(a: Seq, lam: float, tol: float, space) -> TruncatedSeq:
    """Right inverse of shift_minus: returns y with shift_minus(y, lam) ~ a.

    y[n]  = -sum_{i=1..n} lam**(i-n-1) a[i]          for n >= 1,
    y[-n] =  sum_{i=1..n} lam**(n-i)  a[-i+1]        for n >= 1,
    y[0]  = 0,

    by the recurrences y[1] = -a[1] / lam, y[n+1] = (y[n] - a[n+1]) / lam,
    y[-1] = a[0] and y[-n-1] = lam * y[-n] + a[-n].  Each side is cut at its
    first block k past max(1, the support of a on that side) whose term
    |y[k]| * ||e_k|| (block lattice of `space`) is below tol.  tail_bound, the
    terms from each cut through the first later one below tol * 1e-9, controls
    the defect of shift_minus on the truncation at its two boundary blocks.
    Only blocks -1000 .. 1000 are weighed: SeriesDivergenceError means a side
    with no cut there, a tail still at least tol * 1e-9 at block +-1000, or a
    term not finite, above 1e250 before the cut or above tol past it.
    """
    if not lam > 0:
        raise ValueError(f"positive lam required, got {lam}")
    if not tol > 0:
        raise ValueError(f"positive tol required, got {tol}")
    if a.is_zero:
        return TruncatedSeq(Seq(), 0.0)
    pos, tail_pos = _side(-a[1] / lam, lambda n, c: (c - a[n + 1]) / lam, 1, a.k_max, tol, space)
    neg, tail_neg = _side(a[0], lambda n, d: lam * d + a[-n], -1, -a.k_min, tol, space)
    return TruncatedSeq(Seq({**pos, **neg}), tail_pos + tail_neg)
