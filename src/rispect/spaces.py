"""Lorentz and Orlicz space specifications and their norms.

Norms are evaluated exactly on finite step functions: the Lorentz functional
integrates the decreasing profile against the parameter function, and the
Orlicz (Luxemburg) norm is the root of the modular equation, bracketed by the
convexity of N and found by secant steps in log coordinates.  Each space
has one norm kernel, which norms many distributions at once as array rows:
one evaluation holds rows of several atom counts, each count a 2-D piece.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Union

import numpy as np

from .steps import _NORM_ELEMS, Distribution, Seq, dyadic_sample

__all__ = [
    "NumericalError",
    "SpecJSONError",
    "FnSpec",
    "PurePower",
    "PiecewisePower",
    "PowerLog",
    "TableFn",
    "Lorentz",
    "Orlicz",
    "SpaceSpec",
    "fundamental",
    "fundamentals",
    "space_norm",
    "space_norms",
    "block_norm",
    "block_norms",
    "dyadic_sample_norm",
    "fn_to_json",
    "fn_from_json",
    "space_to_json",
    "space_from_json",
]

INV_REL_TOL = 1e-12
_MAX_BISECT = 200
# A Luxemburg root stops where |log modular| or its bracket in log u is at
# most _ROOT_TOL: a relative error of about 1e-15.  Rows take 1 to 6 secant
# steps on the benchmark spaces.
_ROOT_TOL = 2.0**-50
_MAX_ROOT = 100
# u0 * e**x is a float > 0 and u0 / (u0 * e**x) a float for x <= _LOG_MAX -
# max(log u0, 0) and x >= max(_LOG_LEAST - log u0, -_LOG_MAX): logs of the
# least and largest floats, 2**-30 inside them.
_LOG_MAX = math.log(np.finfo(float).max) - 2.0**-30
_LOG_LEAST = math.log(np.finfo(float).smallest_subnormal) + 2.0**-30
# Largest step count j of the Orlicz inverse's bracket [1, 2**j] or
# [2**-j, 1], read off one evaluation of N at 2**+-j for every j up to this
# cap: 2**+-1100 covers the float range and block measures up to 2**+-1000.
_MAX_BRACKET = 1100
# The scales of a _grouped_norms batch normed as it is; read-only, shared.
_UNSCALED = np.broadcast_to(1.0, 1)


class NumericalError(ArithmeticError):
    """Root finding failed to bracket or converge."""


class SpecJSONError(ValueError):
    """Malformed space/function JSON; message names the offending field."""


class FnSpec(ABC):
    """Increasing function on (0, inf) with value(0+) = 0."""

    kind: str

    @abstractmethod
    def value(self, t):
        """Evaluate at a positive float or numpy array."""

    def exponents(self) -> Optional[tuple[float, float]]:
        """(e0, e_inf) when the function is exactly t**e0 on (0, 1] and
        t**e_inf on [1, inf), else None."""
        return None

    def slopes(self) -> Optional[tuple[float, ...]]:
        """Log-log slopes of the pieces from t -> 0 to t -> inf when every
        piece is a power c * t**s, else None."""
        return self.exponents()


@dataclass(frozen=True)
class PurePower(FnSpec):
    a: float
    kind = "pure_power"

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"pure_power exponent must be positive, got {self.a}")

    def value(self, t):
        return np.power(t, self.a)

    def exponents(self) -> tuple[float, float]:
        return self.a, self.a


@dataclass(frozen=True)
class PiecewisePower(FnSpec):
    """t**a0 on (0, 1], t**a_inf on [1, inf); continuous at t=1."""

    a0: float
    a_inf: float
    kind = "piecewise_power"

    def __post_init__(self) -> None:
        for name, a in (("a0", self.a0), ("a_inf", self.a_inf)):
            if not (a > 0 and math.isfinite(a)):
                raise ValueError(f"piecewise_power {name} must be positive, got {a}")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        low = t <= 1.0  # each power on its own half-axis only, with the same bits
        out = np.power(t, self.a0, where=low, out=np.empty_like(t))
        out = np.power(t, self.a_inf, where=~low, out=out)
        return out if out.ndim else float(out)

    def exponents(self) -> tuple[float, float]:
        return self.a0, self.a_inf


@dataclass(frozen=True)
class PowerLog(FnSpec):
    """t**a * (1 + log(1+t))**c."""

    a: float
    c: float
    kind = "power_log"

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"power_log exponent must be positive, got {self.a}")
        if not math.isfinite(self.c):
            raise ValueError(f"power_log log-exponent must be finite, got {self.c}")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.power(t, self.a) * np.power(1.0 + np.log1p(t), self.c)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TableFn(FnSpec):
    """Tabulated function, log-log linear inside the table, boundary-slope
    extrapolation outside."""

    points: tuple[tuple[float, float], ...]
    kind = "table"

    def __post_init__(self) -> None:
        pts = tuple((float(t), float(v)) for t, v in self.points)
        if len(pts) < 2:
            raise ValueError("table needs at least two points")
        for t, v in pts:
            if not (t > 0 and v > 0):
                raise ValueError(f"table points must be positive, got ({t}, {v})")
        for (t1, v1), (t2, v2) in zip(pts, pts[1:]):
            if not t2 > t1:
                raise ValueError(f"table abscissae must increase, got {t1} then {t2}")
            if not v2 > v1:
                raise ValueError(f"table values must increase, got {v1} then {v2}")
        object.__setattr__(self, "points", pts)
        # Not dataclass fields, which are the JSON fields: the log knots and the
        # slopes of the low extrapolation, each piece and the high one, each as
        # log(v1/v0) / log(t1/t0): a difference of logs is off by their ulps.
        lx = np.log(pts)
        d = np.log([[t1 / t0, v1 / v0] for (t0, v0), (t1, v1) in zip(pts, pts[1:])])
        d = np.where(d < np.inf, d, np.diff(lx, axis=0))  # a ratio above the floats
        s = (d[:, 1] / d[:, 0]).tolist()
        object.__setattr__(self, "_loglog", (*lx.T, (s[0], *s, s[-1])))

    def value(self, t):
        lt = np.log(np.asarray(t, dtype=float))
        lts, lvs, s = self._loglog
        out = np.interp(lt, lts, lvs)
        out = np.where(lt < lts[0], lvs[0] + s[0] * (lt - lts[0]), out)
        out = np.where(lt > lts[-1], lvs[-1] + s[-1] * (lt - lts[-1]), out)
        out = np.exp(out)
        return out if out.ndim else float(out)

    def slopes(self) -> tuple[float, ...]:
        return self._loglog[2]


_ROLE_GRID = 2.0 ** np.arange(-60, 61, dtype=float)


def _grid_values(fn: FnSpec, role: str) -> np.ndarray:
    """fn on the dyadic grid, which must be positive, finite and strictly
    increasing there; an overflow reads as inf and is rejected, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.asarray(fn.value(_ROLE_GRID), dtype=float)
    if not np.all(np.isfinite(v)) or not np.all(v > 0):
        raise ValueError(f"{role} must be positive and finite on the dyadic grid")
    if not np.all(v[1:] > v[:-1]):
        raise ValueError(f"{role} must be strictly increasing")
    return v


def _check_psi_role(fn: FnSpec) -> None:
    """Quasi-concavity, v increasing and v(t)/t nonincreasing: exact where the
    kind states its log-log slopes (each at most 1), and on the dyadic grid."""
    v = _grid_values(fn, "parameter function")
    s, ratio = fn.slopes(), v / _ROLE_GRID
    if (s is not None and max(s) > 1 + 1e-9) or not np.all(ratio[1:] <= ratio[:-1] * (1 + 1e-9)):
        raise ValueError("parameter function fails quasi-concavity (v(t)/t must not increase)")


def _check_orlicz_role(fn: FnSpec) -> None:
    """Convexity plus increase through 0 and to infinity: exact where the kind
    states its log-log slopes (1 <= s_0 <= ... <= s_last, since N' must not
    drop at a knot), and midpoint convexity on the dyadic grid."""
    v = _grid_values(fn, "orlicz function")
    s = fn.slopes()
    if s is not None and not all(a <= b * (1 + 1e-9) for a, b in zip((1.0, *s), s)):
        raise ValueError(f"orlicz function needs log-log slopes 1 <= s_0 <= s_1 <= ..., got {s}")
    mids = 0.5 * (_ROLE_GRID[:-1] + _ROLE_GRID[1:])
    vm = np.asarray(fn.value(mids), dtype=float)
    if not np.all(vm <= 0.5 * (v[:-1] + v[1:]) * (1 + 1e-9)):
        raise ValueError("orlicz function fails midpoint convexity on the dyadic grid")


@dataclass(frozen=True)
class Lorentz:
    """Lorentz space with exponent q and quasi-concave parameter function psi."""

    q: float
    psi: FnSpec

    def __post_init__(self) -> None:
        if not (self.q >= 1 and math.isfinite(self.q)):
            raise ValueError(f"lorentz exponent q must be >= 1, got {self.q}")
        _check_psi_role(self.psi)


@dataclass(frozen=True)
class Orlicz:
    """Orlicz space generated by the convex function N."""

    N: FnSpec

    def __post_init__(self) -> None:
        _check_orlicz_role(self.N)


SpaceSpec = Union[Lorentz, Orlicz]


def _bisect_rows(below, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray, tol: float):
    """Bisect the brackets [lo[i], hi[i]] of the given rows in place until
    hi - lo <= tol * lo (a NaN test keeps a row going) or _MAX_BISECT steps,
    and return the midpoints of all rows.  below(mid, rows) is True where the
    root lies above mid.  Active brackets are kept compact, shrinking when a
    row finishes, so each row takes the steps a one-row call would."""
    lo_r, hi_r = lo[rows], hi[rows]
    for _ in range(_MAX_BISECT):
        going = ~(hi_r - lo_r <= tol * lo_r)
        if not going.all():
            lo[rows], hi[rows] = lo_r, hi_r
            rows, lo_r, hi_r = rows[going], lo_r[going], hi_r[going]
        if not rows.size:
            break
        mid = 0.5 * (lo_r + hi_r)
        up = below(mid, rows)
        lo_r = np.where(up, mid, lo_r)
        hi_r = np.where(up, hi_r, mid)
    lo[rows], hi[rows] = lo_r, hi_r
    return 0.5 * (lo + hi)


def _pow_each(x: np.ndarray, e) -> np.ndarray:
    """Element i is x[i] ** e[i], or x[i] ** e for one exponent e (x for e = 1),
    in Python floats: the array power rounds differently in the last ulp."""
    if np.ndim(e) == 0 and e == 1.0:
        return x
    return np.array(list(map(pow, x.tolist(), np.broadcast_to(e, x.shape).tolist())))


# The kernels below overflow to inf (and inf * 0 to NaN), and the roots
# divide by 0, silently; callers turn a non-finite result into NumericalError.
@np.errstate(over="ignore", divide="ignore")
def _inverse_rows(N: FnSpec, u: np.ndarray) -> np.ndarray:
    """Element i solves N(t) = u[i] for t > 0: closed form where N states its
    exponents, else _bisect_rows to INV_REL_TOL on [1, 2**J] (u[i] above
    N(1)) or [2**-J, 1] (below, or N(1) NaN).  J is the first step of
    doubling or halving t from 1 at which N(t) reaches u[i].  One evaluation
    of N on the lattice 2**+-j (exact down to 2**-1074; 2**-1075 reads 0, as
    halving reads it) gives every J, by a search on the running maximum of
    N(2**j) for u[i], or of -N(2**-j) for -u[i], with NaN read as -inf."""
    us = u.tolist()
    bad = ~(u > 0)
    if bad.any():
        raise ValueError(f"positive u required, got {us[int(np.argmax(bad))]}")
    e = N.exponents()
    if e is not None:
        return _pow_each(u, np.where(u <= 1.0, 1.0 / e[0], 1.0 / e[1]))

    def reach(v: np.ndarray, target: np.ndarray) -> np.ndarray:
        return 1 + np.searchsorted(np.maximum.accumulate(np.where(np.isnan(v), -np.inf, v)), target)

    j = np.arange(1, _MAX_BRACKET + 1)
    with np.errstate(invalid="ignore"):
        n = np.asarray(N.value(np.ldexp(1.0, np.r_[0, j, -j])), dtype=float)
    e0 = u - n[0]
    up = e0 > 0.0
    steps = np.where(up, reach(n[j], u), reach(-n[j + _MAX_BRACKET], -u))
    # u = inf reaches no step: doubling stops where u - N(t) <= 0, NaN at N(t) = inf.
    steps[up & (u == np.inf)] = _MAX_BRACKET + 1
    steps[e0 == 0.0] = 0  # solved at t = 1
    failed = np.flatnonzero(steps > _MAX_BRACKET)
    if failed.size:
        side = "above" if up[failed[0]] else "below"
        raise NumericalError(f"failed to bracket N inverse {side} for u={us[failed[0]]}")
    edge = np.ldexp(1.0, np.where(up, steps, -steps))
    zero = edge == 0.0
    if zero.any():
        raise NumericalError(f"N inverse bracketing underflows to t = 0 for u={us[zero.argmax()]}")
    lo, hi = np.where(up, 1.0, edge), np.where(up, edge, 1.0)
    return _bisect_rows(lambda t, r: N.value(t) < u[r], lo, hi, np.flatnonzero(steps), INV_REL_TOL)


@np.errstate(over="ignore")
def fundamentals(space: SpaceSpec, t) -> np.ndarray:
    """Element i is the norm of the indicator of a set of measure t[i].  An
    Orlicz space inverts N at 1/t, so there t below 2**-1024 is refused, and
    t = inf gives 1/N^-1(0) = inf.  A finite t whose norm leaves the positive
    finite floats is a NumericalError."""
    t = np.array(t, dtype=float, ndmin=1)
    bad = ~(t > 0)
    if bad.any():
        raise ValueError(f"positive t required, got {t.tolist()[int(np.argmax(bad))]}")
    if isinstance(space, Lorentz):
        out = _pow_each(np.asarray(space.psi.value(t), dtype=float), 1.0 / space.q)
    else:
        u = 1.0 / t
        bad = np.isinf(u)
        if bad.any():
            t_bad = t.tolist()[int(np.argmax(bad))]
            raise ValueError(f"t with a finite reciprocal required, got {t_bad}")
        out, live = np.full(t.size, np.inf), u > 0.0
        out[live] = 1.0 / _inverse_rows(space.N, u[live])
    bad = ~((out > 0.0) & (out < np.inf)) & (t < np.inf)
    if bad.any():
        t_bad = t.tolist()[int(np.argmax(bad))]
        raise NumericalError(f"fundamental function leaves the float range at t={t_bad}")
    return out


def fundamental(space: SpaceSpec, t: float) -> float:
    """Norm of the indicator of a set of measure t."""
    return float(fundamentals(space, [t])[0])


@np.errstate(over="ignore", invalid="ignore")
def _lorentz_rows(pieces: list, q: float, psi: FnSpec) -> np.ndarray:
    """Row i of a piece (values, cum): (sum_j v_ij**q * (psi(T_ij) -
    psi(T_i,j-1)))**(1/q), T_i = cum[i].  psi runs once, over all pieces."""
    cum = pieces[0][1] if len(pieces) == 1 else np.concatenate([cum.ravel() for _, cum in pieces])
    psi_flat, sums, at = np.asarray(psi.value(cum), dtype=float).ravel(), [], 0
    for values, cum in pieces:
        psi_vals = psi_flat[at : (at := at + cum.size)].reshape(cum.shape)
        dpsi = psi_vals.copy()  # np.diff(psi_vals, prepend=0.0) per row, at a fraction of its cost
        dpsi[:, 1:] -= psi_vals[:, :-1]
        sums.append((values**q * dpsi).sum(axis=1))
    return _pow_each(sums[0] if len(sums) == 1 else np.concatenate(sums), 1.0 / q)


def _secant_rows(f, u: np.ndarray, a, b, fa, fb) -> np.ndarray:
    """Element i is the root u of f(u, rows), decreasing in x = log u, where
    f(u e**a) = fa > 0 > fb = f(u e**b).  A step evaluates the secant point
    c of the last two points (b and a at the start), or where that leaves
    the open bracket or reads NaN, the bracket's Anderson-Bjorck point, or
    its midpoint; c replaces the end on its side (a NaN counts as the root
    lying below), and if f(c) has the sign of the last value, the other end's
    value is scaled by 1 - f(c)/f(last), or halved where that is not
    positive.  x is measured from the last point, which resolves a root to
    ulps of u wherever it lies.  A row stops at c when |f(c)| <= _ROOT_TOL,
    or at the midpoint once b - a <= _ROOT_TOL; a one-point or infinite
    bracket is solved at its midpoint.  Rows are kept compact, so each takes
    the steps of a one-row call; a row still going after _MAX_ROOT steps
    raises NumericalError."""
    out = u * np.exp(0.5 * (a + b))
    rows = np.flatnonzero((a < b) & np.isfinite(b - a))
    u = u[rows] * np.exp(b[rows])
    a, b, fa, fb = a[rows] - b[rows], np.zeros(rows.size), fa[rows], fb[rows]
    p, fp, fq = a, fa, fb
    for _ in range(_MAX_ROOT):
        if not rows.size:
            return out
        c = fq * p / (fq - fp)
        inside = (a < c) & (c < b)
        if not inside.all():
            ab = a + fa * (b - a) / (fa - fb)
            c = np.where(inside, c, np.where((a < ab) & (ab < b), ab, 0.5 * (a + b)))
        uc = u * np.exp(c)
        fc = f(uc, rows)
        up = fc > 0.0
        r = fc / fq
        kept = np.where(r > 0.0, np.where(r < 1.0, 1.0 - r, 0.5), 1.0)
        a, fa = np.where(up, c, a) - c, np.where(up, fc, kept * fa)
        b, fb = np.where(up, b, c) - c, np.where(up, kept * fb, fc)
        u, p, fp, fq = uc, -c, fq, fc
        hit = np.abs(fc) <= _ROOT_TOL
        go = ~(hit | (b - a <= _ROOT_TOL))
        if not go.all():
            out[rows[~go]] = (u * np.exp(np.where(hit, 0.0, 0.5 * (a + b))))[~go]
            rows, u, a, b, fa, fb, p, fp, fq = (v[go] for v in (rows, u, a, b, fa, fb, p, fp, fq))
    raise NumericalError(f"luxemburg root did not converge in the step cap {_MAX_ROOT}")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _luxemburg_rows(pieces: list, N: FnSpec) -> np.ndarray:
    """Row i of a piece (values, weights): the root u of sum_j weights_ij *
    N(values_ij / u) = 1, which decreases in u.

    N = t**a (equal exponents) solves in closed form.  Otherwise row i solves
    f(x) = log modular(u0 * e**x) = 0 with _secant_rows, u0 = max_j
    values_ij.  N convex with N(0) = 0 has N(l t) >= l N(t) for l >= 1, so
    f falls by at least d over every step d: the root lies between 0 and
    f(0), and within |f(x)| of any x.  So the bracket search goes from 0 to
    f(0) * (1 + 2**-30) (to +-1 where f(0) is not finite; a NaN goes down),
    then doubles x until f changes sign (a NaN keeps a row going), stopping
    where u or u0 / u would leave the floats and then going to u = inf (a
    root above the floats reads inf) or u = 0.  A row that brackets its root
    at u = 0, or sees no sign change at either end, is a NumericalError.
    Pieces share one bracket search and secant loop, and f takes the modular
    on each piece's own rows: each row keeps the bits of a one-piece call.
    All rows are bracketed first, so a bracketing failure beats a step cap."""
    e = N.exponents()
    if e is not None and e[0] == e[1]:
        return _pow_each(np.concatenate([(w * v ** e[0]).sum(axis=1) for v, w in pieces]), 1.0 / e[0])
    pieces = [(np.broadcast_to(values, weights.shape), weights) for values, weights in pieces]
    bounds = np.cumsum([0] + [len(weights) for _, weights in pieces])
    firsts, u0 = bounds.tolist(), np.concatenate([values.max(axis=1) for values, _ in pieces])

    def f(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # rows is sorted and unique: a piece's rows are a slice, all of them at its size.
        cuts, out = np.searchsorted(rows, bounds).tolist(), np.empty(rows.size)
        for (values, weights), first, lo, hi in zip(pieces, firsts, cuts, cuts[1:]):
            if lo < hi:
                own = slice(None) if hi - lo == len(weights) else rows[lo:hi] - first
                terms = np.asarray(N.value(values[own] / u[lo:hi, None]), dtype=float)
                out[lo:hi] = (weights[own] * terms).sum(axis=1)
        return np.log(out)

    f0 = f(u0, np.arange(u0.size))
    up = f0 > 0.0
    s = np.where(up, 1.0, -1.0)
    # y = s * x runs toward the root; y0, y1 are the last two points, f_0, f_1 f there.
    y0, y1, f_0, f_1 = np.zeros(u0.size), np.zeros(u0.size), f0.copy(), f0.copy()
    rows = np.flatnonzero(~(np.abs(f0) <= _ROOT_TOL))
    lu = np.log(u0[rows])
    edge = np.where(up[rows], _LOG_MAX - np.maximum(lu, 0.0), np.minimum(lu - _LOG_LEAST, _LOG_MAX))
    y = np.minimum(np.where(np.isfinite(f0), s * f0 * (1.0 + 2.0**-30), 1.0)[rows], edge)
    # Each step doubles |x| >= 2**-50 or reaches an edge, so the search ends.
    while rows.size:
        s_r = s[rows]
        fy = f(u0[rows] * np.exp(s_r * y), rows)
        y1[rows], f_1[rows] = y, fy
        go = ~(s_r * fy <= 0.0) & (y < np.inf)
        if not go.any():
            break
        rows, edge, y = rows[go], edge[go], y[go]
        y0[rows], f_0[rows] = y, fy[go]
        y = np.where(y >= edge, np.inf, np.minimum(2.0 * y, edge))
    for i in np.flatnonzero(np.isinf(y1)).tolist():  # at u = inf or 0: a bracket only at inf
        if not (up[i] and f_1[i] <= 0.0):
            side = "above" if up[i] else "below"
            why = "underflows to u = 0" if not up[i] and f_1[i] >= 0.0 else f"failed {side}"
            raise NumericalError(f"luxemburg bracketing {why}")
    a, b = np.where(up, y0, -y1), np.where(up, y1, -y0)
    fa, fb = np.where(up, f_0, f_1), np.where(up, f_1, f_0)
    return _secant_rows(f, u0, a, b, fa, fb)


def _norm_rows(space: SpaceSpec, pieces: list) -> np.ndarray:
    """One row-kernel evaluation: the norms of the rows (values[i],
    measures[i]) of the pieces (values, measures) in order; values is one row
    per measure row or one shared row, and a Lorentz space's measures[i] are
    cumulative sums.  Every row is nonzero, so a zero norm is an underflow."""
    if isinstance(space, Lorentz):
        norms = _lorentz_rows(pieces, space.q, space.psi)
    else:
        norms = _luxemburg_rows(pieces, space.N)
    if not norms.all():
        raise NumericalError("the norm of a nonzero distribution underflows to 0")
    return norms


def space_norm(space: SpaceSpec, d: Distribution) -> float:
    return space_norms(space, [d])[0]


def space_norms(space: SpaceSpec, ds: Iterable[Distribution]) -> list[float]:
    """Element i is the norm of the i-th distribution of ds, 0.0 when it is
    zero; a norm that overflows is a NumericalError.  ds may be any iterable,
    such as a generator: only each distribution's atom arrays are kept."""
    rows = [(d.values, d.measures) for d in ds]
    offsets = np.cumsum([0] + [v.size for v, _ in rows])
    values, measures = (np.concatenate([np.zeros(0), *(row[i] for row in rows)]) for i in (0, 1))
    norms = _grouped_norms(space, [(values, measures, offsets, _UNSCALED)])
    if not np.isfinite(norms).all():
        raise NumericalError("the norm of a distribution overflows")
    return norms.tolist()


def _grouped_norms(space: SpaceSpec, batches: list) -> np.ndarray:
    """The norms of every batch's rows, batch after batch.  Batch (values,
    measures, offsets, scales) holds canonical rows as _canonical_rows gives
    them, each normed with its measures times each scale in turn (scales
    _UNSCALED norms it as it is); a row with no atoms reads 0.0.  The rows of
    one atom count are gathered once and cut, in order across batches, into
    chunks (one inside a row shares its value row), and the chunks of all
    atom counts, in order, make row-kernel evaluations of _NORM_ELEMS
    elements.  A Lorentz row's cumulative measures are scaled per norm: 2**k
    times a partial sum rounds as the partial sum of the scaled measures while
    both stay normal floats, as every shifted block row does in |k| <= 1000."""
    lorentz = isinstance(space, Lorentz)
    values, measures, offsets, scales = zip(*batches)
    widths = np.concatenate([o[1:] - o[:-1] for o in offsets])
    copies = np.repeat([s.size for s in scales], [o.size - 1 for o in offsets])
    # Per row: where its atoms start in the flat arrays, and where its norms end in out.
    starts, ends = np.cumsum(widths) - widths, np.cumsum(copies)
    scales = np.concatenate([np.tile(s, o.size - 1) for o, s in zip(offsets, scales)])
    flat = [x[0] if len(x) == 1 else np.concatenate(x) for x in (values, measures)]
    out, order = np.zeros(scales.size), np.argsort(widths, kind="stable")
    # The rows of each atom count but 0, in order of first appearance.
    w = widths[order]
    cuts = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), w.size]
    groups = [order[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo and w[lo]]
    pieces, dests, size = [], [], 0  # the chunks of the next evaluation, where their norms go
    for rows in sorted(groups, key=lambda g: g[0]):
        width, n = int(widths[rows[0]]), copies[rows]
        # Norm i of the group is one of row rows[row_of[i]]'s, and goes to out[dest[i]].
        row_of = np.repeat(np.arange(rows.size), n)
        dest = np.arange(row_of.size) + np.repeat(ends[rows] - np.cumsum(n), n)
        # Each row of the group once, by its start: row j of a view is the width atoms from j on.
        views = (np.ndarray((x.size - width + 1, width), float, x, 0, (8, 8)) for x in flat)
        v, m = (x[starts[rows]] for x in views)
        if lorentz:
            with np.errstate(over="ignore"):  # an inf sum gives a non-finite norm
                m = np.cumsum(m, axis=1)
        budget = max(1, _NORM_ELEMS // width)
        for a in range(0, dest.size, budget):
            at, own = dest[a : a + budget], row_of[a : a + budget]
            lo, hi = int(own[0]), int(own[-1]) + 1
            # One row shares its value row; rows once each, in order, are a slice.
            own = lo if hi - lo == 1 else slice(lo, hi) if hi - lo == own.size else own
            if pieces and size + at.size * width > _NORM_ELEMS:
                out[dests[0] if len(dests) == 1 else np.concatenate(dests)] = _norm_rows(space, pieces)
                pieces, dests, size = [], [], 0
            pieces.append((v[own], scales[at, None] * m[own]))
            dests.append(at)
            size += at.size * width
    if pieces:
        out[dests[0] if len(dests) == 1 else np.concatenate(dests)] = _norm_rows(space, pieces)
    return out


def block_norm(space: SpaceSpec, a: Seq) -> float:
    """Norm of the dyadic step function with coefficient a_k on block k."""
    return space_norm(space, a.distribution())


def _block_request(a: Seq, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The _grouped_norms batch of the rows shift(a, k), k in ks: the shift
    keeps the canonical atoms and scales every block measure by 2**k, exactly.
    ValueError when a shifted block leaves the exact range |k| <= 1000."""
    ks = np.asarray(ks, dtype=int)
    if a.is_zero or not ks.size:
        return np.zeros(0), np.zeros(0), np.zeros(2, dtype=int), np.ones(ks.size)
    if a.k_min + ks.min() < -1000 or a.k_max + ks.max() > 1000:
        raise ValueError("shifted block index outside the exact-measure range")
    d = a.distribution()
    return d.values, d.measures, np.array([0, d.values.size]), np.ldexp(1.0, ks)


def block_norms(space: SpaceSpec, a: Seq, ks) -> np.ndarray:
    """Element i is block_norm(space, shift(a, ks[i])), bit for bit; a norm
    that overflows is a NumericalError, as in block_norm."""
    norms = _grouped_norms(space, [_block_request(a, ks)])
    if not np.isfinite(norms).all():
        raise NumericalError("the norm of a distribution overflows")
    return norms


def dyadic_sample_norm(space: SpaceSpec, d: Distribution) -> float:
    """Norm of the block-sampled majorant step sum_k x*(2**k) chi_{block k}."""
    return space_norm(space, dyadic_sample(d))


# ---------------------------------------------------------------------------
# JSON codec.  Field names are fixed by docs/space-spec.schema.json.  A kind's
# JSON fields are its dataclass fields, in declaration order: that order is
# the order fn_from_json reads them, hence which error is reported first (a0
# before a_inf), and the key order of fn_to_json and of the config echo.

_FN_KINDS = {cls.kind: cls for cls in (PurePower, PiecewisePower, PowerLog, TableFn)}


def fn_to_json(fn: FnSpec) -> dict:
    if not isinstance(fn, tuple(_FN_KINDS.values())):
        raise TypeError(f"unknown function spec {fn!r}")
    out = {"kind": fn.kind}
    for f in fields(fn):
        v = getattr(fn, f.name)
        out[f.name] = [list(pair) for pair in v] if f.name == "points" else v
    return out


def _require(obj: dict, field_name: str, path: str):
    if field_name not in obj:
        raise SpecJSONError(f"missing field {path}.{field_name}")
    return obj[field_name]


def _number(x, path: str) -> float:
    """x as a float; a bool, a non-number or an integer past the float range
    is a SpecJSONError."""
    if not isinstance(x, bool) and isinstance(x, (int, float)):
        try:
            return float(x)
        except OverflowError:
            pass
    raise SpecJSONError(f"field {path} must be a number, got {x!r}")


def _points(raw, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list):
        raise SpecJSONError(f"field {path} must be a list")
    pts = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SpecJSONError(f"field {path}[{i}] must be a [t, value] pair")
        pts.append((_number(pair[0], f"{path}[{i}][0]"), _number(pair[1], f"{path}[{i}][1]")))
    return tuple(pts)


def fn_from_json(obj, path: str = "fn") -> FnSpec:
    if not isinstance(obj, dict):
        raise SpecJSONError(f"field {path} must be an object")
    kind = _require(obj, "kind", path)
    if not (isinstance(kind, str) and kind in _FN_KINDS):
        raise SpecJSONError(f"field {path}.kind must be one of {tuple(_FN_KINDS)}, got {kind!r}")
    cls = _FN_KINDS[kind]
    args = []
    for f in fields(cls):
        raw, sub = _require(obj, f.name, path), f"{path}.{f.name}"
        args.append(_points(raw, sub) if f.name == "points" else _number(raw, sub))
    try:
        return cls(*args)
    except ValueError as exc:
        raise SpecJSONError(f"invalid {path}: {exc}") from exc


def space_to_json(space: SpaceSpec) -> dict:
    if isinstance(space, Lorentz):
        return {"type": "lorentz", "q": space.q, "psi": fn_to_json(space.psi)}
    if isinstance(space, Orlicz):
        return {"type": "orlicz", "N": fn_to_json(space.N)}
    raise TypeError(f"unknown space spec {space!r}")


def space_from_json(obj, path: str = "space") -> SpaceSpec:
    if not isinstance(obj, dict):
        raise SpecJSONError(f"field {path} must be an object")
    typ = _require(obj, "type", path)
    try:
        if typ == "lorentz":
            q = _number(_require(obj, "q", path), f"{path}.q")
            psi = fn_from_json(_require(obj, "psi", path), f"{path}.psi")
            return Lorentz(q, psi)
        if typ == "orlicz":
            N = fn_from_json(_require(obj, "N", path), f"{path}.N")
            return Orlicz(N)
    except ValueError as exc:
        if isinstance(exc, SpecJSONError):
            raise
        raise SpecJSONError(f"invalid {path}: {exc}") from exc
    raise SpecJSONError(f"field {path}.type must be 'lorentz' or 'orlicz', got {typ!r}")
