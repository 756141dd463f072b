"""Lorentz and Orlicz space specifications and their norms.

Norms are evaluated exactly on finite step functions: the Lorentz functional
integrates the decreasing profile against the parameter function, and the
Orlicz (Luxemburg) norm is the root of the modular equation, bracketed by the
convexity of N and found by secant steps in log coordinates.  Each space
has one norm kernel, which norms many distributions at once as the rows of an
array.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Union

import numpy as np

from .steps import Distribution, Seq, dyadic_sample

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
# Largest step count j of a bracket x0 * 2**+-j: block measures reach
# 2**+-1000, which puts a root hundreds of doublings from its first guess.
# The Orlicz inverse reads its steps off one evaluation of N at 2**+-j for
# every j up to this cap; a Luxemburg fallback bracket steps up to it.
_MAX_BRACKET = 1100
_TINY = np.finfo(float).tiny


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
        # Not dataclass fields, which are the JSON fields: the log knots and
        # the slopes of the low extrapolation, each piece and the high one.
        lts, lvs = np.log([t for t, _ in pts]), np.log([v for _, v in pts])
        s = (np.diff(lvs) / np.diff(lts)).tolist()
        object.__setattr__(self, "_loglog", (lts, lvs, (s[0], *s, s[-1])))

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


@np.errstate(over="ignore")
def _bracket_rows(excess, x0: np.ndarray, fail):
    """Bracket each row's root, where excess(x, rows) turns from positive
    (root above x) to negative: double x while the excess is positive and
    halve it while negative, one step per call (a NaN keeps a row going,
    downward at x0), overflowing silently.  Returns (lo, hi, todo): the
    brackets and the rows to bisect; a row whose excess at x0 is 0 is
    solved, lo = hi = x0.  NumericalError(fail(i, side)) names the first row
    still going after _MAX_BRACKET steps (side "above" or "below"), else the
    first halved to 0 (side "zero")."""
    every = np.arange(x0.size)
    e0 = excess(x0, every)
    up = e0 > 0.0
    lo, hi = x0.copy(), x0.copy()
    rows = todo = every[e0 != 0.0]
    for _ in range(_MAX_BRACKET):
        if not rows.size:
            break
        r_up, lo_r, hi_r = up[rows], lo[rows], hi[rows]
        lo_r, hi_r = np.where(r_up, hi_r, 0.5 * lo_r), np.where(r_up, 2.0 * hi_r, lo_r)
        lo[rows], hi[rows] = lo_r, hi_r
        e = excess(np.where(r_up, hi_r, lo_r), rows)
        rows = rows[np.where(r_up, ~(e <= 0.0), ~(e >= 0.0))]
    if rows.size:
        raise NumericalError(fail(rows[0], "above" if up[rows[0]] else "below"))
    zero = todo[lo[todo] == 0.0]
    if zero.size:
        raise NumericalError(fail(zero[0], "zero"))
    return lo, hi, todo


# The kernels below overflow to inf, and the roots divide by 0, silently;
# callers turn a non-finite result into NumericalError.
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


@np.errstate(over="ignore")
def _lorentz_rows(values: np.ndarray, cum: np.ndarray, q: float, psi: FnSpec) -> np.ndarray:
    """Row i: (sum_j v_ij**q * (psi(T_ij) - psi(T_i,j-1)))**(1/q), T_i = cum[i]
    the cumulative sums of row i's measures; values is one row per row of
    cum, or one row shared by all."""
    psi_vals = np.asarray(psi.value(cum), dtype=float)
    dpsi = psi_vals.copy()  # np.diff(psi_vals, prepend=0.0) per row, at a fraction of its cost
    dpsi[:, 1:] -= psi_vals[:, :-1]
    return _pow_each((values**q * dpsi).sum(axis=1), 1.0 / q)


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
def _luxemburg_rows(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> np.ndarray:
    """Row i: the root u of sum_j weights_ij * N(values_ij / u) = 1, which
    decreases in u; values is one row per weight row, or one row shared by all.

    N = t**a (equal exponents) solves in closed form.  Otherwise row i solves
    f(x) = log modular(u0 * e**x) = 0 with _secant_rows, u0 = max_j
    values_ij.  N convex with N(0) = 0 has N(l t) >= l N(t) for l >= 1, so
    f falls by at least d over every step d: the root lies between 0 and
    f(0), and within |f(x)| of any x.  One evaluation at the far end
    f(0) * (1 + 2**-30) confirms the bracket.  A row whose modular at u0 or
    at the far end is not finite and positive, whose far end leaves the
    normal floats, or whose far value does not change sign, is bracketed
    from u0 by doubling or halving u (_bracket_rows), which names failures.
    """
    e = N.exponents()
    if e is not None and e[0] == e[1]:
        return _pow_each((weights * values ** e[0]).sum(axis=1), 1.0 / e[0])
    values = np.broadcast_to(values, weights.shape)
    u0 = values.max(axis=1)

    def f(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # rows is sorted and unique, so at full size it is every row: no gather.
        v, w = (values, weights) if rows.size == len(weights) else (values[rows], weights[rows])
        terms = np.asarray(N.value(v / u[:, None]), dtype=float)
        return np.log((w * terms).sum(axis=1))

    def fail(i: int, side: str) -> str:
        zero = "luxemburg bracketing underflows to u = 0"
        return zero if side == "zero" else f"luxemburg bracketing failed {side}"

    every = np.arange(u0.size)
    f0 = f(u0, every)
    done = np.abs(f0) <= _ROOT_TOL  # solved at u0: the bracket [0, 0]
    far = f0 * (1.0 + 2.0**-30)
    u_far = u0 * np.exp(far)
    rows = every[np.isfinite(f0) & ~done & (u_far >= _TINY) & (u_far < np.inf)]
    f_far = np.full(u0.size, np.nan)
    f_far[rows] = f(u_far[rows], rows)
    up = f0 > 0.0
    held = np.isfinite(f_far) & np.where(up, f_far < 0.0, f_far > 0.0)
    a, b = np.where(held & ~up, far, 0.0), np.where(held & up, far, 0.0)
    fa, fb = np.where(held & ~up, f_far, f0), np.where(held & up, f_far, f0)
    slow = every[~(held | done)]
    if slow.size:
        # log modular has the sign of modular - 1, so it brackets the same way.
        lo, hi, _ = _bracket_rows(lambda u, r: f(u, slow[r]), u0[slow], fail)
        a[slow], b[slow] = np.log(lo / u0[slow]), np.log(hi / u0[slow])
        fa[slow], fb[slow] = (f(u0[slow] * np.exp(x[slow]), slow) for x in (a, b))
    return _secant_rows(f, u0, a, b, fa, fb)


def _norm_rows(space: SpaceSpec, values: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """Row i is the norm of the distribution (values[i], measures[i]), where
    for a Lorentz space measures[i] holds the cumulative sums of its measures;
    values is one row per measure row, or one row shared by all.  Every row
    is a nonzero distribution, so a zero norm is an underflow: NumericalError."""
    if isinstance(space, Lorentz):
        norms = _lorentz_rows(values, measures, space.q, space.psi)
    else:
        norms = _luxemburg_rows(values, measures, space.N)
    if not norms.all():
        raise NumericalError("the norm of a nonzero distribution underflows to 0")
    return norms


def space_norm(space: SpaceSpec, d: Distribution) -> float:
    return space_norms(space, [d])[0]


def space_norms(space: SpaceSpec, ds: Iterable[Distribution]) -> list[float]:
    """Element i is the norm of the i-th distribution of ds, 0.0 when it is
    zero; a norm that overflows is a NumericalError.  ds may be any iterable,
    such as a generator: only each distribution's atom arrays are kept."""
    norms = _grouped_norms(space, [(d.values, d.measures, None) for d in ds])
    if not np.isfinite(norms).all():
        raise NumericalError("the norm of a distribution overflows")
    return norms.tolist()


# Elements (rows x atoms) per row-kernel evaluation: of 2**12 to 2**15, 2**13
# traded time against memory best on the probe benchmarks.
_NORM_ELEMS = 2**13


def _grouped_norms(space: SpaceSpec, requests: list) -> np.ndarray:
    """The norms of every request's rows, request after request.  Request
    (values, measures, scales) is a distribution's canonical atoms, normed
    with its measures times each scale, or once for scales None; no atoms
    read 0.0.  The rows of all requests of one atom count are normed in
    order, _NORM_ELEMS elements per evaluation; only the rows of the
    evaluation at hand are built, C-contiguous.

    A Lorentz request's cumulative measures are summed once, on its base
    row, and scaled per row: 2**k times a partial sum rounds as the partial
    sum of the scaled measures while both stay normal floats, which every
    shifted block row does inside |k| <= 1000 (scales None multiply by 1)."""
    lorentz, firsts, groups = isinstance(space, Lorentz), [0], {}
    for r, (values, _, scales) in enumerate(requests):
        firsts.append(firsts[-1] + (1 if scales is None else scales.size))
        if values.size and firsts[-1] > firsts[-2]:
            groups.setdefault(values.size, []).append(r)
    out = np.zeros(firsts[-1])
    for width, idx in groups.items():
        values = np.array([requests[r][0] for r in idx])
        measures = np.array([requests[r][1] for r in idx])
        if lorentz:
            measures = np.cumsum(measures, axis=1)
        scales = [requests[r][2] for r in idx]
        scales = np.concatenate([np.ones(1) if s is None else s for s in scales])
        dest = np.concatenate([np.arange(firsts[r], firsts[r + 1]) for r in idx])
        owner = np.repeat(np.arange(len(idx)), [firsts[r + 1] - firsts[r] for r in idx])
        budget = max(1, _NORM_ELEMS // width)
        for a in range(0, dest.size, budget):
            rows = owner[a : a + budget]
            if rows[0] == rows[-1]:  # one request: its value row, shared
                rows = rows[0]
            out[dest[a : a + budget]] = _norm_rows(
                space, values[rows], scales[a : a + budget, None] * measures[rows]
            )
    return out


def block_norm(space: SpaceSpec, a: Seq) -> float:
    """Norm of the dyadic step function with coefficient a_k on block k."""
    return space_norm(space, a.distribution())


def _block_request(a: Seq, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The _grouped_norms request of the rows shift(a, k), k in ks: the shift
    keeps the canonical atoms and scales every block measure by 2**k, exactly.
    ValueError when a shifted block leaves the exact range |k| <= 1000."""
    ks = np.asarray(ks, dtype=int)
    if a.is_zero or not ks.size:
        return np.zeros(0), np.zeros(0), np.ones(ks.size)
    if a.k_min + ks.min() < -1000 or a.k_max + ks.max() > 1000:
        raise ValueError("shifted block index outside the exact-measure range")
    d = a.distribution()
    return d.values, d.measures, np.ldexp(1.0, ks)


def block_norms(space: SpaceSpec, a: Seq, ks) -> np.ndarray:
    """Element i is block_norm(space, shift(a, ks[i])), bit for bit."""
    return _grouped_norms(space, [_block_request(a, ks)])


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
