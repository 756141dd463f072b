"""Lorentz and Orlicz space specifications and their norms.

Norms are evaluated exactly on finite step functions: the Lorentz functional
integrates the decreasing profile against the parameter function, and the
Orlicz (Luxemburg) norm is the root of the modular equation, found by
bracketing + bisection.  Each space has one norm kernel, which norms many
distributions at once as the rows of an array.
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

LUX_REL_TOL = 1e-12
INV_REL_TOL = 1e-12
_MAX_BISECT = 200
# Doublings or halvings allowed when bracketing a root: block measures reach
# 2**+-1000, which puts a root hundreds of doublings from its first guess.
_MAX_BRACKET = 1100


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
        out = np.where(t <= 1.0, np.power(t, self.a0), np.power(t, self.a_inf))
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
    """Element i is x[i] ** e[i], or x[i] ** e for one exponent e, in Python
    floats: the array power rounds differently in the last ulp."""
    return np.array(list(map(pow, x.tolist(), np.broadcast_to(e, x.shape).tolist())))


@np.errstate(over="ignore")
def _bracket_rows(excess, x0: np.ndarray, fail):
    """Bracket each row's root, where excess(x, rows) turns from positive
    (root above x) to negative: from x0, double x while the excess is
    positive and halve it while negative (a NaN keeps a row going, downward
    at x0), overflowing silently.  Returns (lo, hi, todo, e0): the brackets,
    the rows to bisect and the excess at x0; a row with e0 == 0 is solved,
    lo = hi = x0.  NumericalError(fail(i, side)) names the first row still
    going after _MAX_BRACKET steps (side "above" or "below"), else the first
    halved to 0 (side "zero")."""
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
    return lo, hi, todo, e0


# The kernels below overflow to inf, and the roots divide by 0, silently;
# callers turn a non-finite result into NumericalError.
@np.errstate(over="ignore", divide="ignore")
def _inverse_rows(N: FnSpec, u: np.ndarray) -> np.ndarray:
    """Element i solves N(t) = u[i] for t > 0: closed form where N states its
    exponents, else _bracket_rows on u - N(t) from t = 1, widened to the
    bracket [1, 2**j] or [2**-j, 1], and _bisect_rows to INV_REL_TOL."""
    us = u.tolist()
    bad = ~(u > 0)
    if bad.any():
        raise ValueError(f"positive u required, got {us[int(np.argmax(bad))]}")
    e = N.exponents()
    if e is not None:
        return _pow_each(u, np.where(u <= 1.0, 1.0 / e[0], 1.0 / e[1]))

    def value(t: np.ndarray) -> np.ndarray:
        return np.asarray(N.value(t), dtype=float)

    def fail(i: int, side: str) -> str:
        if side == "zero":
            return f"N inverse bracketing underflows to t = 0 for u={us[i]}"
        return f"failed to bracket N inverse {side} for u={us[i]}"

    lo, hi, todo, _ = _bracket_rows(lambda t, r: u[r] - value(t), np.ones(u.size), fail)
    lo, hi = np.minimum(lo, 1.0), np.maximum(hi, 1.0)
    return _bisect_rows(lambda t, r: value(t) < u[r], lo, hi, todo, INV_REL_TOL)


def fundamentals(space: SpaceSpec, t) -> np.ndarray:
    """Element i is the norm of the indicator of a set of measure t[i]."""
    t = np.array(t, dtype=float, ndmin=1)
    bad = ~(t > 0)
    if bad.any():
        raise ValueError(f"positive t required, got {t.tolist()[int(np.argmax(bad))]}")
    if isinstance(space, Lorentz):
        return _pow_each(np.asarray(space.psi.value(t), dtype=float), 1.0 / space.q)
    return 1.0 / _inverse_rows(space.N, 1.0 / t)


def fundamental(space: SpaceSpec, t: float) -> float:
    """Norm of the indicator of a set of measure t."""
    return float(fundamentals(space, [t])[0])


@np.errstate(over="ignore")
def _lorentz_rows(values: np.ndarray, measures: np.ndarray, q: float, psi: FnSpec) -> np.ndarray:
    """Row i: (sum_j v_ij**q * (psi(T_ij) - psi(T_i,j-1)))**(1/q), T_i the
    cumulative sums of measures[i]; values is one row per measure row, or
    one row shared by all."""
    psi_vals = np.asarray(psi.value(np.cumsum(measures, axis=1)), dtype=float)
    dpsi = psi_vals.copy()  # np.diff(psi_vals, prepend=0.0) per row, at a fraction of its cost
    dpsi[:, 1:] -= psi_vals[:, :-1]
    return _pow_each((values**q * dpsi).sum(axis=1), 1.0 / q)


@np.errstate(over="ignore", divide="ignore")
def _luxemburg_rows(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> np.ndarray:
    """Row i: the root u of sum_j weights_ij * N(values_ij / u) = 1, which
    decreases in u; values is one row per weight row, or one row shared by all.

    N = t**a (equal exponents) solves in closed form.  Otherwise each row
    brackets modular(u) - 1 from u0 = max_j values_ij with _bracket_rows and
    bisects with _bisect_rows to LUX_REL_TOL; at u = 0 the modular is inf.
    """
    e = N.exponents()
    if e is not None and e[0] == e[1]:
        return _pow_each((weights * values ** e[0]).sum(axis=1), 1.0 / e[0])
    values = np.broadcast_to(values, weights.shape)

    def modular(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # rows is sorted and unique, so at full size it is every row: no gather.
        v, w = (values, weights) if rows.size == len(weights) else (values[rows], weights[rows])
        terms = np.asarray(N.value(v / u[:, None]), dtype=float)
        return (w * terms).sum(axis=1)

    def fail(i: int, side: str) -> str:
        zero = "luxemburg bracketing underflows to u = 0"
        return zero if side == "zero" else f"luxemburg bracketing failed {side}"

    u0 = values.max(axis=1)
    lo, hi, todo, e0 = _bracket_rows(lambda u, r: modular(u, r) - 1.0, u0, fail)
    mids = _bisect_rows(lambda u, r: modular(u, r) >= 1.0, lo, hi, todo, LUX_REL_TOL)
    return np.where(e0 == 0.0, u0, mids)


def _norm_rows(space: SpaceSpec, values: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """Row i is the norm of the distribution (values[i], measures[i]); values
    is one row per measure row, or one row shared by all.  Every row is a
    nonzero distribution, so a zero norm is an underflow: NumericalError."""
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
    zero.  ds may be any iterable, such as a generator: only each
    distribution's value and measure arrays are kept."""
    return _grouped_norms(space, ((d.values, d.measures) for d in ds))


def _grouped_norms(space: SpaceSpec, rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """Element i is the norm of the i-th (values, measures) pair of canonical
    atoms, 0.0 when it has none.  Pairs are grouped by atom count and each
    group is normed as the rows of one array evaluation."""
    out: list[float] = []
    groups: dict[int, tuple[list[int], list[np.ndarray], list[np.ndarray]]] = {}
    for i, (values, measures) in enumerate(rows):
        out.append(0.0)
        if values.size:
            idx, vs, ms = groups.setdefault(values.size, ([], [], []))
            idx.append(i)
            vs.append(values)
            ms.append(measures)
    for idx, vs, ms in groups.values():
        for i, v in zip(idx, _norm_rows(space, np.array(vs), np.array(ms)).tolist()):
            out[i] = v
    return out


def block_norm(space: SpaceSpec, a: Seq) -> float:
    """Norm of the dyadic step function with coefficient a_k on block k."""
    return space_norm(space, a.distribution())


def block_norms(space: SpaceSpec, a: Seq, ks) -> np.ndarray:
    """Element i is block_norm(space, shift(a, ks[i])), bit for bit.

    Shifting a by k leaves its coefficient values, hence their decreasing
    order and the merged atoms, independent of k; it only multiplies every
    block measure by 2**k, which is exact in floating point.  So the
    distribution is canonicalised once and its measures scaled per row, and
    all rows are normed in one array evaluation.  Raises ValueError when a
    shifted block leaves the exact-measure range |k| <= 1000.
    """
    ks = np.asarray(ks, dtype=int)
    if a.is_zero or not ks.size:
        return np.zeros(ks.size)
    if a.k_min + ks.min() < -1000 or a.k_max + ks.max() > 1000:
        raise ValueError("shifted block index outside the exact-measure range")
    d = a.distribution()
    return _norm_rows(space, d.values, np.ldexp(1.0, ks)[:, None] * d.measures)


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
