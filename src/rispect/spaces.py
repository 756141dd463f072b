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
from typing import Iterable, Union

import numpy as np

from .shifts import shift
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
    "orlicz_inverse",
    "fundamental",
    "fundamentals",
    "lorentz_norm",
    "luxemburg_norm",
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


@dataclass(frozen=True)
class PurePower(FnSpec):
    a: float
    kind = "pure_power"

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"pure_power exponent must be positive, got {self.a}")

    def value(self, t):
        return np.power(t, self.a)


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

    def value(self, t):
        t_arr = np.asarray(t, dtype=float)
        lt = np.log(t_arr)
        lts = np.log([p[0] for p in self.points])
        lvs = np.log([p[1] for p in self.points])
        out = np.interp(lt, lts, lvs)
        slope_lo = (lvs[1] - lvs[0]) / (lts[1] - lts[0])
        slope_hi = (lvs[-1] - lvs[-2]) / (lts[-1] - lts[-2])
        out = np.where(lt < lts[0], lvs[0] + slope_lo * (lt - lts[0]), out)
        out = np.where(lt > lts[-1], lvs[-1] + slope_hi * (lt - lts[-1]), out)
        out = np.exp(out)
        return out if out.ndim else float(out)


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
    """Quasi-concavity on the dyadic grid: v increasing, v(t)/t decreasing."""
    v = _grid_values(fn, "parameter function")
    ratio = v / _ROLE_GRID
    if not np.all(ratio[1:] <= ratio[:-1] * (1 + 1e-9)):
        raise ValueError("parameter function fails quasi-concavity (v(t)/t must not increase)")


def _check_orlicz_role(fn: FnSpec) -> None:
    """Convexity on the dyadic grid plus increase through 0 and to infinity."""
    if isinstance(fn, PurePower) and fn.a < 1:
        raise ValueError(f"orlicz function needs exponent >= 1, got {fn.a}")
    if isinstance(fn, PiecewisePower):
        if fn.a0 < 1 or fn.a_inf < 1:
            raise ValueError("orlicz function needs both exponents >= 1")
        if fn.a0 > fn.a_inf:
            raise ValueError(
                f"orlicz piecewise_power needs a0 <= a_inf, got {fn.a0} > {fn.a_inf}"
            )
    v = _grid_values(fn, "orlicz function")
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


# The root and norm kernels below overflow to inf silently, as Python-float
# arithmetic does; callers turn a non-finite result into NumericalError.
@np.errstate(over="ignore")
def _inverse_rows(N: FnSpec, u: np.ndarray) -> np.ndarray:
    """Element i solves N(t) = u[i] for t > 0; closed form for power kinds,
    else bisection.

    The bisection starts at lo = hi = 1, doubles hi while N(hi) < u, halves
    lo while N(lo) > u, and bisects with _bisect_rows to INV_REL_TOL.
    """
    us = u.tolist()
    bad = ~(u > 0)
    if bad.any():
        raise ValueError(f"positive u required, got {us[int(np.argmax(bad))]}")
    # Python float pow per element: the array power rounds differently in the last ulp.
    if isinstance(N, PurePower):
        return np.array([x ** (1.0 / N.a) for x in us])
    if isinstance(N, PiecewisePower):
        return np.array([x ** (1.0 / N.a0) if x <= 1.0 else x ** (1.0 / N.a_inf) for x in us])

    def value(t: np.ndarray) -> np.ndarray:
        return np.asarray(N.value(t), dtype=float)

    every = np.arange(u.size)
    lo, hi = np.ones(u.size), np.ones(u.size)
    # Negated tests as in a scalar loop that breaks on N(hi) >= u: NaN keeps going.
    rows = every
    for _ in range(_MAX_BRACKET):
        rows = rows[~(value(hi[rows]) >= u[rows])]
        if not rows.size:
            break
        hi[rows] *= 2.0
    stuck_above = np.isin(every, rows)
    rows = every
    for _ in range(_MAX_BRACKET):
        rows = rows[~(value(lo[rows]) <= u[rows])]
        if not rows.size:
            break
        lo[rows] /= 2.0
    stuck = stuck_above | np.isin(every, rows)
    if stuck.any():
        i = int(np.argmax(stuck))
        side = "above" if stuck_above[i] else "below"
        raise NumericalError(f"failed to bracket N inverse {side} for u={us[i]}")
    return _bisect_rows(lambda t, r: value(t) < u[r], lo, hi, every, INV_REL_TOL)


def orlicz_inverse(N: FnSpec, u: float) -> float:
    """Solve N(t) = u for t > 0; closed form for power kinds, else bisection."""
    return float(_inverse_rows(N, np.array([u], dtype=float))[0])


def fundamentals(space: SpaceSpec, t) -> np.ndarray:
    """Element i is the norm of the indicator of a set of measure t[i]."""
    t = np.array(t, dtype=float, ndmin=1)
    bad = ~(t > 0)
    if bad.any():
        raise ValueError(f"positive t required, got {t.tolist()[int(np.argmax(bad))]}")
    if isinstance(space, Lorentz):
        psi_vals = np.asarray(space.psi.value(t), dtype=float).tolist()
        return np.array([v ** (1.0 / space.q) for v in psi_vals])
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
    sums = (values**q * dpsi).sum(axis=1)
    # Python float pow per row: the array power rounds differently in the last ulp.
    return np.array([s ** (1.0 / q) for s in sums.tolist()])


def lorentz_norm(d: Distribution, q: float, psi: FnSpec) -> float:
    """(sum_i v_i**q * (psi(T_i) - psi(T_{i-1})))**(1/q) over the decreasing
    profile of d with breakpoints T_i (psi(T_0) taken as 0)."""
    if d.is_zero:
        return 0.0
    return float(_lorentz_rows(d.values, d.measures[None, :], q, psi)[0])


@np.errstate(over="ignore", divide="ignore")
def _luxemburg_rows(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> np.ndarray:
    """Row i: the root u of sum_j weights_ij * N(values_ij / u) = 1, which
    decreases in u; values is one row per weight row, or one row shared by all.

    A pure power solves in closed form.  Otherwise each row starts from
    u0 = max_j values_ij, doubles or halves until the modular crosses 1, and
    bisects with _bisect_rows to LUX_REL_TOL.  Division by zero is silent
    too: a row halved down to u = 0 reads its modular as inf, and raises
    NumericalError once bracketing ends.
    """
    if isinstance(N, PurePower):
        sums = (weights * values**N.a).sum(axis=1)
        return np.array([s ** (1.0 / N.a) for s in sums.tolist()])
    values = np.broadcast_to(values, weights.shape)

    def modular(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # rows is sorted and unique, so at full size it is every row: no gather.
        v, w = (values, weights) if rows.size == len(weights) else (values[rows], weights[rows])
        terms = np.asarray(N.value(v / u[:, None]), dtype=float)
        return (w * terms).sum(axis=1)

    every = np.arange(weights.shape[0])
    u0 = values.max(axis=1)
    m0 = modular(u0, every)
    up = m0 > 1.0
    lo = np.where(up, u0, 0.5 * u0)
    hi = np.where(up, 2.0 * u0, u0)
    rows = todo = every[m0 != 1.0]
    for _ in range(_MAX_BRACKET):
        if not rows.size:
            break
        r_up = up[rows]
        m = modular(np.where(r_up, hi[rows], lo[rows]), rows)
        # Negated tests, as in a scalar loop that breaks once the modular
        # crosses 1: a NaN modular keeps a row going.
        going = np.where(r_up, ~(m <= 1.0), ~(m >= 1.0))
        rows, r_up = rows[going], r_up[going]
        lo_r, hi_r = lo[rows], hi[rows]
        lo[rows] = np.where(r_up, hi_r, 0.5 * lo_r)
        hi[rows] = np.where(r_up, 2.0 * hi_r, lo_r)
    if rows.size:
        side = "above" if up[rows[0]] else "below"
        raise NumericalError(f"luxemburg bracketing failed {side}")
    if not lo[todo].all():
        raise NumericalError("luxemburg bracketing underflows to u = 0")
    mids = _bisect_rows(lambda u, r: modular(u, r) >= 1.0, lo, hi, todo, LUX_REL_TOL)
    return np.where(m0 == 1.0, u0, mids)


def luxemburg_norm(d: Distribution, N: FnSpec) -> float:
    """inf{u > 0 : sum_i m_i * N(v_i / u) <= 1}."""
    if d.is_zero:
        return 0.0
    return float(_luxemburg_rows(d.values, d.measures[None, :], N)[0])


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
    d = shift(a, -a.k_min).distribution()
    return _norm_rows(space, d.values, np.ldexp(1.0, ks + a.k_min)[:, None] * d.measures)


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
