"""Lorentz and Orlicz space specifications and their norms.

Norms are evaluated exactly on finite step functions: the Lorentz functional
integrates the decreasing profile against the parameter function, and the
Orlicz (Luxemburg) norm is the root of the modular equation, found by
bracketing + bisection.  Sequence-space counterparts weight coefficients by
the dyadic block scale 2**k.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Union

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
    "lorentz_seq_norm",
    "orlicz_seq_norm",
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


def _check_psi_role(fn: FnSpec) -> None:
    """Quasi-concavity on the dyadic grid: v increasing, v(t)/t decreasing."""
    v = np.asarray(fn.value(_ROLE_GRID), dtype=float)
    if not np.all(np.isfinite(v)) or not np.all(v > 0):
        raise ValueError("parameter function must be positive and finite on the dyadic grid")
    if not np.all(v[1:] > v[:-1]):
        raise ValueError("parameter function must be strictly increasing")
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
    v = np.asarray(fn.value(_ROLE_GRID), dtype=float)
    if not np.all(np.isfinite(v)) or not np.all(v > 0):
        raise ValueError("orlicz function must be positive and finite on the dyadic grid")
    if not np.all(v[1:] > v[:-1]):
        raise ValueError("orlicz function must be strictly increasing")
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


# The root and norm kernels below overflow to inf silently, as Python-float
# arithmetic does; callers turn a non-finite result into NumericalError.
@np.errstate(over="ignore")
def _inverse_rows(N: FnSpec, u: np.ndarray) -> np.ndarray:
    """Element i solves N(t) = u[i] for t > 0; closed form for power kinds,
    else bisection.

    The bisection starts at lo = hi = 1, doubles hi while N(hi) < u, halves
    lo while N(lo) > u, and bisects until hi - lo <= INV_REL_TOL * lo or
    _MAX_BISECT steps; rows that have finished are masked out, so each row
    takes the steps a one-element call would.
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
    rows = every
    for _ in range(_MAX_BISECT):
        rows = rows[~(hi[rows] - lo[rows] <= INV_REL_TOL * lo[rows])]
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        below = value(mid) < u[rows]
        lo[rows] = np.where(below, mid, lo[rows])
        hi[rows] = np.where(below, hi[rows], mid)
    return 0.5 * (lo + hi)


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


@np.errstate(over="ignore")
def _luxemburg_root(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> float:
    """Root u of sum_i weights_i * N(values_i / u) = 1 (decreasing in u)."""
    if isinstance(N, PurePower):
        # sum w * (v/u)**a = 1 solves in closed form; keeps pure-power spaces
        # exact instead of bisection-accurate.
        return float(np.sum(weights * values**N.a) ** (1.0 / N.a))

    def modular(u: float) -> float:
        return float(np.sum(weights * np.asarray(N.value(values / u), dtype=float)))

    u0 = float(values.max())
    m0 = modular(u0)
    if m0 == 1.0:
        return u0
    if m0 > 1.0:
        lo, hi = u0, 2.0 * u0
        for _ in range(_MAX_BRACKET):
            if modular(hi) <= 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NumericalError("luxemburg bracketing failed above")
    else:
        lo, hi = 0.5 * u0, u0
        for _ in range(_MAX_BRACKET):
            if modular(lo) >= 1.0:
                break
            lo, hi = 0.5 * lo, lo
        else:
            raise NumericalError("luxemburg bracketing failed below")
    for _ in range(_MAX_BISECT):
        if hi - lo <= LUX_REL_TOL * lo:
            break
        mid = 0.5 * (lo + hi)
        if modular(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@np.errstate(over="ignore")
def _luxemburg_rows(values: np.ndarray, weights: np.ndarray, N: FnSpec) -> np.ndarray:
    """Row i: _luxemburg_root(values[i], weights[i], N), taking the same
    steps; values is one row per weight row, or one row shared by all.

    Every row starts from its own u0 and runs the same doubling or halving
    bracket and the same bisection with the same stop test; rows that have
    finished are masked out, so they do not move.
    """
    if isinstance(N, PurePower):
        sums = (weights * values**N.a).sum(axis=1)
        return np.array([s ** (1.0 / N.a) for s in sums.tolist()])
    values = np.broadcast_to(values, weights.shape)

    def modular(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        terms = np.asarray(N.value(values[rows] / u[:, None]), dtype=float)
        return (weights[rows] * terms).sum(axis=1)

    every = np.arange(weights.shape[0])
    u0 = values.max(axis=1)
    m0 = modular(u0, every)
    up = m0 > 1.0
    lo = np.where(up, u0, 0.5 * u0)
    hi = np.where(up, 2.0 * u0, u0)
    rows = every[m0 != 1.0]
    for _ in range(_MAX_BRACKET):
        if not rows.size:
            break
        r_up = up[rows]
        m = modular(np.where(r_up, hi[rows], lo[rows]), rows)
        # Negated tests as in _luxemburg_root: a NaN modular keeps a row going.
        going = np.where(r_up, ~(m <= 1.0), ~(m >= 1.0))
        rows, r_up = rows[going], r_up[going]
        lo_r, hi_r = lo[rows], hi[rows]
        lo[rows] = np.where(r_up, hi_r, 0.5 * lo_r)
        hi[rows] = np.where(r_up, 2.0 * hi_r, lo_r)
    if rows.size:
        side = "above" if up[rows[0]] else "below"
        raise NumericalError(f"luxemburg bracketing failed {side}")
    rows = every[m0 != 1.0]
    for _ in range(_MAX_BISECT):
        rows = rows[~(hi[rows] - lo[rows] <= LUX_REL_TOL * lo[rows])]
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        above = modular(mid, rows) >= 1.0
        lo[rows] = np.where(above, mid, lo[rows])
        hi[rows] = np.where(above, hi[rows], mid)
    return np.where(m0 == 1.0, u0, 0.5 * (lo + hi))


def luxemburg_norm(d: Distribution, N: FnSpec) -> float:
    """inf{u > 0 : sum_i m_i * N(v_i / u) <= 1}."""
    if d.is_zero:
        return 0.0
    return _luxemburg_root(d.values, d.measures, N)


def lorentz_seq_norm(a: Seq, q: float, psi: FnSpec) -> float:
    """(sum_k |a_k|**q * psi(2**k))**(1/q)."""
    if a.is_zero:
        return 0.0
    ks = a.support()
    vals = np.array([abs(a[k]) for k in ks])
    weights = np.asarray(psi.value(np.array([math.ldexp(1.0, k) for k in ks])), dtype=float)
    return float(np.sum(vals**q * weights) ** (1.0 / q))


def orlicz_seq_norm(a: Seq, N: FnSpec) -> float:
    """inf{u > 0 : sum_k 2**k * N(|a_k| / u) <= 1}."""
    if a.is_zero:
        return 0.0
    ks = a.support()
    vals = np.array([abs(a[k]) for k in ks])
    weights = np.array([math.ldexp(1.0, k) for k in ks])
    return _luxemburg_root(vals, weights, N)


def space_norm(space: SpaceSpec, d: Distribution) -> float:
    if isinstance(space, Lorentz):
        return lorentz_norm(d, space.q, space.psi)
    return luxemburg_norm(d, space.N)


def space_norms(space: SpaceSpec, ds: Sequence[Distribution]) -> list[float]:
    """Element i is space_norm(space, ds[i]), bit for bit: distributions with
    the same atom count are normed as the rows of one array evaluation."""
    out = [0.0] * len(ds)
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(ds):
        if not d.is_zero:
            groups.setdefault(len(d.atoms), []).append(i)
    for idx in groups.values():
        values = np.array([ds[i].values for i in idx])
        measures = np.array([ds[i].measures for i in idx])
        if isinstance(space, Lorentz):
            norms = _lorentz_rows(values, measures, space.q, space.psi)
        else:
            norms = _luxemburg_rows(values, measures, space.N)
        for i, v in zip(idx, norms.tolist()):
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
    measures = np.ldexp(1.0, ks + a.k_min)[:, None] * d.measures
    if isinstance(space, Lorentz):
        return _lorentz_rows(d.values, measures, space.q, space.psi)
    return _luxemburg_rows(d.values, measures, space.N)


def dyadic_sample_norm(space: SpaceSpec, d: Distribution) -> float:
    """Norm of the block-sampled majorant step sum_k x*(2**k) chi_{block k}."""
    return space_norm(space, dyadic_sample(d))


# ---------------------------------------------------------------------------
# JSON codec.  Field names are fixed by docs/space-spec.schema.json.

_FN_KINDS = ("pure_power", "piecewise_power", "power_log", "table")


def fn_to_json(fn: FnSpec) -> dict:
    if isinstance(fn, PurePower):
        return {"kind": "pure_power", "a": fn.a}
    if isinstance(fn, PiecewisePower):
        return {"kind": "piecewise_power", "a0": fn.a0, "a_inf": fn.a_inf}
    if isinstance(fn, PowerLog):
        return {"kind": "power_log", "a": fn.a, "c": fn.c}
    if isinstance(fn, TableFn):
        return {"kind": "table", "points": [[t, v] for t, v in fn.points]}
    raise TypeError(f"unknown function spec {fn!r}")


def _require(obj: dict, field_name: str, path: str):
    if field_name not in obj:
        raise SpecJSONError(f"missing field {path}.{field_name}")
    return obj[field_name]


def _number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SpecJSONError(f"field {path} must be a number, got {x!r}")
    return float(x)


def fn_from_json(obj, path: str = "fn") -> FnSpec:
    if not isinstance(obj, dict):
        raise SpecJSONError(f"field {path} must be an object")
    kind = _require(obj, "kind", path)
    try:
        if kind == "pure_power":
            return PurePower(_number(_require(obj, "a", path), f"{path}.a"))
        if kind == "piecewise_power":
            return PiecewisePower(
                _number(_require(obj, "a0", path), f"{path}.a0"),
                _number(_require(obj, "a_inf", path), f"{path}.a_inf"),
            )
        if kind == "power_log":
            return PowerLog(
                _number(_require(obj, "a", path), f"{path}.a"),
                _number(_require(obj, "c", path), f"{path}.c"),
            )
        if kind == "table":
            raw = _require(obj, "points", path)
            if not isinstance(raw, list):
                raise SpecJSONError(f"field {path}.points must be a list")
            pts = []
            for i, pair in enumerate(raw):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise SpecJSONError(f"field {path}.points[{i}] must be a [t, value] pair")
                pts.append(
                    (
                        _number(pair[0], f"{path}.points[{i}][0]"),
                        _number(pair[1], f"{path}.points[{i}][1]"),
                    )
                )
            return TableFn(tuple(pts))
    except ValueError as exc:
        if isinstance(exc, SpecJSONError):
            raise
        raise SpecJSONError(f"invalid {path}: {exc}") from exc
    raise SpecJSONError(f"field {path}.kind must be one of {_FN_KINDS}, got {kind!r}")


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
