"""40-digit reference values, independent of `rispect.spaces`.

Function specs and spaces are read from their JSON encodings (the config
files), so nothing here shares code with the program under test.  The
Lorentz functional is summed over the exact decreasing rearrangement; the
Luxemburg norm is the root of the modular equation, bracketed by doubling
and polished by mpmath's Anderson-Bjorck solver in log scale.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

DPS = 40
INDEX_REGIONS = {
    "alpha": ("all", "down", -1),
    "beta": ("all", "up", 1),
    "alpha0": ("zero", "down", -1),
    "beta0": ("zero", "up", 1),
    "alpha_inf": ("infinity", "down", -1),
    "beta_inf": ("infinity", "up", 1),
}


def fn_value(spec: dict, t):
    kind = spec["kind"]
    if kind == "pure_power":
        return t ** mpf(spec["a"])
    if kind == "piecewise_power":
        return t ** mpf(spec["a0"] if t <= 1 else spec["a_inf"])
    if kind == "power_log":
        return t ** mpf(spec["a"]) * (1 + mpmath.log1p(t)) ** mpf(spec["c"])
    if kind == "table":
        lts = [mpmath.log(mpf(p[0])) for p in spec["points"]]
        lvs = [mpmath.log(mpf(p[1])) for p in spec["points"]]
        lt = mpmath.log(t)
        if lt <= lts[0]:
            i = 0
        elif lt >= lts[-1]:
            i = len(lts) - 2
        else:
            i = max(j for j in range(len(lts) - 1) if lts[j] <= lt)
        slope = (lvs[i + 1] - lvs[i]) / (lts[i + 1] - lts[i])
        return mpmath.exp(lvs[i] + slope * (lt - lts[i]))
    raise ValueError(f"unknown function kind {kind!r}")


def _root_decreasing(f, x0):
    """Root of a decreasing function f on (0, inf).

    The search runs in x = log(s) on a doubling/halving bracket around x0;
    the functions solved here are close to linear in log(s), so the
    bracketed solver converges in a few steps."""
    lo = hi = mpf(x0)
    while f(hi) > 0:
        hi *= 2
    while f(lo) < 0:
        lo /= 2
    if f(lo) == 0:
        return lo
    if f(hi) == 0:
        return hi
    x = mpmath.findroot(lambda x: f(mpmath.exp(x)), (mpmath.log(lo), mpmath.log(hi)), solver="anderson")
    return mpmath.exp(x)


def lorentz_norm(atoms, q, psi: dict):
    """(sum v_i**q (psi(T_i) - psi(T_{i-1})))**(1/q) over the decreasing profile."""
    total = mpf(0)
    t_prev = mpf(0)
    psi_prev = mpf(0)
    for v, m in sorted(atoms, key=lambda a: -a[0]):
        t_prev += m
        psi_t = fn_value(psi, t_prev)
        total += v**q * (psi_t - psi_prev)
        psi_prev = psi_t
    return total ** (1 / mpf(q))


def luxemburg_norm(atoms, N: dict):
    """inf{u > 0 : sum m_i N(v_i / u) <= 1}."""
    if N["kind"] == "pure_power":
        a = mpf(N["a"])
        return sum(m * v**a for v, m in atoms) ** (1 / a)

    def excess(u):
        return mpmath.log(sum(m * fn_value(N, v / u) for v, m in atoms))

    return _root_decreasing(excess, max(v for v, _ in atoms))


def space_norm(space: dict, atoms):
    if space["type"] == "lorentz":
        return lorentz_norm(atoms, mpf(space["q"]), space["psi"])
    return luxemburg_norm(atoms, space["N"])


def block_norm(space: dict, seq: dict):
    """Norm of the step function with coefficient seq[k] on block [2**k, 2**(k+1))."""
    return space_norm(space, [(abs(v), mpmath.ldexp(1, k)) for k, v in seq.items() if v != 0])


def _shift_minus(seq: dict, lam) -> dict:
    out: dict = {}
    for k, v in seq.items():
        out[k + 1] = out.get(k + 1, 0) + v
        out[k] = out.get(k, 0) - lam * v
    return out


def window_residual(space: dict, lam: float, n: int, k: int):
    """min of the geometric window's one-step ratio and the squared window's
    better step ratio, for the window of length n starting at block k."""
    with mpmath.workdps(DPS):
        lam = mpf(lam)
        geo = {k + j: lam ** (-j) for j in range(n + 1)}
        r_geo = block_norm(space, _shift_minus(geo, lam)) / block_norm(space, geo)
        sq = {k + j: (j + 1 if j <= n else 2 * n + 1 - j) * lam ** (-j) for j in range(2 * n + 1)}
        t1 = _shift_minus(sq, lam)
        n_t1 = block_norm(space, t1)
        r1 = n_t1 / block_norm(space, sq)
        r2 = block_norm(space, _shift_minus(t1, lam)) / n_t1
        return min(r_geo, r1, r2)


def fundamental(space: dict, k: int, guess=1):
    """Norm of the indicator of block k, a set of measure 2**k; `guess` is a
    starting point for the root N(s) = 2**-k when no closed form exists."""
    t = mpmath.ldexp(1, k)
    if space["type"] == "lorentz":
        return fn_value(space["psi"], t) ** (1 / mpf(space["q"]))
    N = space["N"]
    u = 1 / t
    if N["kind"] == "pure_power":
        return 1 / u ** (1 / mpf(N["a"]))
    if N["kind"] == "piecewise_power":
        return 1 / u ** (1 / mpf(N["a0"] if u <= 1 else N["a_inf"]))
    log_u = mpmath.log(u)
    return 1 / _root_decreasing(lambda s: log_u - mpmath.log(fn_value(N, s)), guess)


class IndexOracle:
    """Estimated indices at window n_max from 40-digit block weights; the
    weights of one space are computed once and shared across windows."""

    def __init__(self, space: dict) -> None:
        self.space = space
        self.weights: dict = {}

    def estimate(self, k_radius: int, n_max: int) -> dict:
        with mpmath.workdps(DPS):
            guess = 1
            for k in range(-k_radius, k_radius + 1):
                if k not in self.weights:
                    self.weights[k] = fundamental(self.space, k, guess)
                guess = 1 / self.weights[k]
            k_min, k_max = -k_radius + n_max, k_radius - n_max
            n = n_max
            out = {}
            for name, (region, direction, sign) in INDEX_REGIONS.items():
                lo, hi = k_min, k_max - n
                if region == "zero":
                    hi = min(hi, -n)
                elif region == "infinity":
                    lo = max(lo, 0)
                s = self.weights
                if direction == "up":
                    sup = max(s[k + n] / s[k] for k in range(lo, hi + 1))
                else:
                    sup = max(s[k] / s[k + n] for k in range(lo, hi + 1))
                out[name] = min(mpf(1), max(mpf(0), sign * mpmath.log(sup, 2) / n))
            return out


def rel_err(x: float, ref) -> float:
    """|x - ref| / |ref|, or |x| when ref is zero."""
    with mpmath.workdps(DPS):
        ref = mpf(ref)
        diff = abs(mpf(x) - ref)
        return float(diff / abs(ref)) if ref != 0 else float(diff)
