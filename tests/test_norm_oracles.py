"""Lorentz and Luxemburg norms against 50-digit mpmath references.

The references are written from the definitions alone: they read the
function specs as JSON dicts and share no code with `rispect.spaces`.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from rispect import Distribution, fn_from_json, lorentz_norm, luxemburg_norm

# Largest relative errors seen at these seeds: 5.8e-16 (Lorentz) and 4.5e-13
# (Luxemburg, bisected to LUX_REL_TOL; closed-form pure_power 1.9e-16).

DPS = 50
PSIS = [
    {"kind": "pure_power", "a": 0.5},
    {"kind": "piecewise_power", "a0": 0.25, "a_inf": 0.75},
    {"kind": "power_log", "a": 0.5, "c": 1.0},
    {"kind": "table", "points": [[0.25, 0.5], [1.0, 1.0], [4.0, 2.0], [16.0, 4.0]]},
]
NS = [
    {"kind": "pure_power", "a": 2.0},
    {"kind": "piecewise_power", "a0": 1.5, "a_inf": 3.0},
    {"kind": "power_log", "a": 2.0, "c": 1.0},
    {"kind": "table", "points": [[0.5, 0.25], [1.0, 1.0], [2.0, 6.0], [4.0, 48.0]]},
]


def fn(spec: dict):
    """The function of a JSON spec, as a map of mpf to mpf at the current precision."""
    kind = spec["kind"]
    if kind == "pure_power":
        return lambda t: t ** mpf(spec["a"])
    if kind == "piecewise_power":
        return lambda t: t ** mpf(spec["a0"] if t <= 1 else spec["a_inf"])
    if kind == "power_log":
        return lambda t: t ** mpf(spec["a"]) * (1 + mpmath.log(1 + t)) ** mpf(spec["c"])
    # table: linear in (log t, log value), the end segments extended
    logs = [(mpmath.log(mpf(p)), mpmath.log(mpf(v))) for p, v in spec["points"]]

    def table(t):
        lt = mpmath.log(t)
        i = 0
        while i < len(logs) - 2 and lt > logs[i + 1][0]:
            i += 1
        (x0, y0), (x1, y1) = logs[i], logs[i + 1]
        return mpmath.exp(y0 + (y1 - y0) / (x1 - x0) * (lt - x0))

    return table


def lorentz_reference(atoms, q: float, psi: dict) -> mpf:
    """(sum_i v_i**q * (psi(T_i) - psi(T_{i-1})))**(1/q), values decreasing."""
    with mpmath.workdps(DPS):
        psi_fn = fn(psi)
        total, t, prev = mpf(0), mpf(0), mpf(0)
        for v, m in sorted(atoms, reverse=True):
            t += mpf(m)
            now = psi_fn(t)
            total += mpf(v) ** mpf(q) * (now - prev)
            prev = now
        return total ** (1 / mpf(q))


def luxemburg_reference(atoms, N: dict) -> mpf:
    """The u > 0 with sum_i m_i * N(v_i / u) = 1, by bisection."""
    with mpmath.workdps(DPS):
        n_fn = fn(N)

        def modular(u: mpf) -> mpf:
            return sum(mpf(m) * n_fn(mpf(v) / u) for v, m in atoms)

        lo = hi = max(mpf(v) for v, _ in atoms)
        while modular(hi) > 1:
            hi *= 2
        while modular(lo) < 1:
            lo /= 2
        # A factor-2 bracket halved 90 times pins u to 1e-27, relative:
        # far below the tolerance tested, at a fraction of full precision's cost.
        for _ in range(90):
            mid = (lo + hi) / 2
            if modular(mid) > 1:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def random_distributions(seed: int, count: int) -> list[Distribution]:
    """Value and measure ranges of acceptance test_07."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(1, 9))
        values = rng.uniform(0.01, 50.0, size)
        measures = rng.uniform(0.01, 20.0, size)
        out.append(Distribution(tuple(zip(values.tolist(), measures.tolist()))))
    return out


def rel_err(got: float, want: mpf) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpf(got) - want) / want)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("psi", PSIS, ids=[p["kind"] for p in PSIS])
def test_lorentz_norm_matches_mpmath(psi, q):
    fn = fn_from_json(psi)
    for d in random_distributions(11, 40):
        want = lorentz_reference(d.atoms, q, psi)
        assert rel_err(lorentz_norm(d, q, fn), want) <= 1e-12


@pytest.mark.parametrize("N", NS, ids=[N["kind"] for N in NS])
def test_luxemburg_norm_matches_mpmath(N):
    fn = fn_from_json(N)
    for d in random_distributions(12, 40):
        want = luxemburg_reference(d.atoms, N)
        # LUX_REL_TOL is 1e-12, so a bisected root is good to about that.
        assert rel_err(luxemburg_norm(d, fn), want) <= 1e-11
