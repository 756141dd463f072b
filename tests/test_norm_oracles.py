"""Lorentz and Luxemburg norms against 50-digit mpmath references.

The references are written from the definitions alone: they read the
function specs as JSON dicts and share no code with `rispect.spaces`.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from rispect import Distribution, Lorentz, NumericalError, Orlicz, fn_from_json, space_norm

# Largest relative errors seen at these seeds: 5.8e-16 (Lorentz) and 3.7e-16
# (Luxemburg; closed-form pure_power 1.9e-16); 7.5e-16 for Luxemburg roots
# 2**100 from the largest value (table N 1.7e-14).

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

        lo = max(mpf(v) for v, _ in atoms)
        while modular(lo) > 1:
            lo *= 2
        while modular(lo) < 1:
            lo /= 2
        hi = 2 * lo
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
    space = Lorentz(q, fn_from_json(psi))
    for d in random_distributions(11, 40):
        want = lorentz_reference(d.atoms, q, psi)
        assert rel_err(space_norm(space, d), want) <= 1e-12


@pytest.mark.parametrize("N", NS, ids=[N["kind"] for N in NS])
def test_luxemburg_norm_matches_mpmath(N):
    space = Orlicz(fn_from_json(N))
    for d in random_distributions(12, 40):
        want = luxemburg_reference(d.atoms, N)
        # A root stops within 2**-50 of log u, or where |log modular| is at
        # most 2**-50, which bounds its distance too: about 1e-15 relative,
        # plus the rounding of N and the modular sum.
        assert rel_err(space_norm(space, d), want) <= 4e-15


@pytest.mark.parametrize("scale", [-200, 200])
@pytest.mark.parametrize("N", NS, ids=[N["kind"] for N in NS])
def test_luxemburg_norm_far_from_the_largest_value_matches_mpmath(N, scale):
    """Measures scaled by 2**scale put the root about 2**(scale / 2) times
    the largest value.  The root is measured from the last point evaluated,
    so it keeps the precision it has near the largest value (measured from
    that value, it was off by up to 2.2e-14 here).  A table N is itself
    good to only about 2e-14 this far out: it exponentiates a log-linear
    extrapolation near log t = 70."""
    space = Orlicz(fn_from_json(N))
    bound = 3e-14 if N["kind"] == "table" else 4e-15
    for d in random_distributions(13, 20):
        d = Distribution(tuple((v, m * 2.0**scale) for v, m in d.atoms))
        assert rel_err(space_norm(space, d), luxemburg_reference(d.atoms, N)) <= bound


PAST_THE_SLOPE = {
    "overflow-at-u0": ((3.0, 1e308), (2.0, 1e308), (1.0, 1e308)),
    "overflow-at-slope-point": ((1.0, 3.0 * 2.0**-347),),
    "root-below-normal-floats": ((1e-300, 2.0**-60), (5e-301, 2.0**-60)),
}


@pytest.mark.parametrize(
    "N,atoms",
    [(N, atoms) for N in NS[1:] for atoms in PAST_THE_SLOPE.values()]
    + [({"kind": "piecewise_power", "a0": 1.2, "a_inf": 3.0}, PAST_THE_SLOPE["overflow-at-u0"])],
    ids=[f"{N['kind']}-{name}" for N in NS[1:] for name in PAST_THE_SLOPE]
    + ["piecewise_power-1.2-doubling-past-the-floats"],
)
def test_luxemburg_norm_past_the_slope_bracket_matches_mpmath(N, atoms):
    """Roots the slope point cannot bracket, found by the doubling search in
    log u: a modular that overflows at the largest value (measures 1e308) or
    at the slope point (for piecewise_power, where N(t) = t**3 overflows
    above t = 5.6e102), and a root near 1e-306 (4.7e-309 for power_log).
    With N = t**1.2 below 1 the root of the first lies e**592 above the
    largest value, between the doubling search's x = 512 and x = 1024, which
    leaves the floats: the search stops at their edge.  Largest errors seen:
    4.1e-16, and 1.8e-15 for table N, which is itself good only to about
    2e-15 this far from its knots."""
    space = Orlicz(fn_from_json(N))
    assert rel_err(space_norm(space, Distribution(atoms)), luxemburg_reference(atoms, N)) <= 4e-15


# N(t) = 1e-100 t, as a table: the root of measure m at value 1 is 1e-100 m.
LINEAR_TABLE = {"kind": "table", "points": [[1.0, 1e-100], [2.0, 2e-100]]}


@pytest.mark.parametrize(
    "scale,bits", [(-600, 2.4099198651029013e-281), (-650, 2.1404388173910784e-296)]
)
def test_luxemburg_root_far_below_the_largest_value_matches_mpmath(scale, bits):
    """Roots e**646 and e**681 below the largest value, above the least u
    with u0 / u a float (5.6e-309).  The table's slope is exactly 1; N at
    t = 1 / u exponentiates a log near 650, so it is good to a few 1e-14
    (7.1e-15 and 2.8e-14 here)."""
    atoms = ((1.0, 2.0**scale),)
    got = space_norm(Orlicz(fn_from_json(LINEAR_TABLE)), Distribution(atoms))
    assert got == bits
    assert rel_err(got, luxemburg_reference(atoms, LINEAR_TABLE)) <= 4e-14


@pytest.mark.parametrize("scale", [-700, -1000])
def test_luxemburg_root_where_u0_over_u_leaves_the_floats_raises(scale):
    """The roots 1.9e-311 and 9.3e-402 lie below the largest value over the
    largest float.  There v / u overflows to inf, so the bracket search
    stops at that edge, goes to u = 0 and raises, never returning the edge
    itself (5.6e-309) as a norm."""
    space = Orlicz(fn_from_json(LINEAR_TABLE))
    with pytest.raises(NumericalError, match="^luxemburg bracketing underflows to u = 0$"):
        space_norm(space, Distribution(((1.0, 2.0**scale),)))
