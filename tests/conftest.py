"""Shared fixtures: the six reference spaces used across the suite, and the
call and evaluation counters for the work-count pins."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rispect import FnSpec, Lorentz, Orlicz, PiecewisePower, PurePower, spaces

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def lorentz_sqrt() -> Lorentz:
    """Lorentz q=1 with parameter t**(1/2); all six indices are 0.5."""
    return Lorentz(1, PurePower(0.5))


@pytest.fixture
def lorentz_two() -> Lorentz:
    """Lorentz q=2 with parameter t; the L2-matched Lorentz space."""
    return Lorentz(2, PurePower(1.0))


@pytest.fixture
def l1() -> Lorentz:
    """Lorentz q=1 with parameter t, which is plain L1."""
    return Lorentz(1, PurePower(1.0))


@pytest.fixture
def quarter() -> Lorentz:
    """Piecewise parameter: exponent 1/4 near zero, 3/4 near infinity."""
    return Lorentz(1, PiecewisePower(0.25, 0.75))


@pytest.fixture
def quarter_mirror() -> Lorentz:
    """Mirrored piecewise parameter: 3/4 near zero, 1/4 near infinity."""
    return Lorentz(1, PiecewisePower(0.75, 0.25))


@pytest.fixture
def orlicz_square() -> Orlicz:
    """Orlicz space of N = t**2, i.e. L2."""
    return Orlicz(PurePower(2.0))


@pytest.fixture
def orlicz_piecewise() -> Orlicz:
    """Orlicz N with exponent 1.5 on (0,1] and 3 on [1,inf)."""
    return Orlicz(PiecewisePower(1.5, 3.0))


@pytest.fixture
def datadir() -> Path:
    return Path(__file__).parent / "data"


@pytest.fixture
def counted():
    """counted(fn) is (a copy of fn, calls): the copy appends the number of
    points of each value call to calls.  Work pins count these, not time."""

    def wrap(fn: FnSpec) -> tuple[FnSpec, list[int]]:
        calls: list[int] = []

        @dataclass(frozen=True)
        class Counted(type(fn)):
            def value(self, t):
                calls.append(np.size(t))
                return super().value(t)

        return Counted(*(getattr(fn, f.name) for f in fields(fn))), calls

    return wrap


@pytest.fixture
def evaluations(monkeypatch) -> list[int]:
    """The number of rows of each row-kernel evaluation (spaces._norm_rows)
    made while the test runs, in order.  Work pins count these, not time."""
    rows: list[int] = []
    norm_rows = spaces._norm_rows

    def counted(space, pieces):
        rows.append(sum(len(measures) for _, measures in pieces))
        return norm_rows(space, pieces)

    monkeypatch.setattr(spaces, "_norm_rows", counted)
    return rows
