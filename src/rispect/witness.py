"""Disjoint-copy witnesses: how close block windows are to an l^p unit basis.

A witness family takes one normalized profile and lays down n disjoint copies;
the measured distortion compares the space norm of coefficient combinations
against the l^p norm of the coefficients, p = 1/theta.  At matched rates the
profile is an approximate eigenvector of the doubling operator and the
distortion approaches one as the window grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .shifts import geometric_window
from .spaces import _UNSCALED, NumericalError, SpaceSpec, _grouped_norms, _pow_each, space_norm
from .steps import MAX_COPIES, MAX_RANDOM, Distribution, _disjoint_sum_chunks, _seeded_generators

__all__ = [
    "WitnessFamily",
    "build_witness",
    "distortion",
    "standard_probes",
    "lp_norm",
]


@dataclass(frozen=True)
class WitnessFamily:
    """n_copies disjoint copies of a unit-norm profile in a fixed space."""

    space: SpaceSpec
    base: Distribution
    n_copies: int
    theta: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n_copies < 1:
            raise ValueError(f"need n_copies >= 1, got {self.n_copies}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta={self.theta} outside [0, 1]")
        if self.base.is_zero:
            raise ValueError("witness base must be nonzero")

    @property
    def p(self) -> float:
        return math.inf if self.theta == 0.0 else 1.0 / self.theta


def build_witness(
    space: SpaceSpec, lam: float, n_copies: int, window_n: int, k: int
) -> WitnessFamily:
    """Witness from a geometric window at rate lam starting at block k.

    Requires lam in [1, 2] so theta = log2(lam) lies in [0, 1]; lam = 1 gives
    p = inf.  The base profile is normalized to unit space norm.
    """
    if not 1.0 <= lam <= 2.0:
        raise ValueError(f"lam={lam} outside [1, 2] (theta must lie in [0, 1])")
    raw = geometric_window(lam, k, window_n).distribution()
    base = raw.scale(1.0 / space_norm(space, raw))
    return WitnessFamily(
        space,
        base,
        n_copies,
        math.log2(lam),
        meta={"lam": lam, "window_n": window_n, "k": k},
    )


def lp_norm(coeffs: Sequence[float], theta: float) -> float:
    """l^p norm with p = 1/theta; theta = 0 is the sup norm."""
    arr = np.abs(np.asarray(coeffs, dtype=float)).reshape(1, -1)
    if not arr.any():
        return 0.0
    return float(_lp_rows(arr, theta)[0])


def _lp_rows(a: np.ndarray, theta: float) -> np.ndarray:
    """Row i is the l^p norm, p = 1/theta, of the row a[i] of absolute values,
    which must not be all zero; theta = 0 is the sup norm.  The rows are
    scaled by their largest entry, so that a**p cannot overflow for large p,
    and the 1/p-th power of each row sum is a Python float power."""
    m = a.max(axis=1)
    if theta == 0.0:
        return m
    p = 1.0 / theta
    return m * _pow_each(((a / m[:, None]) ** p).sum(axis=1), 1.0 / p)


def standard_probes(n_copies: int, theta: float, seed: int, n_random: int = 100) -> np.ndarray:
    """The rows of one float64 array: unit vectors, all-ones, alternating
    signs, a matched geometric decay, and seeded random normal vectors.
    Counts outside [1, MAX_COPIES] and [0, MAX_RANDOM] are a ValueError."""
    if not 1 <= n_copies <= MAX_COPIES:
        raise ValueError(f"n_copies must lie in [1, {MAX_COPIES}], got {n_copies}")
    if not 0 <= n_random <= MAX_RANDOM:
        raise ValueError(f"n_random must lie in [0, {MAX_RANDOM}], got {n_random}")
    probes = np.zeros((n_copies + 3 + n_random, n_copies))
    np.fill_diagonal(probes, 1.0)
    probes[n_copies : n_copies + 2] = 1.0
    probes[n_copies + 1, 1::2] = -1.0
    probes[n_copies + 2] = [2.0 ** (-j * theta) for j in range(n_copies)]
    for row, rng in zip(probes[n_copies + 3 :], _seeded_generators((seed, 7777), n_random)):
        rng.standard_normal(out=row)
    return probes


def _class_heads(coeffs: np.ndarray) -> np.ndarray:
    """Mask of the rows of coeffs (nonzero rows x copies) that are the first,
    in order, of their class: the rows with exactly one nonzero entry make a
    class per magnitude of that entry, the rows whose entries all have one
    magnitude make a class per magnitude, and every other row is its own."""
    a = np.abs(coeffs)
    top = a.max(axis=1)
    single = np.count_nonzero(a, axis=1) == 1
    heads = ~single & (a.min(axis=1) != top)
    for kind in (single, ~single & ~heads):
        rows = np.flatnonzero(kind)
        heads[rows[np.unique(top[rows], return_index=True)[1]]] = True
    return heads


def distortion(fam: WitnessFamily, probe_coeffs: Sequence[Sequence[float]]) -> float:
    """max over probes of max(R, 1/R), R = ||sum a_j x_j|| / ||a||_p.

    Signs never matter: disjoint copies see only |a_j|.  The disjoint sums of
    the nonzero probes are built as array rows a chunk at a time; each chunk
    is normed through the row kernels and its p-norms taken as rows, so
    memory does not grow with the number of probes.

    Only the first row of each class of _class_heads is normed, and its ratio
    stands for the class, bit for bit.  Rows of one magnitude m have the same
    |a_j|, hence the same products and p-norm.  A row whose one nonzero entry
    has magnitude m at copy j has the products m * v_i there and zeros
    elsewhere: the stable sort by decreasing value keeps the products in the
    base's order at every j, and each carries the base measure m_i, so the
    canonical atoms do not depend on j; its p-norm is m * 1**(1/p).  Rows
    equal up to a permutation of unequal magnitudes are not classed: their
    products may tie across copies, and the measures of a merged group are
    summed in position order, and float addition is not associative.
    """
    coeffs = np.asarray(probe_coeffs, dtype=float)
    if len(coeffs) and coeffs.shape[1:] != (fam.n_copies,):
        raise ValueError(f"probes of shape {coeffs.shape} are not rows of n_copies {fam.n_copies}")
    coeffs = coeffs.reshape(len(coeffs), fam.n_copies)
    coeffs = coeffs[(coeffs != 0.0).any(axis=1)]
    coeffs = coeffs[_class_heads(coeffs)]
    worst, start = 1.0, 0
    for rows in _disjoint_sum_chunks(coeffs, fam.base):
        nums = _grouped_norms(fam.space, [(*rows, _UNSCALED)])
        if not nums.all():
            raise NumericalError("the disjoint sum of a nonzero probe underflows to 0")
        ratio = nums / _lp_rows(np.abs(coeffs[start : start + nums.size]), fam.theta)
        start += nums.size
        # fmax skips a NaN ratio (inf / inf), as max(worst, ratio) does.
        worst = float(np.fmax.reduce(np.fmax(ratio, 1.0 / ratio), initial=worst))
    return worst
