"""Step functions on (0, inf) handled up to equimeasurability.

A `Distribution` records only the multiset of (value, measure) level atoms,
which is all a rearrangement-invariant norm can see.  A block sequence `Seq`
is the step function sum_k a_k * chi_{[2**k, 2**(k+1))}: one object serves
as the coefficient sequence the shift operators act on and as the function
the norms measure, since dilation by 2**n is the shift of its coefficients
by n.  `PositionedStep` is an arbitrary finite step function used as input
to the block-averaging projection.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "Seq",
    "PositionedStep",
    "rearrange",
    "dyadic_embed",
    "dyadic_average",
    "disjoint_sum",
    "dyadic_sample",
]

# Relative tolerance for treating two level values as equal when merging.
MERGE_REL_TOL = 1e-12


def floor_log2(t: float) -> int:
    """Largest k with 2**k <= t; exact for every positive finite float."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"positive finite t required, got {t}")
    return math.frexp(t)[1] - 1


def _last_block_below(t: float) -> int:
    """Largest k with 2**k < t (strict)."""
    k = floor_log2(t)
    return k - 1 if math.ldexp(1.0, k) == t else k


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= MERGE_REL_TOL * max(abs(x), abs(y))


def _canonical_atoms(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    kept: list[tuple[float, float]] = []
    for value, measure in pairs:
        value = float(value)
        measure = float(measure)
        if value < 0:
            raise ValueError(f"negative level value {value}")
        if measure < 0:
            raise ValueError(f"negative measure {measure}")
        if not (math.isfinite(value) and math.isfinite(measure)):
            raise ValueError(f"non-finite atom ({value}, {measure})")
        if value == 0.0 or measure == 0.0:
            continue
        kept.append((value, measure))
    kept.sort(key=lambda a: -a[0])
    merged: list[list[float]] = []
    for value, measure in kept:
        if merged and _close(merged[-1][0], value):
            merged[-1][1] += measure
        else:
            merged.append([value, measure])
    # tuple() of a list allocates the exact size; from a generator it grows
    # the tuple by resizing, which fills CPython's tuple free lists.
    return tuple([(v, m) for v, m in merged])


@dataclass(frozen=True)
class Distribution:
    """Finite multiset of (value, measure) atoms, values sorted decreasing.

    Equal values (up to MERGE_REL_TOL, relative) are merged by summing
    measures; zero values and zero measures are dropped.
    """

    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms))

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms], dtype=float)

    @cached_property
    def measures(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms], dtype=float)

    @cached_property
    def total_measure(self) -> float:
        return float(self.measures.sum()) if self.atoms else 0.0

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def max_value(self) -> float:
        return self.atoms[0][0] if self.atoms else 0.0

    def scale(self, c: float) -> "Distribution":
        """Distribution of c * x; values scale by |c|."""
        if c == 0.0:
            return Distribution()
        return Distribution(tuple((abs(c) * v, m) for v, m in self.atoms))


def rearrange(d: Distribution) -> list[tuple[float, float, float]]:
    """Decreasing profile [(value, start, end)] with consecutive breakpoints."""
    out: list[tuple[float, float, float]] = []
    t = 0.0
    for value, measure in d.atoms:
        out.append((value, t, t + measure))
        t += measure
    return out


@dataclass(frozen=True)
class Seq:
    """Finitely supported real sequence, read also as the dyadic step function
    sum_k a_k * chi_{[2**k, 2**(k+1))}; zero coefficients are dropped."""

    coeffs: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {int(k): float(v) for k, v in self.coeffs.items() if v != 0.0}
        # Block measures 2**k are exact floats only in this range.
        for k in (min(clean, default=0), max(clean, default=0)):
            if abs(k) > 1000:
                raise ValueError(f"block index {k} outside the exact-measure range")
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def unit(cls, k: int) -> "Seq":
        return cls({k: 1.0})

    def __getitem__(self, k: int) -> float:
        return self.coeffs.get(k, 0.0)

    def items(self) -> Iterator[tuple[int, float]]:
        """Coefficients in increasing index order (deterministic iteration)."""
        for k in sorted(self.coeffs):
            yield k, self.coeffs[k]

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def k_min(self) -> int:
        if not self.coeffs:
            raise ValueError("zero sequence has no support")
        return min(self.coeffs)

    @property
    def k_max(self) -> int:
        if not self.coeffs:
            raise ValueError("zero sequence has no support")
        return max(self.coeffs)

    def sup_norm(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __add__(self, other: "Seq") -> "Seq":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Seq(out)

    def __sub__(self, other: "Seq") -> "Seq":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) - v
        return Seq(out)

    def __neg__(self) -> "Seq":
        return Seq({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, c: float) -> "Seq":
        return Seq({k: c * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def distribution(self) -> Distribution:
        # A list, not a generator: see _canonical_atoms.
        atoms = [(abs(v), math.ldexp(1.0, k)) for k, v in sorted(self.coeffs.items())]
        return Distribution(tuple(atoms))

    def to_positioned(self) -> "PositionedStep":
        pieces = tuple(
            (math.ldexp(1.0, k), math.ldexp(1.0, k + 1), v)
            for k, v in sorted(self.coeffs.items())
        )
        return PositionedStep(pieces)


# The benchmark's span tracer wraps `steps.DyadicStep.distribution`; this name
# exists only for that hook, until the tracer is pointed at `Seq`.
DyadicStep = Seq


def dyadic_embed(a: Seq) -> Seq:
    """Sequence -> step function with a_k on the block [2**k, 2**(k+1)).

    A block sequence already is that step function, so a is returned."""
    return a


@dataclass(frozen=True)
class PositionedStep:
    """Finite step function with explicit placement: pieces (left, right, value).

    Pieces are half-open [left, right), pairwise disjoint, with left >= 0.
    """

    pieces: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        pcs = sorted(
            (float(l), float(r), float(v)) for l, r, v in self.pieces if v != 0.0
        )
        for left, right, _ in pcs:
            if left < 0:
                raise ValueError(f"piece with left={left} < 0")
            if not right > left:
                raise ValueError(f"empty or inverted piece [{left}, {right})")
        for (l1, r1, _), (l2, _, _) in zip(pcs, pcs[1:]):
            if l2 < r1:
                raise ValueError(f"overlapping pieces at {l2} < {r1}")
        object.__setattr__(self, "pieces", tuple(pcs))


def dyadic_average(x: PositionedStep) -> Seq:
    """Block-averaging projection: coefficient 2**(-k) * integral over block k.

    A piece touching t=0 meets every block below its right endpoint and has no
    finite dyadic representation, so it is rejected.
    """
    sums: dict[int, float] = {}
    for left, right, value in x.pieces:
        if left == 0.0:
            raise ValueError(
                "piece touching t=0 meets infinitely many dyadic blocks"
            )
        k_lo = floor_log2(left)
        k_hi = _last_block_below(right)
        for k in range(k_lo, k_hi + 1):
            block_lo = math.ldexp(1.0, k)
            block_hi = math.ldexp(1.0, k + 1)
            overlap = min(right, block_hi) - max(left, block_lo)
            if overlap > 0:
                sums[k] = sums.get(k, 0.0) + value * overlap
    return Seq({k: math.ldexp(s, -k) for k, s in sums.items()})


def disjoint_sum(coeffs: Sequence[float], d: Distribution) -> Distribution:
    """Distribution of sum_k a_k * x_k with the x_k disjointly supported copies
    of a function with distribution d."""
    atoms: list[tuple[float, float]] = []
    for c in coeffs:
        if c == 0.0:
            continue
        ac = abs(c)
        atoms.extend((ac * v, m) for v, m in d.atoms)
    return Distribution(tuple(atoms))


# Elements (rows x copies x base atoms) of the disjoint sums built at once.
_CHUNK_ELEMS = 4096


def _disjoint_sum_chunks(
    coeffs: np.ndarray, d: Distribution
) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """Row i of coeffs (rows x copies) as the (values, measures) arrays of
    disjoint_sum(coeffs[i], d), bit for bit, yielded in chunks of rows of at
    most about _CHUNK_ELEMS products.

    Every product is checked before the first chunk, so a non-finite one
    raises disjoint_sum's ValueError before any chunk is used.
    """
    n_rows, n_copies = coeffs.shape
    values, measures = d.values, np.tile(d.measures, n_copies)
    # The largest product of a row is its largest |a_j| times the largest value.
    top = np.maximum(coeffs.max(axis=1, initial=0.0), -coeffs.min(axis=1, initial=0.0))
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(top * d.max_value())
        if bad.any():
            row = (np.abs(coeffs[int(np.argmax(bad))])[:, None] * values).ravel()
            j = int(np.argmax(~np.isfinite(row)))
            raise ValueError(f"non-finite atom ({float(row[j])}, {float(measures[j])})")
    width = measures.size
    step = max(1, _CHUNK_ELEMS // width)
    for start in range(0, n_rows, step):
        # No name binds the products: they are freed before the chunk is used.
        yield _canonical_rows(
            (np.abs(coeffs[start : start + step])[:, :, None] * values).reshape(-1, width), measures
        )


def _canonical_rows(
    values: np.ndarray, measures: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row i is the (values, measures) arrays of _canonical_atoms(zip(values[i],
    measures)), bit for bit, for finite non-negative values and positive
    measures.

    Each row is sorted (stable, descending, zeros last) and a value starts a
    group where it is not close to its left neighbour.  The merge rule
    compares a value with its group's first value, not its neighbour, so
    each row is verified against that rule; a row that fails it is merged by
    _canonical_atoms.  Group measures are summed left to right, as
    _canonical_atoms sums them.
    """
    width = measures.size
    order = np.argsort(-values, axis=1, kind="stable")
    v = np.take_along_axis(values, order, axis=1).ravel()
    m = measures[order].ravel()
    live = v > 0.0
    head = live.copy()
    head[1:] &= v[:-1] - v[1:] > MERGE_REL_TOL * v[:-1]
    head[::width] = live[::width]
    # Group g holds the live positions from heads[g] up to the next head.
    heads = np.flatnonzero(head)
    group = np.cumsum(head) - 1
    head_v = v[heads]
    # Each follower must be close to its group's head ...
    follow = np.flatnonzero(live & ~head)
    lead = head_v[group[follow]]
    strays = follow[~(lead - v[follow] <= MERGE_REL_TOL * lead)]
    # ... and each later head of a row not close to the head before it.
    head_row = heads // width
    later = np.flatnonzero(head_row[1:] == head_row[:-1]) + 1
    prev = head_v[later - 1]
    merges = later[~(prev - head_v[later] > MERGE_REL_TOL * prev)]
    failed = np.zeros(values.shape[0], dtype=bool)
    failed[strays // width] = True
    failed[head_row[merges]] = True
    sizes = np.bincount(group[live], minlength=heads.size)
    sums = m[heads]
    for rank in range(1, int(sizes.max(initial=1))):
        more = sizes > rank
        sums[more] += m[heads[more] + rank]
    bounds = np.searchsorted(heads, np.arange(values.shape[0] + 1) * width)
    rows = []
    for i in range(values.shape[0]):
        if failed[i]:
            ref = Distribution(tuple(zip(values[i].tolist(), measures.tolist())))
            rows.append((ref.values, ref.measures))
        else:
            rows.append((head_v[bounds[i] : bounds[i + 1]], sums[bounds[i] : bounds[i + 1]]))
    return rows


def dyadic_sample(d: Distribution) -> Distribution:
    """Distribution of sum_k x*(2**k) * chi_{[2**k, 2**(k+1))}.

    Blocks below the first breakpoint all carry the top value and merge into a
    single atom of measure 2**(K+1), so the result is finite and exact even
    though the sampled sequence has unbounded support toward -inf.
    """
    if d.is_zero:
        return Distribution()
    profile = rearrange(d)
    top_value = profile[0][0]
    first_break = profile[0][2]
    total = profile[-1][2]
    ends = [end for _, _, end in profile]

    k1 = _last_block_below(first_break)
    atoms: list[tuple[float, float]] = [(top_value, math.ldexp(1.0, k1 + 1))]
    k_top = _last_block_below(total)
    for k in range(k1 + 1, k_top + 1):
        t = math.ldexp(1.0, k)
        i = bisect.bisect_right(ends, t)
        atoms.append((profile[i][0], t))
    return Distribution(tuple(atoms))
