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
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "Distribution",
    "Seq",
    "PositionedStep",
    "rearrange",
    "dyadic_embed",
    "dyadic_average",
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


@dataclass(frozen=True)
class Distribution:
    """Finite multiset of (value, measure) atoms, values sorted decreasing.

    Built from any iterable of (value, measure) pairs, or an array of them.
    Zero values and zero measures are dropped and equal values (up to
    MERGE_REL_TOL, relative) merged by summing measures, as _canonical_rows
    sets out; `values` and `measures` are the atoms as arrays.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    values: np.ndarray = field(init=False, repr=False, compare=False)
    measures: np.ndarray = field(init=False, repr=False, compare=False)

    @np.errstate(over="ignore")  # merged measures that overflow are refused below
    def __post_init__(self) -> None:
        atoms = self.atoms
        if not isinstance(atoms, np.ndarray):
            atoms = [(float(v), float(m)) for v, m in atoms]
        pairs = np.array(atoms, dtype=float).reshape(-1, 2)
        # A NaN fails both tests, as it fails every comparison.
        if not (pairs.min(initial=0.0) >= 0.0 and pairs.max(initial=0.0) < math.inf):
            ok = ((pairs >= 0.0) & (pairs < math.inf)).all(axis=1)
            value, measure = pairs[int(np.argmin(ok))].tolist()
            if value < 0:
                raise ValueError(f"negative level value {value}")
            if measure < 0:
                raise ValueError(f"negative measure {measure}")
            raise ValueError(f"non-finite atom ({value}, {measure})")
        values, measures, _ = _canonical_rows(pairs[None, :, 0], pairs[:, 1])
        if not measures.max(initial=0.0) < math.inf:
            raise ValueError(f"merged measure at level value {values[measures.argmax()]} overflows")
        # tuple() of a list allocates the exact size; from an iterator it grows
        # the tuple by resizing, which fills CPython's tuple free lists.
        object.__setattr__(self, "atoms", tuple([*zip(values.tolist(), measures.tolist())]))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "measures", measures)

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
        ks = sorted(self.coeffs)
        values = np.abs([self.coeffs[k] for k in ks])
        return Distribution(np.column_stack((values, np.ldexp(1.0, np.array(ks, dtype=int)))))

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


# Elements per row-kernel evaluation (rows x atoms) and per chunk of disjoint
# sums (rows x copies x base atoms), so a chunk's rows of one atom count are
# normed at once: of 2**12 to 2**15, 2**13 traded time against memory best.
_NORM_ELEMS = 2**13


def _disjoint_sum_chunks(
    coeffs: np.ndarray, d: Distribution
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row i of coeffs (rows x copies) as the canonical atoms of the
    distribution of sum_j coeffs[i, j] * x_j, the x_j disjointly supported
    copies of a function with distribution d, yielded in chunks of rows of at
    most about _NORM_ELEMS products, each chunk as _canonical_rows gives it.

    Every product is checked before the first chunk, so a non-finite one
    raises Distribution's ValueError before any chunk is used.
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
    step = max(1, _NORM_ELEMS // max(width, 1))
    for start in range(0, n_rows, step):
        chunk = np.abs(coeffs[start : start + step])
        # No name binds the products: they are freed before the chunk is used.
        yield _canonical_rows((chunk[:, :, None] * values).reshape(len(chunk), width), measures)


def _canonical_rows(
    values: np.ndarray, measures: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical atoms of each row zip(values[i], measures[i]), for finite
    non-negative values and measures, as flat (values, measures, offsets):
    row i's are values and measures [offsets[i]:offsets[i + 1]].  measures is
    one row per value row, or one row shared by all.

    The atoms of a row are sorted by decreasing value (stable), those with a
    zero value or measure dropped, and merged by one rule: a value joins the
    group before it when it is within MERGE_REL_TOL of that group's first
    value, its head, and heads a new group otherwise.  A group's measures are
    summed left to right.

    A value v not close to its left neighbour u is a head: the head h of
    u's group is close to u, so h - v = (h - u) + (u - v) exactly when
    v >= h/2 (v is far from h otherwise), and the rounded MERGE_REL_TOL * h
    exceeds the rounded MERGE_REL_TOL * u by at most h - u.  So neighbours
    propose heads, and then, until there is none, the first value of each
    group not close to its head becomes a head.
    """
    n_rows, width = values.shape
    if not width:
        return np.zeros(0), np.zeros(0), np.zeros(n_rows + 1, dtype=int)
    if not measures.all():  # an atom of measure 0 reads value 0
        values = np.where(measures > 0.0, values, 0.0)
    order = (-values).argsort(axis=1, kind="stable")
    flat = (order + np.arange(0, values.size, width)[:, None]).ravel()
    v = values.ravel()[flat]
    m = measures.ravel()[flat] if measures.ndim == 2 else measures[order].ravel()
    live = v > 0.0
    head = live.copy()
    head[1:] &= v[:-1] - v[1:] > MERGE_REL_TOL * v[:-1]
    head[::width] = live[::width]
    while True:
        heads = head.nonzero()[0]
        group = head.cumsum() - 1
        follow = (live & ~head).nonzero()[0]
        lead = v[heads[group[follow]]]
        strays = follow[lead - v[follow] > MERGE_REL_TOL * lead]
        if not strays.size:
            break
        # Only a group's first stray is sure to head: the later ones are
        # compared with it next.
        g = group[strays]
        head[strays[np.r_[True, g[1:] != g[:-1]]]] = True
    sizes = np.bincount(group[live], minlength=heads.size)
    sums = m[heads]
    # Groups of several atoms, largest first: those with an atom at each rank are a prefix.
    big = np.flatnonzero(sizes > 1)[np.argsort(-sizes[sizes > 1], kind="stable")]
    firsts, ranked = heads[big], sums[big]
    counts = np.searchsorted(-sizes[big], -np.arange(1, sizes.max(initial=1)))
    for rank, n in enumerate(counts.tolist(), 1):
        ranked[:n] += m[firsts[:n] + rank]
    sums[big] = ranked
    return v[heads], sums, heads.searchsorted(np.arange(n_rows + 1) * width)


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


# Probe counts are refused above these bounds before anything is allocated.
# A random probe of a suite holds about 3 KB while its rate is scanned, so
# 10,000 take about 30 MB.  A witness holds its (n_copies + 3 + n_random) x
# n_copies coefficients as one float64 array: at most 2.6 million, 21 MB, at
# both bounds, and one distortion on them peaks at about 67 MB.
MAX_RANDOM = 10_000
MAX_COPIES = 256


def _seeded_generators(prefix: tuple, n: int) -> list:
    """[Generator(PCG64(SeedSequence((*prefix, i)))) for i in range(n)], bit for
    bit and with its errors: SeedSequence's hash runs once over the array of all i,
    as its constants do not depend on the entropy.  numpy.random loads here."""
    if n <= 0:
        return []
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):  # one state row, as PCG64 reads it by generate_state(4, np.uint64)
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    words = []  # the uint32 words of each prefix entry, low first, then i and zeros
    for p in prefix:
        if not isinstance(p, (int, np.integer)) or p < 0:
            SeedSequence((p,))  # raises SeedSequence's error for the entry
            raise TypeError(f"integer seed entries required, got {p!r}")
        words += [int(p) >> s & 0xFFFFFFFF for s in range(0, int(p).bit_length() or 1, 32)]
    words = [np.full(n, w, np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    words += [np.zeros(n, np.uint32)] * (4 - len(words))
    a, b = [0x43B0D7E5, 0x931E8875], [0x8B51F9DD, 0x58F38DED]  # hash constants, multipliers

    def hashmix(value: np.ndarray, c: list) -> np.ndarray:
        value, c[0] = value ^ c[0], c[0] * c[1] & 0xFFFFFFFF
        value = value * c[0]
        return value ^ value >> 16

    pool = [hashmix(w, a) for w in words[:4]] + words[4:]  # four, then the words left to mix in
    for src, dst in [(s, d) for s in range(len(pool)) for d in range(4) if s != d]:
        r = pool[dst] * 0xCA01F9DD - hashmix(pool[src], a) * 0x4973F715
        pool[dst] = r ^ r >> 16
    state = np.stack([hashmix(pool[j % 4], b) for j in range(8)], axis=1)
    return [Generator(PCG64(Seeded(s))) for s in state.astype("<u4").view("<u8").astype(np.uint64)]
