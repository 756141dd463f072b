"""The seeding of the random probes: `steps._seeded_generators` against
numpy's own Generator(PCG64(SeedSequence((*prefix, i)))), and both suites
that draw through it against loops that build one SeedSequence per probe."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rispect
from rispect.spectra import RANDOM_MAX_LEN, ProbeConfig, _random_probes
from rispect.steps import _seeded_generators
from rispect.witness import standard_probes


def numpy_generators(prefix: tuple, n: int) -> list:
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence((*prefix, i)))) for i in range(n)]


def as_numpy(p: int) -> np.integer:
    return np.int64(p) if p < 2**63 else np.uint64(p)


# 0 and 7777 are the tags the suites use; entries from 2**32 up take several words.
entries = st.one_of(st.sampled_from([0, 7777, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


@st.composite
def prefixes(draw) -> tuple:
    raw = draw(st.lists(entries, min_size=1, max_size=3))
    return tuple(as_numpy(p) if draw(st.booleans()) else p for p in raw)


@settings(max_examples=100)
@given(prefix=prefixes(), n=st.integers(0, 300))
@example(prefix=(0,), n=300)
@example(prefix=(0x5EED, 7777), n=40)
@example(prefix=(2**32, 7777), n=3)
@example(prefix=(2**64 - 1, 0, 2**32 + 1), n=5)
@example(prefix=(as_numpy(2**40), np.uint32(7777)), n=5)
def test_seeded_generators_equal_numpy_construction(prefix, n):
    got = _seeded_generators(prefix, n)
    assert type(got) is type(_seeded_generators((0,), 1))  # one lazy iterator type, n = 0 too
    got = list(got)
    assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in numpy_generators(prefix, n)]


@pytest.mark.parametrize("bad", [-1, -(2**40), np.int64(-3), 1.5, 2.0, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("at", [0, 1])
def test_bad_prefix_entry_raises_as_seed_sequence(bad, at):
    """A bare int(p) would take 2.0 and 1.5, and p & 0xFFFFFFFF would wrap -1."""
    prefix = (5, 7777)[:at] + (bad, 3)
    with pytest.raises(Exception) as want:
        np.random.SeedSequence((*prefix, 0))
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        _seeded_generators(prefix, 4)
    # No generator, no SeedSequence: the suites drew none for n_random = 0.
    assert list(_seeded_generators(prefix, 0)) == []


@pytest.mark.parametrize("entry", ["12", (1, 2)], ids=repr)
def test_prefix_entries_other_than_integers_raise(entry):
    """SeedSequence also reads strings and nested sequences; the helper takes integers only."""
    with pytest.raises(TypeError, match=r"^integer seed entries required, got "):
        _seeded_generators((entry, 0), 3)


def reference_random_probes(cfg: ProbeConfig, lam_index: int) -> tuple[list, list]:
    """_random_probes drawn with one SeedSequence per probe."""
    starts, rows = [], []
    for i in range(cfg.n_random):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, lam_index, i))))
        length = min(int(rng.integers(1, RANDOM_MAX_LEN + 1)), cfg.k_hi - cfg.k_lo + 1)
        start = int(rng.integers(cfg.k_lo, cfg.k_hi - length + 2))
        vals = rng.standard_normal(length)
        if vals.any():
            starts.append(start)
            rows.append(vals.tolist() + [0.0] * (RANDOM_MAX_LEN + 1 - length))
    return starts, rows


def reference_standard_probes(n_copies: int, theta: float, seed: int, n_random: int) -> np.ndarray:
    """standard_probes drawn with one SeedSequence per random probe."""
    randoms = [g.standard_normal(n_copies) for g in numpy_generators((seed, 7777), n_random)]
    return np.vstack([standard_probes(n_copies, theta, seed, 0), *randoms])


@pytest.mark.parametrize(
    "cfg, lam_index",
    [
        (ProbeConfig(), 0),
        (ProbeConfig(seed=1), 3),
        (ProbeConfig(k_lo=-4, k_hi=4, n_random=60, seed=1), 1),  # 9 blocks: lengths cut
        (ProbeConfig(k_lo=7, k_hi=7, n_random=30, seed=2**64 - 1), 0),
        (ProbeConfig(n_random=0), 0),
    ],
)
def test_random_probes_equal_per_probe_seeding(cfg, lam_index):
    firsts, coeffs = _random_probes(cfg, lam_index)
    assert (firsts.tolist(), coeffs.tolist()) == reference_random_probes(cfg, lam_index)


@pytest.mark.parametrize(
    "n_copies, theta, seed, n_random", [(17, 0.5, 0x5EED, 40), (6, 0.25, 1, 100), (3, 0.0, 2**40, 7), (4, 1.0, 5, 0)]
)
def test_standard_probes_equal_per_probe_seeding(n_copies, theta, seed, n_random):
    got = standard_probes(n_copies, theta, seed, n_random)
    want = reference_standard_probes(n_copies, theta, seed, n_random)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_suites_build_no_seed_sequence_per_probe(monkeypatch):
    """The hash runs once over all probes; the counter does see a
    per-probe construction."""
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    cfg = ProbeConfig(n_random=200, seed=1)
    _random_probes(cfg, 0)
    standard_probes(17, 0.5, 1, 40)
    assert built == []
    reference_random_probes(cfg, 0)
    assert len(built) == 200


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """The benchmark's setup time covers a fresh `import rispect.cli`;
    numpy.random loads only when a suite is drawn."""
    src = str(Path(rispect.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, rispect.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path)
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
