"""Seeded workload generation: run configurations and the commands run on them.

The workload seed draws every free input (rates, witness parameters, each
config's own `seed` field); the program only ever sees the generated config
files.  The same seed always gives the same configs and command list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

WHY = {
    "probe-lorentz": (
        "README-scale probe and residuals on Lorentz q=1, piecewise psi: "
        "many small block norms, time in steps canonicalisation and lorentz_norm"
    ),
    "probe-orlicz": (
        "probe and residuals on Orlicz power_log(2,1) at reduced scale: "
        "time in Luxemburg bisection, so root-finding changes show apart from window changes"
    ),
    "report-sweep": (
        "128 short indices/spectrum/witness/report queries on 8 spaces: few large "
        "witness norms, Orlicz block weights, CLI parsing and emission; no window scans"
    ),
}
WORKLOADS = tuple(WHY)

_LORENTZ_QUARTER = {
    "type": "lorentz",
    "q": 1,
    "psi": {"kind": "piecewise_power", "a0": 0.25, "a_inf": 0.75},
}
_ORLICZ_POWER_LOG = {"type": "orlicz", "N": {"kind": "power_log", "a": 2, "c": 1}}

# The eight report-sweep spaces: every function kind on the Lorentz side
# (and q=2), and on the Orlicz side one closed-form norm (pure_power) and two
# bisection norms, power_log also needing bisection for its block weights.
SWEEP_SPACES = {
    "lorentz-l1": {"type": "lorentz", "q": 1, "psi": {"kind": "pure_power", "a": 1}},
    "lorentz-two": {"type": "lorentz", "q": 2, "psi": {"kind": "pure_power", "a": 1}},
    "lorentz-quarter": _LORENTZ_QUARTER,
    "lorentz-powerlog": {
        "type": "lorentz",
        "q": 1,
        "psi": {"kind": "power_log", "a": 0.5, "c": 1},
    },
    "lorentz-table": {
        "type": "lorentz",
        "q": 1,
        "psi": {"kind": "table", "points": [[0.25, 0.5], [1.0, 1.0], [4.0, 2.0], [16.0, 4.0]]},
    },
    "orlicz-square": {"type": "orlicz", "N": {"kind": "pure_power", "a": 2}},
    "orlicz-piecewise": {
        "type": "orlicz",
        "N": {"kind": "piecewise_power", "a0": 1.5, "a_inf": 3},
    },
    "orlicz-powerlog": _ORLICZ_POWER_LOG,
}
SWEEP_NMAX = (16, 32, 64, 128)
SWEEP_COMMANDS = ("indices", "spectrum", "witness", "report")
# Witness exponents stay in theta >= 0.2 (p <= 5).  Near theta = 0 (below
# about 0.002, p above 500) lp_norm overflows to inf and `rispect witness`
# ends in a ZeroDivisionError traceback; the workloads must not fail.
WITNESS_THETA = (0.2, 1.0)
# Witness cost grows with the copy count, and witness commands sit at the
# latency median: a narrow range keeps the seed from moving cmd_p50_s.
WITNESS_COPIES = (15, 17)
WITNESS_RANDOM_PROBES = 40


@dataclass(frozen=True)
class Command:
    id: str
    sub: str
    config: str


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict
    commands: tuple

    def argv(self, cmd: Command, config_dir) -> list:
        return [cmd.sub, "--config", str(config_dir / f"{cmd.config}.json")]


def _rates(rng: random.Random) -> list:
    return sorted(2.0 ** rng.random() for _ in range(2))


def _probe_config(rng, space, k_radius, n_max, probe_k_radius, n_list, n_random) -> dict:
    return {
        "space": space,
        "k_radius": k_radius,
        "n_max": n_max,
        "lambda_grid": _rates(rng),
        "n_list": list(n_list),
        "probe_k_radius": probe_k_radius,
        "n_random": n_random,
        "seed": rng.randrange(2**32),
    }


def _probe_workload(name, config) -> Workload:
    commands = tuple(Command(f"{sub}/{name}", sub, name) for sub in ("probe", "residuals"))
    return Workload(name, {name: config}, commands)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "probe-lorentz":
        cfg = _probe_config(rng, _LORENTZ_QUARTER, 256, 64, 128, (8, 16, 32, 64), 200)
        return _probe_workload(name, cfg)
    if name == "probe-orlicz":
        cfg = _probe_config(rng, _ORLICZ_POWER_LOG, 128, 32, 32, (8, 16, 32), 50)
        return _probe_workload(name, cfg)
    if name == "report-sweep":
        configs = {}
        commands = []
        for space_name, space in SWEEP_SPACES.items():
            for n_max in SWEEP_NMAX:
                key = f"{space_name}-n{n_max}"
                configs[key] = {
                    "space": space,
                    "k_radius": 4 * n_max,
                    "n_max": n_max,
                    "lambda_grid": _rates(rng),
                    "probe_k_radius": n_max,  # the default, 128, exceeds k_radius at n_max 16
                    "seed": rng.randrange(2**32),
                    "witness": {
                        "theta": rng.uniform(*WITNESS_THETA),
                        "n_copies": rng.randint(*WITNESS_COPIES),
                        "n_random": WITNESS_RANDOM_PROBES,
                    },
                }
                commands.extend(Command(f"{sub}/{key}", sub, key) for sub in SWEEP_COMMANDS)
        return Workload(name, configs, tuple(commands))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
