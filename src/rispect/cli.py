"""Command-line interface: one binary, subcommands for each report type.

All inputs come from a JSON config file (--config) with a few flag overrides.
Outputs are deterministic: floats are serialized with 17 significant digits,
iteration orders are sorted, and random probes are seeded, so reruns with the
same config are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .indices import IndexSet, analytic_indices, block_weights, estimate_indices
from .spaces import (
    NumericalError,
    SpaceSpec,
    SpecJSONError,
    _number,
    space_from_json,
    space_to_json,
)
from .spectra import (
    ProbeConfig,
    ProbeResult,
    approx_eigenvalue_set,
    classify_lambda,
    probe_lower_bounds,
    residual_curve,
)
from .steps import MAX_COPIES, MAX_RANDOM
from .witness import build_witness, distortion, standard_probes

__all__ = ["main", "ConfigError", "RunConfig"]

PROBE_CSV_HEADER = "lambda,theta,min_ratio,n,residual,argmin_k"
RESIDUAL_CSV_HEADER = "lambda,theta,n,residual,argmin_k"


class ConfigError(ValueError):
    """Bad run configuration; message names the offending field."""


@dataclass(frozen=True)
class WitnessConfig:
    theta: float
    n_copies: int = 16
    windows: tuple[int, ...] = (8, 32)
    k: Optional[int] = None
    n_random: int = 100


@dataclass(frozen=True)
class RunConfig:
    space: SpaceSpec
    k_radius: int = 256
    n_max: int = 64
    lambda_grid: tuple[float, ...] = ()
    n_list: tuple[int, ...] = (8, 16, 32, 64)
    probe_k_radius: int = 128
    n_random: int = 200
    seed: int = 0x5EED
    witness: Optional[WitnessConfig] = None

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.k_radius < 4 * self.n_max:
            raise ConfigError(
                f"k_radius={self.k_radius} must be >= 4 * n_max = {4 * self.n_max}"
            )
        if self.k_radius > 1000:
            raise ConfigError("k_radius above 1000 leaves the exact block range")
        if self.probe_k_radius < 1 or self.probe_k_radius > self.k_radius:
            raise ConfigError("probe_k_radius must lie in [1, k_radius]")
        for lam in self.lambda_grid:
            if not lam > 0:
                raise ConfigError(f"lambda_grid entries must be positive, got {lam}")
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")
        for n in self.n_list:
            if n < 1:
                raise ConfigError(f"n_list entries must be >= 1, got {n}")
            if self.probe_k_radius + 2 * n + 2 > 1000:
                raise ConfigError(
                    f"n_list entry {n} needs probe_k_radius + 2*n + 2 <= 1000 "
                    "to stay in the exact block range"
                )
        if not 0 <= self.n_random <= MAX_RANDOM:
            raise ConfigError(f"n_random must lie in [0, {MAX_RANDOM}], got {self.n_random}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer")


# An optional config field absent from the JSON takes the default of the
# config dataclass field of the same name.
def _default(cls, name: str):
    return cls.__dataclass_fields__[name].default


def _opt_int(obj: dict, name: str, cls) -> int:
    v = obj.get(name, _default(cls, name))
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {name} must be an integer, got {v!r}")
    return v


def _number_list(obj: dict, name: str, cls) -> tuple:
    v = obj.get(name, list(_default(cls, name)))
    if not isinstance(v, list):
        raise ConfigError(f"field {name} must be a list of numbers, got {v!r}")
    for i, x in enumerate(v):
        _number(x, f"{name}[{i}]")
    return tuple(v)


def _int_list(obj: dict, name: str, cls) -> tuple[int, ...]:
    out = _number_list(obj, name, cls)
    for i, x in enumerate(out):
        if not isinstance(x, int):
            raise ConfigError(f"field {name}[{i}] must be an integer, got {x!r}")
    return out


def _window_start(k: Optional[int], window_n: int) -> int:
    """First block of a witness window: k, or by default -(window_n + 40)."""
    return k if k is not None else -(window_n + 40)


def _parse_witness(obj) -> WitnessConfig:
    if not isinstance(obj, dict):
        raise ConfigError("field witness must be an object")
    if "theta" in obj:
        theta = _number(obj["theta"], "theta")
    elif "lam" in obj:
        lam = _number(obj["lam"], "lam")
        if not lam > 0:
            raise ConfigError(f"witness lam must be positive, got {lam}")
        theta = math.log2(lam)
    elif "p" in obj:
        p = obj["p"]
        if p == "inf":
            theta = 0.0
        else:
            p = _number(p, "p")
            if not p > 0:
                raise ConfigError(f"witness p must be positive, got {p}")
            theta = 1.0 / p
    else:
        raise ConfigError("field witness needs one of theta, lam, p")
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"witness theta={theta} outside [0, 1]")
    k = obj.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
        raise ConfigError(f"field witness.k must be an integer, got {k!r}")
    windows = _int_list(obj, "windows", WitnessConfig)
    for n in windows:
        if n < 1:
            raise ConfigError(f"witness windows entries must be >= 1, got {n}")
        start = _window_start(k, n)
        if start < -1000 or start + n > 1000:
            raise ConfigError(
                f"witness window {n} at k={start} leaves the exact block range [-1000, 1000]"
            )
    n_copies = _opt_int(obj, "n_copies", WitnessConfig)
    if not 1 <= n_copies <= MAX_COPIES:
        raise ConfigError(f"witness n_copies must lie in [1, {MAX_COPIES}], got {n_copies}")
    n_random = _opt_int(obj, "n_random", WitnessConfig)
    if not 0 <= n_random <= MAX_RANDOM:
        raise ConfigError(f"witness n_random must lie in [0, {MAX_RANDOM}], got {n_random}")
    return WitnessConfig(theta=theta, n_copies=n_copies, windows=windows, k=k, n_random=n_random)


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if "space" not in raw:
        raise ConfigError("missing field space")
    try:
        space = space_from_json(raw["space"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    k_radius = _opt_int(raw, "k_radius", RunConfig)
    n_max = _opt_int(raw, "n_max", RunConfig)
    seed = _opt_int(raw, "seed", RunConfig)
    if overrides.krange is not None:
        k_radius = overrides.krange
    if overrides.nmax is not None:
        n_max = overrides.nmax
    if overrides.seed is not None:
        seed = overrides.seed

    witness = None
    if "witness" in raw:
        witness = _parse_witness(raw["witness"])

    return RunConfig(
        space=space,
        k_radius=k_radius,
        n_max=n_max,
        lambda_grid=tuple(float(x) for x in _number_list(raw, "lambda_grid", RunConfig)),
        n_list=_int_list(raw, "n_list", RunConfig),
        probe_k_radius=_opt_int(raw, "probe_k_radius", RunConfig),
        n_random=_opt_int(raw, "n_random", RunConfig),
        seed=seed,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Deterministic JSON / CSV emission.


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalError(f"cannot serialize non-finite number {x}")
    return format(x, ".17g")


def _json_text(obj) -> str:
    """obj as JSON text, one join per list or dict level.  Recursive, so kept
    private: a wrapper of the public to_json_text sees one call per document."""
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple)):  # plain floats skip the per-item dispatch
        fmt = _fmt_float if all(type(x) is float for x in obj) else _json_text
        return "[" + ",".join(map(fmt, obj)) + "]"
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + ":" + _json_text(v) for k, v in obj.items()]
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    return _json_text(obj)


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        try:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe: close stdout, or Python flushes it again at exit
            with contextlib.suppress(OSError):
                sys.stdout.close()
            raise ConfigError(f"cannot write output to stdout: {exc}") from exc
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from exc


def _config_echo(cfg: RunConfig) -> dict:
    """The run configuration, keyed and ordered by the RunConfig and
    WitnessConfig fields."""
    echo = {**vars(cfg), "space": space_to_json(cfg.space)}
    if cfg.witness is None:
        del echo["witness"]
    else:
        echo["witness"] = dict(vars(cfg.witness))
    return echo


def _index_json(ix: IndexSet, with_meta: bool = True) -> dict:
    out = dict(ix.as_dict())
    if with_meta and ix.meta:
        out["meta"] = ix.meta
    return out


def _estimate(cfg: RunConfig) -> IndexSet:
    w = block_weights(cfg.space, -cfg.k_radius, cfg.k_radius)
    return estimate_indices(w, cfg.n_max)


def cmd_indices(cfg: RunConfig) -> dict:
    return _indices_report(cfg, _estimate(cfg))


def _indices_report(cfg: RunConfig, est: IndexSet) -> dict:
    ana = analytic_indices(cfg.space)
    report = {
        "command": "indices",
        "config": _config_echo(cfg),
        "estimated": _index_json(est),
        "analytic": _index_json(ana) if ana is not None else None,
    }
    if ana is not None:
        report["delta"] = {
            name: est.as_dict()[name] - ana.as_dict()[name] for name in est.as_dict()
        }
    return report


def _interval_json_theta(iv) -> dict:
    return {"theta_lo": iv.lo, "theta_hi": iv.hi}


def _p_endpoint(p: float):
    return "inf" if math.isinf(p) else p


def cmd_spectrum(cfg: RunConfig) -> dict:
    return _spectrum_report(cfg, _estimate(cfg))


def _spectrum_report(cfg: RunConfig, est: IndexSet) -> dict:
    ana = analytic_indices(cfg.space)
    rep = approx_eigenvalue_set(est)
    report = {
        "command": "spectrum",
        "config": _config_echo(cfg),
        "indices": _index_json(est, with_meta=False),
        "analytic": _index_json(ana, with_meta=False) if ana is not None else None,
        "case": rep.case_tag,
        "eigen_set_theta": [_interval_json_theta(iv) for iv in rep.eigen_set],
        "frep_set_p": [
            {"p_lo": _p_endpoint(lo), "p_hi": _p_endpoint(hi)} for lo, hi in rep.frep_set
        ],
        "split_uncertain": rep.split_uncertain,
        "assuming_fundamental_type": ana is None,
        "sufficient_set": {
            "eigen_set_theta": [_interval_json_theta(iv) for iv in rep.eigen_set],
            "sufficient_only": True,
        },
        "classification": [
            {
                "lambda": lc.lam,
                "theta": lc.theta,
                "verdict": lc.verdict.value,
            }
            for lc in (classify_lambda(est, lam) for lam in sorted(cfg.lambda_grid))
        ],
    }
    return report


def _curve_rows(rc: ProbeResult, *extra: float) -> list[tuple]:
    """Rows (lambda, theta, *extra, n, residual, argmin_k) of a residual curve."""
    argmin = rc.meta["argmin"]
    return [(rc.lam, rc.theta, *extra, n, r, argmin[n]["k"]) for n, r in rc.residuals]


def _csv_text(header: str, rows: list[tuple]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else _fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_probe(cfg: RunConfig) -> str:
    if not cfg.lambda_grid:
        raise ConfigError("probe needs a nonempty lambda_grid")
    est = _estimate(cfg)
    pc = ProbeConfig(
        k_lo=-cfg.probe_k_radius,
        k_hi=cfg.probe_k_radius,
        n_values=cfg.n_list,
        n_random=cfg.n_random,
        seed=cfg.seed,
    )
    rows = []
    for pl in probe_lower_bounds(cfg.space, sorted(cfg.lambda_grid), pc, ix=est):
        rows += _curve_rows(pl.meta["residual_curve"], pl.min_ratio)
    return _csv_text(PROBE_CSV_HEADER, rows)


def cmd_residuals(cfg: RunConfig) -> str:
    if not cfg.lambda_grid:
        raise ConfigError("residuals needs a nonempty lambda_grid")
    k_search = range(-cfg.probe_k_radius, cfg.probe_k_radius + 1)
    rows = []
    for lam in sorted(cfg.lambda_grid):
        rows += _curve_rows(residual_curve(cfg.space, lam, cfg.n_list, k_search))
    return _csv_text(RESIDUAL_CSV_HEADER, rows)


def cmd_witness(cfg: RunConfig) -> dict:
    if cfg.witness is None:
        raise ConfigError("missing field witness")
    wc = cfg.witness
    lam = 2.0**wc.theta
    probes = standard_probes(wc.n_copies, wc.theta, cfg.seed, wc.n_random)
    results = []
    for window_n in wc.windows:
        k = _window_start(wc.k, window_n)
        fam = build_witness(cfg.space, lam, wc.n_copies, window_n, k)
        results.append(
            {
                "window_n": window_n,
                "k": k,
                "distortion": distortion(fam, probes),
            }
        )
    return {
        "command": "witness",
        "config": _config_echo(cfg),
        "theta": wc.theta,
        "p": _p_endpoint(math.inf if wc.theta == 0 else 1.0 / wc.theta),
        "n_copies": wc.n_copies,
        "results": results,
    }


def cmd_report(cfg: RunConfig) -> dict:
    est = _estimate(cfg)
    report = {
        "command": "report",
        "config": _config_echo(cfg),
        "indices": _indices_report(cfg, est),
        "spectrum": _spectrum_report(cfg, est),
    }
    if cfg.witness is not None:
        report["witness"] = cmd_witness(cfg)
    return report


def _json_line(report: dict) -> str:
    return to_json_text(report) + "\n"


# name -> (help, handler returning the output text).  Each handler looks its
# cmd_* function up when it runs, so that a rebound module attribute is used.
_COMMANDS = {
    "indices": ("estimate the six dilation indices", lambda cfg: _json_line(cmd_indices(cfg))),
    "spectrum": (
        "assemble eigenvalue/frep intervals and classify lambdas",
        lambda cfg: _json_line(cmd_spectrum(cfg)),
    ),
    "probe": ("CSV of probe lower bounds and window residuals", lambda cfg: cmd_probe(cfg)),
    "residuals": ("CSV of window residual curves", lambda cfg: cmd_residuals(cfg)),
    "witness": (
        "distortion of disjoint-copy witness families",
        lambda cfg: _json_line(cmd_witness(cfg)),
    ),
    "report": ("combined JSON report", lambda cfg: _json_line(cmd_report(cfg))),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged, so it is shared; the cache saves time only for callers that
    run main more than once in one process (tests, benchmarks, library
    code), not for a shell invocation."""
    parser = argparse.ArgumentParser(
        prog="rispect",
        description="Dilation indices and doubling-operator spectra of "
        "rearrangement-invariant spaces",
        epilog="commands:\n"
        + "\n".join(f"  {name:<10} {help_text}" for name, (help_text, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="see commands below")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--nmax", type=int, default=None, help="override n_max")
    parser.add_argument("--krange", type=int, default=None, help="override k_radius")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        text = _COMMANDS[args.command][1](cfg)
        _write_out(text, args.out)
    except (ConfigError, SpecJSONError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
