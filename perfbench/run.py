"""Benchmark of the rispect command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload probe-lorentz --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one at a time

A run generates the workload's config files from --seed, times the fresh-
interpreter set-up, then calls `rispect.cli.main` in-process on the
workload's commands, pass after pass, until --seconds are used (at least
two passes).  Every time it reports is normalised to a reference host speed
(`hostspeed.py`): a shared host's own speed swings by a third from minute to
minute, which would swamp any change in the program.  Outputs are checked
after the timed region: exit codes, byte-identity across passes, shape and
(at the default seed) values against the reference outputs, and, at every
seed, values against a 40-digit oracle.  With --trace 1 the run makes one
untraced and one traced pass instead and reports per-layer metrics.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 when a check failed and 2 when the
program cannot be loaded at all.
"""

from __future__ import annotations

import os

# np.polyfit in estimate_indices reaches LAPACK: keep every BLAS single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 2
# Set-up interpreters per run, each paired with a reference interpreter.
SETUP_REPEATS = 15
# Host speed samples on each side of a command's own, so that a command
# shorter than the sampling interval still has some.
LATENCY_PAD = 4
ORACLE_NOTE = 1e-10
# Largest relative error against the 40-digit oracle that still passes.
# Residuals agree to about 1e-12 (Luxemburg bisection tolerance).  Index
# estimates get 1e-6: `orlicz_inverse` stops bisecting before it converges
# for large k, which leaves orlicz-powerlog-n128 beta/beta_inf off by 4.6e-7.
ORACLE_TOL = {"residual": 1e-9, "index": 1e-6}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_SNIPPET = """
import argparse, sys
sys.path.insert(0, sys.argv[1])
from rispect.cli import load_config
flags = argparse.Namespace(krange=None, nmax=None, seed=None)
for path in sys.argv[2:]:
    load_config(path, flags)
"""


class ProgramMissing(RuntimeError):
    """The checkout holds no loadable rispect package."""


def load_program():
    if not (SRC / "rispect" / "cli.py").is_file():
        raise ProgramMissing(f"no rispect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("rispect.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import rispect.cli: {exc}") from exc
    if Path(cli.__file__).resolve().parent != (SRC / "rispect").resolve():
        raise ProgramMissing(f"rispect.cli imported from {cli.__file__}, not from {SRC}")
    return cli


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    # --git-dir keeps git from searching the directories above the checkout.
    argv = ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"]
    with contextlib.suppress(OSError):
        proc = subprocess.run(argv, capture_output=True, text=True, stdin=subprocess.DEVNULL)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def write_configs(wl, config_dir: Path) -> list:
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in wl.configs.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def interpreter_seconds(argv: list) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(config_paths: list) -> tuple[list, list]:
    """Wall times of fresh interpreters that import rispect.cli and load every config.

    Returns (normalised, raw).  Each set-up interpreter runs next to a
    reference interpreter (`hostspeed.REFERENCE_SNIPPET`), first and second
    in turn; its normalised time is its own time over the reference's, times
    `hostspeed.REFERENCE_INTERPRETER_S`."""
    raw, normalised = [], []
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *map(str, config_paths)]
    reference_argv = [sys.executable, "-c", hostspeed.REFERENCE_SNIPPET]
    for i in range(SETUP_REPEATS):
        if i % 2:
            reference = interpreter_seconds(reference_argv)
            raw.append(interpreter_seconds(setup_argv))
        else:
            raw.append(interpreter_seconds(setup_argv))
            reference = interpreter_seconds(reference_argv)
        normalised.append(raw[-1] / reference * hostspeed.REFERENCE_INTERPRETER_S)
    return normalised, raw


def run_pass(cli, argvs: list, mark=hostspeed.plain_mark, before_command=None) -> dict:
    """Run every command once in-process; stdout is captured per command.

    `mark` stamps the start and end of the pass and of each command; times
    are `hostspeed.program_time` between marks."""
    outputs, codes, marks = [], [], []
    pass_start = mark()
    for i, argv in enumerate(argvs):
        if before_command is not None:
            before_command(i)
        out, err = io.StringIO(), io.StringIO()
        start = mark()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        marks.append((start, mark()))
        outputs.append(out.getvalue())
        codes.append(code if code == 0 else f"{code} {err.getvalue().strip()}")
    pass_end = mark()
    return {
        "wall": hostspeed.program_time(pass_start, pass_end),
        "span": (pass_start, pass_end),
        "outputs": outputs,
        "codes": codes,
        "marks": marks,
        "latencies": [hostspeed.program_time(s, e) for s, e in marks],
    }


def timed_passes(cli, argvs: list, seconds: float) -> list:
    """Passes until `seconds` are used, each with its normalised times added."""
    passes = []
    t_start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while True:
            passes.append(run_pass(cli, argvs, sampler.mark))
            elapsed = time.perf_counter() - t_start
            typical = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                break
    for p in passes:
        p["norm_wall"] = sampler.normalised(*p["span"])
        p["norm_latencies"] = [sampler.normalised(s, e, LATENCY_PAD) for s, e in p["marks"]]
    return passes


def quantiles(values: list) -> tuple[float, float]:
    """(p50, p90), interpolated between the closest samples."""
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def check_outputs(wl, passes: list, seed: int, problems: dict) -> list:
    """Per-execution failure flags; adds the problems found to `problems`, by command id."""
    reference = checks.load_reference(wl.name)
    first = passes[0]["outputs"]
    for i, cmd in enumerate(wl.commands):
        if cmd.id not in reference:
            problems.setdefault(cmd.id, []).append("no reference output")
        elif passes[0]["codes"][i] == 0:
            found = checks.check_output(cmd.sub, first[i], reference[cmd.id], seed == workloads.DEFAULT_SEED)
            if found:
                problems.setdefault(cmd.id, []).extend(found[:5])
    flags = []
    for p in passes:
        for i, cmd in enumerate(wl.commands):
            problem = None
            if p["codes"][i] != 0:
                problem = f"exit: {p['codes'][i]}"
            elif p["outputs"][i] != first[i]:
                problem = "stdout differs between passes"
            if problem:
                problems.setdefault(cmd.id, []).append(problem)
            flags.append(problem is not None or cmd.id in problems)
    return flags


def oracle_errors(wl, first_pass: dict) -> dict:
    """(command id, relative error, tolerance) of each value checked against the 40-digit oracle.

    Commands that failed or printed unreadable output are already counted as
    failed by the output checks and are skipped here."""
    import oracle

    errors: dict = {}
    residual_cache: dict = {}
    index_oracles: dict = {}
    for cmd, text, code in zip(wl.commands, first_pass["outputs"], first_pass["codes"]):
        if code != 0:
            continue
        cfg = wl.configs[cmd.config]
        try:
            if cmd.sub in checks.CSV_SUBCOMMANDS:
                rows = [
                    (float(r["lambda"]), int(r["n"]), int(r["argmin_k"]), float(r["residual"]))
                    for r in checks.parse_csv(text)[1]
                ]
            elif cmd.sub == "indices":
                doc = json.loads(text)["estimated"]
                est = {name: float(doc[name]) for name in oracle.INDEX_REGIONS}
            else:
                continue
        except (ValueError, KeyError, TypeError):
            continue
        if cmd.sub == "indices":
            space_key = json.dumps(cfg["space"], sort_keys=True)
            ix = index_oracles.setdefault(space_key, oracle.IndexOracle(cfg["space"]))
            for name, value in ix.estimate(cfg["k_radius"], cfg["n_max"]).items():
                errors[f"{cmd.id} {name}"] = (cmd.id, oracle.rel_err(est[name], value), ORACLE_TOL["index"])
            continue
        for lam, n, k, residual in rows:
            if (lam, n, k) not in residual_cache:
                residual_cache[lam, n, k] = oracle.window_residual(cfg["space"], lam, n, k)
            err = oracle.rel_err(residual, residual_cache[lam, n, k])
            errors[f"{cmd.id} lambda={lam!r} n={n}"] = (cmd.id, err, ORACLE_TOL["residual"])
    return errors


def end_to_end(wl, setup: tuple, passes: list, peak_rss_mb: float, record: dict) -> tuple[dict, list]:
    """End-to-end metrics, all times normalised to the reference host speed."""
    setup_norm, setup_raw = setup
    latencies = [statistics.median(p["norm_latencies"][i] for p in passes) for i in range(len(wl.commands))]
    p50, p90 = quantiles(latencies)
    values = {
        "setup_s": statistics.median(setup_norm),
        "wall_s": statistics.median(p["norm_wall"] for p in passes),
        "cmd_p50_s": p50,
        "cmd_p90_s": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_wall = statistics.median(p["wall"] for p in passes)
    record["samples"] = {
        "setup_s": setup_norm,
        "setup_raw_s": setup_raw,
        "pass_wall_s": [p["norm_wall"] for p in passes],
        "pass_wall_raw_s": [p["wall"] for p in passes],
        "command_median_s": dict(zip((c.id for c in wl.commands), latencies)),
    }
    lines = [
        f"latency samples: {len(latencies)} commands, each the median of {len(passes)} passes; "
        f"{sum(v > p90 for v in latencies)} lie beyond p90",
        f"host speed: measured (not normalised) setup_s {statistics.median(setup_raw):.4g} s, "
        f"wall_s {raw_wall:.4g} s, so this host ran at {raw_wall / values['wall_s']:.3g} x the reference time",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, lines


def run_workload(args) -> int:
    try:
        cli = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    work = OUT_DIR / f"{wl.name}-seed{args.seed}"
    config_paths = write_configs(wl, work / "configs")
    argvs = [wl.argv(cmd, work / "configs") for cmd in wl.commands]
    env = environment(args.seed)
    record = {"workload": wl.name, "why": workloads.WHY[wl.name], "env": env, "trace": args.trace}

    if args.trace:
        import spans

        passes = [run_pass(cli, argvs)]
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = run_pass(cli, argvs, before_command=tracer.begin_command)
    else:
        try:
            setup = measure_setup(config_paths)
        except subprocess.CalledProcessError as exc:
            print(f"perfbench: set-up interpreter failed: {exc}", file=sys.stderr)
            return 2
        passes = timed_passes(cli, argvs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle_err = oracle_errors(wl, passes[0])
    oracle_max = max((err for _, err, _ in oracle_err.values()), default=0.0)
    problems: dict = {}
    for key, (cid, err, tol) in oracle_err.items():
        if err > tol:
            problems.setdefault(cid, []).append(f"{key}: oracle rel err {err:.3g} above {tol:g}")
    flags = check_outputs(wl, passes + ([traced] if args.trace else []), args.seed, problems)
    failed, attempted = sum(flags), len(flags)

    if args.trace:
        out_bytes = sum(len(o.encode("utf-8")) for o in traced["outputs"])
        metrics, record["layers"] = spans.per_layer_metrics(
            tracer, out_bytes, traced["wall"], passes[0]["wall"], oracle_max
        )
        # One spans file per workload, replaced by each traced run, bounds disk use.
        tracer.save(OUT_DIR / f"{wl.name}-spans.npz", seed=args.seed)
        lines = [spans.stress(wl.name, metrics)[0]]
    else:
        metrics, lines = end_to_end(wl, setup, passes, peak_rss_mb, record)
    lines.append(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} command runs)")
    lines.append(f"oracle_rel_err_max: {oracle_max:.3g} over {len(oracle_err)} values")
    lines += [
        f"oracle note: {key} rel err {err:.3g} (passes below {tol:g})"
        for key, (_, err, tol) in sorted(oracle_err.items(), key=lambda kv: -kv[1][1])[:5]
        if err > ORACLE_NOTE
    ]
    lines += [f"check failed: {cid}: {'; '.join(msgs[:3])}" for cid, msgs in problems.items()]
    record.update(
        metrics=metrics, attempted=attempted, failed=failed, problems=problems,
        oracle_rel_err_max=oracle_max, notes=lines,
    )
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name} seed {args.seed}: {workloads.WHY[wl.name]}")
    print("env: " + json.dumps(env))
    for name, m in metrics.items():
        moves = ""
        if args.trace:
            _, target, on = spans.PER_LAYER[name]
            moves = f"   (moves {target} on {on})"
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:6s}{moves}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    results = {}
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
            oracle_line = next(line for line in lines if line.startswith("oracle_rel_err_max: "))
            results[name]["oracle_rel_err_max"] = float(oracle_line.split()[1])
    print()
    print(f"{'workload':15s} {'metric':34s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:15s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15s} {'fail_frac':34s} {res['failed'] / res['attempted']:14.6g} ratio")
        print(f"{name:15s} {'oracle_rel_err_max':34s} {res['oracle_rel_err_max']:14.6g} ratio")
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
