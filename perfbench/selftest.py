"""Self-test of the benchmark: counts of two traced runs agree, and each workload stresses its layers.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed N] [workload ...]

Every count metric (`*.calls`, atoms per norm, value calls per root,
`spectra.repeat_norm_share`, `cli.out_bytes`) of two separate traced runs of
one seed must be equal, and both runs must pass their output checks.  The
first run must show what its workload is meant to stress (`spans.stress`):
on probe-lorentz, steps.distribution + spaces.lorentz_norm +
steps.dyadic_embed self time above half of traced wall_s; on probe-orlicz,
spaces.luxemburg_norm + spaces.fn_value self time above half; on
report-sweep, no residual_curve or probe_lower_bound call.  Also checks that
`BENCHMARK.json` lists exactly the workloads and per-layer metrics the
benchmark reports.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans
import workloads

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_metrics(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stdout}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]


def check_manifest() -> list:
    bench = json.loads(BENCHMARK.read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {name: unit for name, (unit, _, _) in spans.PER_LAYER.items()}
    if listed != reported:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    problems = check_manifest()
    for name in args.workload:
        first = traced_metrics(name, args.seed)
        second = traced_metrics(name, args.seed)
        for metric in spans.COUNT_METRICS:
            if first[metric]["value"] != second[metric]["value"]:
                problems.append(f"{name} {metric}: {first[metric]['value']} then {second[metric]['value']}")
        print(f"{name}: {len(spans.COUNT_METRICS)} counts compared; " + ", ".join(
            f"{k}={first[k]['value']:.6g}" for k in ("spaces.block_norm.calls", "spaces.fn_value.calls", "cli.out_bytes")
        ))
        text, ok = spans.stress(name, first)
        print(f"{name}: {text}")
        if not ok:
            problems.append(f"{name} does not stress its layers: {text}")
    for line in problems:
        print("MISMATCH " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
