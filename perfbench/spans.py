"""Span tracing of the rispect layers, installed from outside the program.

Each public function of the layer modules (`cli`, `indices`, `spectra`,
`witness`, `spaces`, `steps`, `shifts`) is wrapped at every module attribute
that holds it, because `from .spaces import block_norm` copies the binding
into the importing module.  `DyadicStep.distribution` and the `value` method
of each `FnSpec` class are wrapped on their classes.  Spans (name, start,
end, parent, command, size) are kept in flat arrays while the pass runs and
reduced to per-layer metrics afterwards; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "indices", "spectra", "witness", "spaces", "steps", "shifts")
FN_VALUE = "spaces.fn_value"
WINDOWS = ("shifts.geometric_window", "shifts.squared_window")

# Per-layer metric -> (unit, end-to-end metric it should move, workloads).
# `BENCHMARK.json` lists the same names in `per_layer`.
PER_LAYER = {
    "steps.distribution.calls": ("count", "wall_s", "probe-lorentz"),
    "steps.distribution.self_s": ("s", "wall_s", "probe-lorentz"),
    "steps.dyadic_embed.self_s": ("s", "wall_s", "probe-lorentz"),
    "steps.atoms_per_norm": ("count", "wall_s", "probe-lorentz"),
    "spaces.lorentz_norm.self_s": ("s", "wall_s", "probe-lorentz"),
    "spaces.block_norm.calls": ("count", "wall_s", "probe-lorentz"),
    "spaces.block_norm.total_s": ("s", "wall_s", "probe-lorentz"),
    "shifts.shift_minus.calls": ("count", "wall_s", "probe-lorentz"),
    "shifts.shift_minus.self_s": ("s", "wall_s", "probe-lorentz"),
    "shifts.windows.self_s": ("s", "wall_s", "probe-lorentz"),
    "spectra.residual_curve.calls": ("count", "wall_s", "probe-lorentz probe-orlicz"),
    "spectra.residual_curve.total_s": ("s", "wall_s", "probe-lorentz probe-orlicz"),
    "spectra.probe_lower_bound.calls": ("count", "wall_s", "probe-lorentz probe-orlicz"),
    "spectra.probe_lower_bound.total_s": ("s", "wall_s", "probe-lorentz probe-orlicz"),
    "spectra.repeat_norm_share": ("ratio", "wall_s", "probe-lorentz probe-orlicz"),
    "spaces.luxemburg_norm.calls": ("count", "wall_s cmd_p90_s", "probe-orlicz report-sweep"),
    "spaces.luxemburg_norm.self_s": ("s", "wall_s cmd_p90_s", "probe-orlicz report-sweep"),
    "spaces.fn_value.calls": ("count", "wall_s cmd_p90_s", "probe-orlicz report-sweep"),
    "spaces.fn_value.self_s": ("s", "wall_s cmd_p90_s", "probe-orlicz report-sweep"),
    "spaces.fn_value_per_lux_root": ("count", "wall_s cmd_p90_s", "probe-orlicz report-sweep"),
    "indices.block_weights.calls": ("count", "cmd_p90_s wall_s", "report-sweep"),
    "indices.block_weights.total_s": ("s", "cmd_p90_s wall_s", "report-sweep"),
    "spaces.orlicz_inverse.calls": ("count", "cmd_p90_s wall_s", "report-sweep"),
    "spaces.orlicz_inverse.self_s": ("s", "cmd_p90_s wall_s", "report-sweep"),
    "spaces.fn_value_per_inverse": ("count", "cmd_p90_s wall_s", "report-sweep"),
    "indices.estimate_indices.self_s": ("s", "cmd_p90_s wall_s", "report-sweep"),
    "steps.disjoint_sum.calls": ("count", "wall_s cmd_p90_s", "report-sweep"),
    "steps.disjoint_sum.self_s": ("s", "wall_s cmd_p90_s", "report-sweep"),
    "witness.distortion.total_s": ("s", "wall_s cmd_p90_s", "report-sweep"),
    "witness.build_witness.total_s": ("s", "wall_s cmd_p90_s", "report-sweep"),
    "witness.atoms_per_norm": ("count", "wall_s cmd_p90_s", "report-sweep"),
    "spaces.space_norm.calls": ("count", "wall_s cmd_p90_s", "report-sweep"),
    "spaces.space_norm.total_s": ("s", "wall_s cmd_p90_s", "report-sweep"),
    "cli.load_config.self_s": ("s", "cmd_p50_s setup_s", "report-sweep"),
    "cli.to_json_text.self_s": ("s", "cmd_p50_s setup_s", "report-sweep"),
    "cli.out_bytes": ("count", "cmd_p50_s", "report-sweep"),
    "trace.wall_s": ("s", "none", "all"),
    "trace.overhead_s": ("s", "none", "all"),
    "oracle.rel_err_max": ("ratio", "none", "all"),
}
# Metrics that are counts of work and must repeat exactly for one seed.
COUNT_METRICS = tuple(
    name
    for name in PER_LAYER
    if name.endswith(".calls")
    or name
    in (
        "steps.atoms_per_norm",
        "witness.atoms_per_norm",
        "spaces.fn_value_per_lux_root",
        "spaces.fn_value_per_inverse",
        "spectra.repeat_norm_share",
        "cli.out_bytes",
    )
)


class Tracer:
    """Flat in-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.stack: list[int] = []
        self.current_command = -1
        self.seen_by_probe: set[int] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_command(self, index: int) -> None:
        self.current_command = index
        self.seen_by_probe = set()

    def in_span(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self.stack)

    def wrap(self, fn, name: str, size=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self.current_command)
            self.size.append(0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if size is not None:
                self.size[i] = size(self, args, result)
            return result

        return traced

    def save(self, path, **extra) -> None:
        np.savez(
            path,
            **extra,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            size=np.frombuffer(self.size, dtype=np.int64),
        )

    def layer_table(self) -> dict:
        """name -> {calls, total_s, self_s, size} over all spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        size = np.frombuffer(self.size, dtype=np.int64)
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        sizes = np.bincount(name, weights=size, minlength=n_names)
        return {
            nm: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "size": int(sizes[i]),
            }
            for i, nm in enumerate(self.names)
        }

    def child_counts(self, child: str, parents: tuple) -> tuple[int, int]:
        """(spans named `child` whose direct parent is in `parents`, summed size)."""
        if child not in self._ids:
            return 0, 0
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        size = np.frombuffer(self.size, dtype=np.int64)
        pids = [self._ids[p] for p in parents if p in self._ids]
        mask = (name == self._ids[child]) & (parent >= 0)
        idx = np.nonzero(mask)[0]
        keep = idx[np.isin(name[parent[idx]], pids)]
        return int(len(keep)), int(size[keep].sum())


def _atoms_of_result(tracer, args, result) -> int:
    return len(result.atoms)


def _atoms_of_arg(tracer, args, result) -> int:
    return len(args[1].atoms)


def _block_norm_repeat(tracer, args, result) -> int:
    """1 when residual_curve norms a sequence probe_lower_bound already normed
    in the same command; probe_lower_bound's sequences are remembered."""
    if tracer.in_span("spectra.probe_lower_bound"):
        tracer.seen_by_probe.add(hash(tuple(sorted(args[1].coeffs.items()))))
    elif tracer.in_span("spectra.residual_curve"):
        return int(hash(tuple(sorted(args[1].coeffs.items()))) in tracer.seen_by_probe)
    return 0


_SIZE_HOOKS = {
    "steps.distribution": _atoms_of_result,
    "spaces.space_norm": _atoms_of_arg,
    "spaces.block_norm": _block_norm_repeat,
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    import rispect
    from rispect import spaces, steps

    modules = [m for n, m in sorted(sys.modules.items()) if n == "rispect" or n.startswith("rispect.")]
    wrappers = {}
    for layer in LAYERS:
        mod = getattr(rispect, layer)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = tracer.wrap(obj, name, _SIZE_HOOKS.get(name))
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    methods = [(steps.DyadicStep, "distribution", "steps.distribution")]
    methods += [(cls, "value", FN_VALUE) for cls in _fn_classes(spaces.FnSpec)]
    for cls, attr, name in methods:
        orig = cls.__dict__[attr]
        patched.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(orig, name, _SIZE_HOOKS.get(name)))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


def _fn_classes(base) -> list:
    out = []
    for cls in base.__subclasses__():
        if "value" in cls.__dict__:
            out.append(cls)
        out.extend(_fn_classes(cls))
    return out


def per_layer_metrics(tracer: Tracer, out_bytes: int, traced_wall: float, untraced_wall: float,
                      oracle_err: float) -> tuple[dict, dict]:
    """(per-layer metrics as printed, the full per-span-name table)."""
    table = tracer.layer_table()

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    lux_children, _ = tracer.child_counts(FN_VALUE, ("spaces.luxemburg_norm",))
    inv_children, _ = tracer.child_counts(FN_VALUE, ("spaces.orlicz_inverse",))
    wit_norms, wit_atoms = tracer.child_counts(
        "spaces.space_norm", ("witness.distortion", "witness.build_witness")
    )
    probe_cmd_norms = _probe_command_block_norms(tracer)
    values = {
        "steps.atoms_per_norm": ratio(get("steps.distribution", "size"), get("steps.distribution", "calls")),
        "shifts.windows.self_s": sum(get(w, "self_s") for w in WINDOWS),
        "spectra.repeat_norm_share": ratio(probe_cmd_norms[1], probe_cmd_norms[0]),
        "spaces.fn_value_per_lux_root": ratio(lux_children, get("spaces.luxemburg_norm", "calls")),
        "spaces.fn_value_per_inverse": ratio(inv_children, get("spaces.orlicz_inverse", "calls")),
        "witness.atoms_per_norm": ratio(wit_atoms, wit_norms),
        "cli.out_bytes": out_bytes,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "oracle.rel_err_max": oracle_err,
    }
    out = {}
    for metric, (unit, _moves, _on) in PER_LAYER.items():
        if metric in values:
            value = values[metric]
        else:
            span, key = metric.rsplit(".", 1)
            value = get(span, key)
        out[metric] = {"value": value, "unit": unit}
    return out, table


def stress(workload: str, metrics: dict) -> tuple[str, bool]:
    """(what dominates the traced pass of a workload, whether it is as the workload intends)."""
    v = {k: m["value"] for k, m in metrics.items()}
    wall = v["trace.wall_s"]
    if workload == "probe-lorentz":
        part = v["steps.distribution.self_s"] + v["spaces.lorentz_norm.self_s"] + v["steps.dyadic_embed.self_s"]
        text = f"distribution + lorentz_norm + dyadic_embed self time = {part / wall:.1%} of traced wall_s"
        return f"stress: {text}", part > wall / 2
    if workload == "probe-orlicz":
        part = v["spaces.luxemburg_norm.self_s"] + v["spaces.fn_value.self_s"]
        return f"stress: luxemburg_norm + fn_value self time = {part / wall:.1%} of traced wall_s", part > wall / 2
    calls = v["spectra.residual_curve.calls"] + v["spectra.probe_lower_bound.calls"]
    return f"stress: residual_curve + probe_lower_bound calls = {calls} (window scanning bypassed)", calls == 0


def _probe_command_block_norms(tracer: Tracer) -> tuple[int, int]:
    """(block norms inside `probe` commands, how many of them were repeats)."""
    if "cli.cmd_probe" not in tracer._ids or "spaces.block_norm" not in tracer._ids:
        return 0, 0
    name = np.frombuffer(tracer.name, dtype=np.int32)
    command = np.frombuffer(tracer.command, dtype=np.int32)
    size = np.frombuffer(tracer.size, dtype=np.int64)
    probe_cmds = np.unique(command[name == tracer._ids["cli.cmd_probe"]])
    mask = (name == tracer._ids["spaces.block_norm"]) & np.isin(command, probe_cmds)
    return int(mask.sum()), int(size[mask].sum())
