"""The names fixed consumers rely on: the acceptance tests and the span tracer."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import rispect
from rispect.cli import main

ROOT = Path(__file__).resolve().parent.parent


def acceptance_imports() -> set[str]:
    """Names that tests/test_acceptance.py imports from the rispect package."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rispect"
        for alias in node.names
    }


def test_all_resolves_without_duplicates_and_covers_acceptance():
    assert all(hasattr(rispect, name) for name in rispect.__all__)
    assert len(rispect.__all__) == len(set(rispect.__all__))
    missing = {
        name
        for name in acceptance_imports() - set(rispect.__all__)
        if importlib.util.find_spec(f"rispect.{name}") is None  # submodules such as cli
    }
    assert not missing


def load_spans():
    """perfbench/spans.py, loaded by path without writing a bytecode cache."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def run_probe(cfgpath: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["probe", "--config", cfgpath])
    return code, out.getvalue()


def test_span_tracer_hooks_resolve(tmp_path):
    """Every hook target of the benchmark's tracer exists: a traced probe
    runs, prints what an untraced one prints, and records spans."""
    cfg = {
        "space": {"type": "lorentz", "q": 1, "psi": {"kind": "piecewise_power", "a0": 0.25, "a_inf": 0.75}},
        "k_radius": 64,
        "n_max": 16,
        "lambda_grid": [1.5],
        "n_list": [4],
        "probe_k_radius": 8,
        "n_random": 5,
    }
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(cfg))
    plain = run_probe(str(cfgpath))
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run_probe(str(cfgpath))
    assert plain[0] == 0
    assert traced == plain
    table = tracer.layer_table()
    assert table
    assert table["steps.distribution"]["calls"] > 0
