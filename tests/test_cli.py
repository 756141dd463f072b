"""Command line interface: config validation, JSON/CSV output, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispect import (
    NumericalError,
    ProbeConfig,
    block_weights,
    build_witness,
    cli,
    distortion,
    estimate_indices,
    probe_lower_bound,
    spaces,
)
from rispect.cli import PROBE_CSV_HEADER, RESIDUAL_CSV_HEADER, main

QUARTER = {"type": "lorentz", "q": 1, "psi": {"kind": "piecewise_power", "a0": 0.25, "a_inf": 0.75}}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "space": QUARTER,
        "k_radius": 64,
        "n_max": 16,
        "lambda_grid": [1.0905077326652577, 2.0],
        "n_list": [4, 8],
        "probe_k_radius": 32,
        "n_random": 10,
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- config validation ------------------------------------------------------------


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, "indices", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "config error" in err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "indices", "--config", str(path))
    assert code == 2


def test_bad_space_rejected(capsys, tmp_path):
    bad = dict(QUARTER, q=0.5)
    code, _, err = run(capsys, "indices", "--config", write_config(tmp_path, space=bad))
    assert code == 2
    assert "config error" in err


def test_krange_too_small_for_nmax(capsys, tmp_path):
    code, _, err = run(
        capsys, "indices", "--config", write_config(tmp_path, k_radius=32, n_max=16)
    )
    assert code == 2
    assert "k_radius" in err


def test_probe_needs_lambda_grid(capsys, tmp_path):
    code, _, err = run(capsys, "probe", "--config", write_config(tmp_path, lambda_grid=[]))
    assert code == 2
    assert "lambda_grid" in err


def test_witness_theta_range(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "witness",
        "--config",
        write_config(tmp_path, witness={"theta": 1.5}),
    )
    assert code == 2


def test_witness_p_below_one(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "witness",
        "--config",
        write_config(tmp_path, witness={"p": 0.5}),
    )
    assert code == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"witness": {"lam": 0}},
        {"witness": {"p": 0}},
        {"witness": {"theta": 0.5, "n_copies": 0}},
        {"witness": {"theta": 0.5, "windows": [2.7]}},
        {"witness": {"theta": 0.5, "n_random": -1}},
        {"witness": {"theta": 0.5, "k": 2000, "windows": [8]}},
        {"witness": {"theta": 0.5, "windows": [2000]}},
        {"witness": {"theta": 0.5, "k": 995, "windows": [8]}},
        {"n_max": 0},
        {"n_list": []},
        {"n_list": [100000]},
        {"n_random": -1},
        # Orlicz functions whose grid values overflow, rejected with no numpy warning.
        {"space": {"type": "orlicz", "N": {"kind": "pure_power", "a": 300}}},
        {"space": {"type": "orlicz", "N": {"kind": "power_log", "a": 1.5, "c": 400}}},
        # Tables with a fault between the role grid's points: N' drops at
        # t = 1.1, and psi(t)/t rises on [1, 1.1].
        {
            "space": {
                "type": "orlicz",
                "N": {"kind": "table", "points": [[1, 1], [1.1, 1.3], [1.15, 1.35], [2, 4]]},
            }
        },
        {
            "space": {
                "type": "lorentz",
                "q": 1,
                "psi": {
                    "kind": "table",
                    "points": [[0.5, 0.5], [1, 1], [1.1, 1.25], [1.2, 1.3], [2, 1.6], [4, 2]],
                },
            }
        },
        # JSON integers too large for a float.
        {"space": {"type": "lorentz", "q": 1, "psi": {"kind": "pure_power", "a": 10**400}}},
        {"lambda_grid": [1.5, 10**400]},
        {"witness": {"theta": 10**400}},
    ],
    ids=[
        "witness-lam-0",
        "witness-p-0",
        "witness-n_copies-0",
        "witness-windows-fraction",
        "witness-n_random-negative",
        "witness-k-past-block-range",
        "witness-default-k-past-block-range",
        "witness-window-end-past-block-range",
        "n_max-0",
        "n_list-empty",
        "n_list-past-block-range",
        "n_random-negative",
        "orlicz-pure_power-300",
        "orlicz-power_log-1.5-400",
        "orlicz-table-concave-knot",
        "lorentz-table-rising-ratio",
        "psi-exponent-past-float-range",
        "lambda_grid-entry-past-float-range",
        "witness-theta-past-float-range",
    ],
)
def test_bad_config_is_config_error(capsys, tmp_path, overrides):
    code, _, err = run(capsys, "indices", "--config", write_config(tmp_path, **overrides))
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("config error:")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("indices", {"k_radius": 1001}, "k_radius above 1000 leaves the exact block range"),
        ("indices", {"probe_k_radius": 65}, "probe_k_radius must lie in [1, k_radius]"),
        ("indices", {"lambda_grid": [1.5, 0]}, "lambda_grid entries must be positive, got 0.0"),
        ("indices", {"n_list": [4, 0]}, "n_list entries must be >= 1, got 0"),
        ("indices", {"k_radius": 64.0}, "field k_radius must be an integer, got 64.0"),
        ("indices", {"lambda_grid": 1.5}, "field lambda_grid must be a list of numbers, got 1.5"),
        ("witness", {"witness": [0.5]}, "field witness must be an object"),
        ("witness", {"witness": {"n_copies": 4}}, "field witness needs one of theta, lam, p"),
        ("witness", {"witness": {"theta": 0.5, "k": 1.5}}, "field witness.k must be an integer, got 1.5"),
        ("witness", {"witness": {"theta": 0.5, "windows": [4, 0]}}, "witness windows entries must be >= 1, got 0"),
        ("indices", "[]", "config root must be an object"),
        ("indices", '{"k_radius": 64}', "missing field space"),
        ("residuals", {"lambda_grid": []}, "residuals needs a nonempty lambda_grid"),
    ],
    ids=[
        "k_radius-past-block-range",
        "probe_k_radius-past-k_radius",
        "lambda_grid-entry-0",
        "n_list-entry-0",
        "field-not-an-integer",
        "field-not-a-list",
        "witness-not-an-object",
        "witness-without-rate",
        "witness-k-not-an-integer",
        "witness-window-0",
        "root-not-an-object",
        "space-missing",
        "residuals-without-lambda_grid",
    ],
)
def test_config_error_names_its_field(command, doc, message, capsys, tmp_path):
    """doc is write_config's overrides, or the whole file as text."""
    if isinstance(doc, str):
        (tmp_path / "cfg.json").write_text(doc)
        cfgpath = str(tmp_path / "cfg.json")
    else:
        cfgpath = write_config(tmp_path, **doc)
    assert run(capsys, command, "--config", cfgpath) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("spelling, theta", [({"lam": 1.5}, math.log2(1.5)), ({"p": "inf"}, 0.0)], ids=["lam", "p-inf"])
def test_witness_rate_spellings(spelling, theta, capsys, tmp_path):
    cfgpath = write_config(tmp_path, witness={**spelling, "n_copies": 3, "windows": [4], "n_random": 5})
    code, out, _ = run(capsys, "witness", "--config", cfgpath)
    assert code == 0
    assert json.loads(out)["theta"] == theta


def test_integer_past_digit_limit_is_config_error(capsys, tmp_path):
    """An integer literal too long for Python's int parser is invalid JSON."""
    path = tmp_path / "long.json"
    path.write_text('{"space": {"type": "lorentz", "q": 1' + "0" * 5000 + "}}")
    code, _, err = run(capsys, "indices", "--config", str(path))
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith("config error:")


def test_n_list_block_range_bound_is_exact(capsys, tmp_path):
    """probe_k_radius + 2*n + 2 <= 1000: the largest accepted n still runs."""
    cfgpath = write_config(tmp_path, probe_k_radius=1, n_list=[498], lambda_grid=[1.5])
    code, out, _ = run(capsys, "residuals", "--config", cfgpath)
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "498"
    cfgpath = write_config(tmp_path, probe_k_radius=1, n_list=[499], lambda_grid=[1.5])
    code, _, err = run(capsys, "residuals", "--config", cfgpath)
    assert code == 2
    assert "n_list" in err


def test_witness_block_range_bound_is_exact(capsys, tmp_path):
    """A witness window may end at block 1000 but not past it."""
    witness = {"theta": 0.5, "k": 992, "windows": [8], "n_random": 5}
    code, _, _ = run(capsys, "witness", "--config", write_config(tmp_path, witness=witness))
    assert code == 0
    witness["k"] = 993
    code, _, err = run(capsys, "witness", "--config", write_config(tmp_path, witness=witness))
    assert code == 2
    assert "witness window" in err


COUNT_FIELDS = ["n_random", "witness.n_random", "witness.n_copies"]


def count_config(tmp_path, field: str, value: int) -> str:
    """A witness config with the probe count field set to value."""
    witness = {"theta": 0.5, "windows": [4]}
    if field == "n_random":
        return write_config(tmp_path, n_random=value, witness=witness)
    return write_config(tmp_path, witness={**witness, field.split(".")[1]: value})


@pytest.mark.parametrize("count", [99999999999999999999999, 4000000000, 400000])
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_huge_probe_count_is_config_error_before_allocation(capsys, tmp_path, field, count):
    """A probe count past its bound is refused while the config is read, by
    the command that would draw the probes: exit 2, one config error line,
    and nothing large allocated."""
    command = "probe" if field == "n_random" else "witness"
    cfgpath = count_config(tmp_path, field, count)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, "--config", cfgpath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"config error: {field.replace('.', ' ')} must lie in")
    assert peak < 1_000_000


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_probe_count_bounds_are_exact(tmp_path, field):
    """Each bound is accepted, and one more is a ConfigError."""
    bound = cli.MAX_COPIES if field == "witness.n_copies" else cli.MAX_RANDOM
    args = cli._build_parser().parse_args(["indices", "--config", "unused"])
    cli.load_config(count_config(tmp_path, field, bound), args)
    with pytest.raises(cli.ConfigError, match="must lie in"):
        cli.load_config(count_config(tmp_path, field, bound + 1), args)


def test_orlicz_residuals_at_far_blocks(capsys, tmp_path):
    """Luxemburg roots of blocks near +-400 solve: the root lies ~270
    doublings above the largest value, where the slope bound brackets it."""
    cfgpath = write_config(
        tmp_path,
        space={"type": "orlicz", "N": {"kind": "piecewise_power", "a0": 1.5, "a_inf": 3}},
        k_radius=400,
        n_max=64,
        probe_k_radius=400,
        n_list=[4],
        lambda_grid=[1.3],
    )
    code, out, _ = run(capsys, "residuals", "--config", cfgpath)
    assert code == 0
    assert out.splitlines()[1] == "1.3,0.37851162325372983,4,0.40413085429801227,-13"


def test_unconverged_luxemburg_root_exits_3(capsys, tmp_path, monkeypatch):
    """A Luxemburg root still going at its step cap is a numerical failure
    with nothing on stdout, never a midpoint printed as a norm."""
    monkeypatch.setattr(spaces, "_MAX_ROOT", 1)
    orlicz = {"type": "orlicz", "N": {"kind": "power_log", "a": 2, "c": 1}}
    code, out, err = run(capsys, "residuals", "--config", write_config(tmp_path, space=orlicz))
    assert (code, out) == (3, "")
    assert "did not converge" in err


def test_luxemburg_root_below_the_floats_of_u0_over_u_exits_3(capsys, tmp_path):
    """N(t) = 1e-100 t puts the block norms of windows below k = -700 under
    u0 / DBL_MAX.  The scan exits 3 with nothing on stdout instead of
    scoring those windows with the edge of the bracket search as their norm."""
    cfgpath = write_config(
        tmp_path,
        space={"type": "orlicz", "N": {"kind": "table", "points": [[1, 1e-100], [2, 2e-100]]}},
        k_radius=1000,
        n_max=16,
        n_list=[4],
        probe_k_radius=990,
        lambda_grid=[1.5],
    )
    code, out, err = run(capsys, "residuals", "--config", cfgpath)
    assert (code, out) == (3, "")
    assert err == "numerical failure: luxemburg bracketing underflows to u = 0\n"


def test_numerical_failure_exit_code(capsys, tmp_path, monkeypatch):
    def boom(cfg):
        raise NumericalError("synthetic")

    monkeypatch.setattr(cli, "cmd_indices", boom)
    code, _, err = run(capsys, "indices", "--config", write_config(tmp_path))
    assert code == 3
    assert "numerical failure" in err


# --- JSON commands ------------------------------------------------------------------


def test_indices_json(capsys, tmp_path):
    code, out, _ = run(capsys, "indices", "--config", write_config(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "indices"
    assert doc["config"]["seed"] == 7
    est = doc["estimated"]
    assert est["alpha"] == pytest.approx(0.25, abs=0.02)
    assert est["beta"] == pytest.approx(0.75, abs=0.02)
    ana = doc["analytic"]
    assert ana["alpha0"] == pytest.approx(0.25, rel=1e-12)
    assert doc["delta"]["alpha"] == pytest.approx(abs(est["alpha"] - ana["alpha"]), abs=1e-15)


def test_spectrum_json(capsys, tmp_path):
    code, out, _ = run(capsys, "spectrum", "--config", write_config(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "ii"
    thetas = doc["eigen_set_theta"]
    assert thetas[0]["theta_lo"] == pytest.approx(0.25, rel=1e-12)
    assert thetas[1]["theta_hi"] == pytest.approx(0.75, rel=1e-12)
    ps = doc["frep_set_p"]
    values = sorted(iv["p_lo"] for iv in ps)
    assert values[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert values[1] == pytest.approx(4.0, rel=1e-12)
    assert doc["assuming_fundamental_type"] is False
    lams = [row["lambda"] for row in doc["classification"]]
    assert lams == sorted(lams)


def test_spectrum_table_space_flagged(capsys, tmp_path):
    table_psi = {
        "kind": "table",
        "points": [[0.25, 0.5], [1.0, 1.0], [4.0, 2.0], [16.0, 4.0]],
    }
    cfgpath = write_config(tmp_path, space={"type": "lorentz", "q": 1, "psi": table_psi})
    code, out, _ = run(capsys, "spectrum", "--config", cfgpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["assuming_fundamental_type"] is True
    assert doc["analytic"] is None


def test_witness_json_inf_p(capsys, tmp_path):
    cfgpath = write_config(
        tmp_path,
        witness={"theta": 0.0, "n_copies": 3, "windows": [4], "n_random": 5},
    )
    code, out, _ = run(capsys, "witness", "--config", cfgpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == "inf"
    assert doc["results"][0]["distortion"] >= 1.0


def test_witness_json_distortion_fields(capsys, tmp_path):
    cfgpath = write_config(
        tmp_path,
        witness={"p": 4.0, "n_copies": 4, "windows": [4, 8], "n_random": 5},
    )
    code, out, _ = run(capsys, "witness", "--config", cfgpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == pytest.approx(4.0)
    assert [r["window_n"] for r in doc["results"]] == [4, 8]
    for row in doc["results"]:
        assert row["distortion"] >= 1.0


@pytest.mark.parametrize("command", ["witness", "report"])
def test_witness_draws_probes_once(command, capsys, tmp_path, monkeypatch):
    """One draw serves every window of a command, and the output is the
    same as drawing per window."""
    calls = []
    draw = cli.standard_probes

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(cli, "standard_probes", counted)
    witness = {"p": 2.0, "n_copies": 3, "windows": [4, 8], "n_random": 5}
    cfgpath = write_config(tmp_path, witness=witness)
    code, out, _ = run(capsys, command, "--config", cfgpath)
    assert code == 0
    assert calls == [(3, 0.5, 7, 5)]
    doc = json.loads(out)
    results = (doc if command == "witness" else doc["witness"])["results"]
    space = cli.space_from_json(QUARTER)
    probes = draw(3, 0.5, 7, 5)
    assert [r["distortion"] for r in results] == [
        distortion(build_witness(space, 2.0**0.5, 3, n, -(n + 40)), probes) for n in (4, 8)
    ]


def test_config_of_only_a_space_echoes_the_field_defaults(capsys, tmp_path):
    path = tmp_path / "space-only.json"
    path.write_text(json.dumps({"space": QUARTER, "witness": {"theta": 0.25}}))
    code, out, _ = run(capsys, "indices", "--config", str(path))
    assert code == 0
    echo = json.loads(out)["config"]
    run_defaults = {f.name: f.default for f in fields(cli.RunConfig)}
    wit_defaults = {f.name: f.default for f in fields(cli.WitnessConfig)}
    assert list(echo) == list(run_defaults)
    for name, default in run_defaults.items():
        if name not in ("space", "witness"):
            assert echo[name] == (list(default) if isinstance(default, tuple) else default)
    assert echo["witness"] == {
        name: list(v) if isinstance(v, tuple) else v for name, v in wit_defaults.items()
    } | {"theta": 0.25}


def test_report_includes_witness(capsys, tmp_path):
    cfgpath = write_config(
        tmp_path,
        witness={"p": 2.0, "n_copies": 2, "windows": [4], "n_random": 5},
    )
    code, out, _ = run(capsys, "report", "--config", cfgpath)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"command", "config", "indices", "spectrum", "witness"}


def test_seed_override(capsys, tmp_path):
    cfgpath = write_config(tmp_path)
    code, out, _ = run(capsys, "indices", "--config", cfgpath, "--seed", "99")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


# --- CSV commands ----------------------------------------------------------------------


def test_probe_csv_header_and_shape(capsys, tmp_path):
    code, out, _ = run(capsys, "probe", "--config", write_config(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == PROBE_CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # two lambdas, two window sizes
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0905077326652577, rel=1e-15)


def test_residuals_csv_header(capsys, tmp_path):
    code, out, _ = run(capsys, "residuals", "--config", write_config(tmp_path))
    assert code == 0
    assert out.splitlines()[0] == RESIDUAL_CSV_HEADER


@pytest.mark.parametrize("command", ["probe", "residuals"])
def test_duplicate_n_list_entries_ignored(command, capsys, tmp_path):
    code, dup, _ = run(capsys, command, "--config", write_config(tmp_path, n_list=[4, 4, 8]))
    assert code == 0
    code, plain, _ = run(capsys, command, "--config", write_config(tmp_path, n_list=[4, 8]))
    assert code == 0
    assert dup == plain


def test_probe_residual_columns_match_residuals_orlicz(capsys, tmp_path):
    cfgpath = write_config(
        tmp_path,
        space={"type": "orlicz", "N": {"kind": "piecewise_power", "a0": 1.5, "a_inf": 3}},
        probe_k_radius=8,
        n_random=5,
    )
    code, probe_out, _ = run(capsys, "probe", "--config", cfgpath)
    assert code == 0
    code, resid_out, _ = run(capsys, "residuals", "--config", cfgpath)
    assert code == 0
    probe_rows = [line.split(",") for line in probe_out.splitlines()[1:]]
    resid_rows = [line.split(",") for line in resid_out.splitlines()[1:]]
    assert len(probe_rows) == len(resid_rows) == 4
    # lambda, theta, n, residual, argmin_k; probe adds min_ratio after theta
    assert [r[:2] + r[3:] for r in probe_rows] == resid_rows


def test_probe_rerun_identical(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["probe", "--config", cfgpath, "--out", str(out1)]) == 0
    assert main(["probe", "--config", cfgpath, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_out_file_matches_stdout(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    code, stdout_text, _ = run(capsys, "indices", "--config", cfgpath)
    outpath = tmp_path / "idx.json"
    assert main(["indices", "--config", cfgpath, "--out", str(outpath)]) == 0
    capsys.readouterr()
    assert outpath.read_text() == stdout_text


@pytest.mark.parametrize("target", ["missing/idx.json", "."], ids=["missing-parent", "directory"])
def test_unwritable_out_is_config_error(tmp_path, capsys, target):
    cfgpath = write_config(tmp_path)
    code, out, err = run(capsys, "indices", "--config", cfgpath, "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write output {tmp_path / target}: ")
    assert len(err.splitlines()) == 1


CLOSED_PIPE_ERR = "config error: cannot write output to stdout: [Errno 32] Broken pipe\n"


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_config_error(tmp_path, capsys, monkeypatch):
    cfgpath = write_config(tmp_path)
    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    code = main(["indices", "--config", cfgpath])
    assert code == 2
    assert capsys.readouterr().err == CLOSED_PIPE_ERR
    assert pipe.closed


def test_closed_stdout_pipe_exits_2(datadir):
    """The reader closes its end before any output: one config error line,
    exit 2, and nothing more when the interpreter flushes stdout at exit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config = str(datadir / "config_l1.json")
    argv = [sys.executable, "-m", "rispect.cli", "indices", "--config", config]
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == CLOSED_PIPE_ERR


def test_indices_at_nmax_1_print_no_warning(datadir):
    """At n_max = 1 the regression has one point: each regression_slope entry
    is null, under the usual keys, and nothing reaches stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config = str(datadir / "config_l1.json")
    argv = [sys.executable, "-m", "rispect.cli", "indices", "--config", config, "--nmax", "1"]
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(argv, capture_output=True, timeout=120, env=env)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")
    meta = json.loads(proc.stdout)["estimated"]["meta"]
    assert meta["regression_slope"] == dict.fromkeys(meta["per_n"])
    assert list(meta["per_n"]) == ["alpha", "beta", "alpha0", "beta0", "alpha_inf", "beta_inf"]


# --- goldens ------------------------------------------------------------------------------


def approx_equal_json(a, b, rel=1e-12):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return False
        return all(approx_equal_json(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(approx_equal_json(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return False
        return abs(fa - fb) <= rel * max(1.0, abs(fa), abs(fb))
    return a == b


GOLDEN_SPACES = [
    "l1",
    "lorentz_sqrt",
    "lorentz_two",
    "quarter",
    "orlicz_square",
    "orlicz_piecewise",
]


@pytest.mark.parametrize("name", GOLDEN_SPACES)
@pytest.mark.parametrize("command", ["indices", "spectrum"])
def test_golden_json(name, command, capsys, tmp_path, datadir):
    golden_path = datadir / f"{command}_{name}.json"
    cfgpath = str(datadir / f"config_{name}.json")
    code, out, _ = run(capsys, command, "--config", cfgpath)
    assert code == 0
    want = json.loads(golden_path.read_text())
    got = json.loads(out)
    assert approx_equal_json(got, want)


def test_golden_probe_csv(capsys, datadir):
    code, out, _ = run(capsys, "probe", "--config", str(datadir / "config_quarter.json"))
    assert code == 0
    assert out == (datadir / "probe_quarter.csv").read_text()


def test_golden_witness(capsys, datadir):
    code, out, _ = run(capsys, "witness", "--config", str(datadir / "config_witness.json"))
    assert code == 0
    want = json.loads((datadir / "witness_quarter.json").read_text())
    assert approx_equal_json(json.loads(out), want)


def test_config_echo_equals_the_asdict_echo(datadir):
    """The echo built from the field values is the deep-copy echo, keys in
    order and values, on every recorded config."""
    args = cli._build_parser().parse_args(["indices", "--config", "unused"])
    paths = sorted(datadir.glob("config_*.json"))
    assert len(paths) >= 10
    for path in paths:
        cfg = cli.load_config(str(path), args)
        want = asdict(cfg)
        want["space"] = spaces.space_to_json(cfg.space)
        if cfg.witness is None:
            del want["witness"]
        got = cli._config_echo(cfg)
        assert json.dumps(got) == json.dumps(want)
        assert got == want


def test_seed_must_fit_64_bits(capsys, tmp_path):
    code, _, err = run(capsys, "indices", "--config", write_config(tmp_path, seed=2**64))
    assert code == 2
    assert "seed" in err


# --- exit-code contract -------------------------------------------------------------

# Lorentz q = 1000: coefficients below about 0.475 have v**q = 0, so the
# norms of small sequences underflow to 0.
FUZZ_SPACES = [
    QUARTER,
    {"type": "orlicz", "N": {"kind": "piecewise_power", "a0": 1.5, "a_inf": 3}},
    {"type": "lorentz", "q": 1000, "psi": {"kind": "pure_power", "a": 0.5}},
]
# The capped N inverse stops short for roots below about 2**-200, and the
# weights of this N jump by 2.33 at k = 226 of k_radius 244.
POWER_LOG_JUMP = {"type": "orlicz", "N": {"kind": "power_log", "a": 1.1391730631176669, "c": 1}}
# psi(t) = 1e-300 t**0.5 (a table, so the role checks pass): the norm of a
# witness window at k = -55 is 1.5e-308, so the base reaches 6.7e307 and a
# probe's products overflow; from k = -58 on the norm is below 1/DBL_MAX.
TINY_PSI = {"type": "lorentz", "q": 1, "psi": {"kind": "table", "points": [[1, 1e-300], [4, 2e-300]]}}
TINY_PSI_WITNESS = {"theta": 0.5, "n_copies": 4, "windows": [4]}


@pytest.mark.parametrize(
    "command", ["indices", "spectrum", "probe", "residuals", "witness", "report"]
)
@settings(max_examples=50)
@given(
    space=st.sampled_from(FUZZ_SPACES),
    log_lams=st.lists(st.floats(-300, 300), min_size=1, max_size=3),
    probe_k_radius=st.integers(1, 12),
    far_radius=st.one_of(st.none(), st.integers(13, 400)),
    n_list=st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True),
    n_random=st.integers(0, 30),
    theta=st.floats(0.0, 1.0),
    n_copies=st.integers(1, 20),
    # Witness windows near both ends of the exact block range and near 0.
    witness_k=st.one_of(
        st.none(), st.integers(-1010, -985), st.integers(-50, 50), st.integers(985, 1010)
    ),
    windows=st.lists(st.integers(1, 16), min_size=1, max_size=2),
)
def test_exit_code_contract(
    command,
    tmp_path_factory,
    space,
    log_lams,
    probe_k_radius,
    far_radius,
    n_list,
    n_random,
    theta,
    n_copies,
    witness_k,
    windows,
):
    """Every run ends in exit 0, 2 or 3; no exception escapes main."""
    if far_radius is not None and space["type"] == "orlicz":
        # Far blocks: Luxemburg roots there need long brackets.  One window
        # size and one rate keep the scan over 2 * far_radius + 1 starts cheap.
        probe_k_radius, n_list, log_lams = far_radius, n_list[:1], log_lams[:1]
    cfgpath = write_config(
        tmp_path_factory.mktemp("fuzz"),
        space=space,
        lambda_grid=[10.0**x for x in log_lams],
        k_radius=max(64, probe_k_radius),
        probe_k_radius=probe_k_radius,
        n_list=n_list,
        n_random=n_random,
        witness={
            "theta": theta,
            "n_copies": n_copies,
            "windows": windows,
            "k": witness_k,
            "n_random": n_random,
        },
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", cfgpath])
    assert code in (0, 2, 3)


NEAR_FLAT = {
    "type": "lorentz",
    "q": 64065.69163526181,
    "psi": {
        "kind": "table",
        "points": [
            [2.0**-34, 1.0],
            [2.0**-10, 56906.875527381395],
            [2.0**16, 453124775.02768135],
            [2.0**39, 460406554.9563651],
        ],
    },
}


def exponent(role: str):
    """A log-log slope at and inside the role's limit: (0, 1] for psi and
    [1, 16] for N, where 16 keeps N(2**60) of the role grid a float."""
    if role == "psi":
        return st.one_of(st.just(1.0), st.floats(1e-3, 1.0))
    return st.one_of(st.just(1.0), st.floats(1.0, 16.0))


@st.composite
def fn_jsons(draw, role: str) -> dict:
    """A function of every kind; a table through 2 to 4 points, its value at
    the first scaled by 1e-150 to 1e150."""
    kind = draw(st.sampled_from(["pure_power", "piecewise_power", "power_log", "table"]))
    if kind == "pure_power":
        return {"kind": kind, "a": draw(exponent(role))}
    if kind == "piecewise_power":
        return {"kind": kind, "a0": draw(exponent(role)), "a_inf": draw(exponent(role))}
    if kind == "power_log":
        return {"kind": kind, "a": draw(exponent(role)), "c": draw(st.floats(-4.0, 4.0))}
    xs = sorted(draw(st.sets(st.integers(-40, 40), min_size=2, max_size=4)))
    slopes = draw(st.lists(exponent(role), min_size=len(xs) - 1, max_size=len(xs) - 1))
    if role == "N":
        slopes.sort()  # convex: N's slopes do not drop at a knot
    log2_v = [draw(st.floats(-150.0, 150.0)) * math.log2(10.0)]
    for x0, x1, slope in zip(xs, xs[1:], slopes):
        log2_v.append(log2_v[-1] + (x1 - x0) * slope)
    values = [2.0**lv if lv < 1024 else math.inf for lv in log2_v]
    return {"kind": kind, "points": [[2.0**x, v] for x, v in zip(xs, values)]}


@st.composite
def run_configs(draw) -> dict:
    if draw(st.booleans()):
        q = 10.0 ** draw(st.floats(0.0, 6.0))
        space = {"type": "lorentz", "q": q, "psi": draw(fn_jsons("psi"))}
    else:
        space = {"type": "orlicz", "N": draw(fn_jsons("N"))}
    n_max = draw(st.integers(1, 250))
    k_radius = draw(st.integers(4 * n_max, 1000))
    rate = st.one_of(
        st.floats(-300.0, 300.0).map(lambda x: 10.0**x), st.floats(0.0, 1.0).map(lambda x: 2.0**x)
    )
    return {
        "space": space,
        "k_radius": k_radius,
        "n_max": n_max,
        "lambda_grid": draw(st.lists(rate, min_size=1, max_size=3)),
        "n_list": draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)),
        "probe_k_radius": min(k_radius, draw(st.integers(1, 16))),
        "n_random": draw(st.integers(0, 8)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "witness": {
            "theta": draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
            "n_copies": draw(st.integers(1, 8)),
            "windows": draw(st.lists(st.integers(1, 16), min_size=1, max_size=2)),
            "k": draw(st.one_of(st.none(), st.integers(-1000, 980))),
            "n_random": draw(st.integers(0, 8)),
        },
    }


# In a third of the configs, one probe count, window or window start past
# every bound.
HUGE_FIELDS = COUNT_FIELDS + ["witness.windows", "witness.k"]
huge_fields = st.tuples(
    st.sampled_from([None] * 10 + HUGE_FIELDS),
    st.one_of(st.integers(2**31, 10**30), st.integers(-(10**30), -(2**31))),
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cfg=run_configs(), huge=huge_fields)
@example(
    cfg={
        "space": POWER_LOG_JUMP,
        "k_radius": 244,
        "n_max": 16,
        "lambda_grid": [1.3],
        "witness": {"theta": 0.5},
    },
    huge=(None, 0),
)
# Index estimates with alpha0 2.2e-17 above beta0 (tests/test_spectra.py).
@example(
    cfg={"space": NEAR_FLAT, "k_radius": 4, "n_max": 1, "lambda_grid": [1.0], "probe_k_radius": 1},
    huge=(None, 0),
)
# Witness disjoint sums and a witness base outside the floats (TINY_PSI).
@example(
    cfg={"space": TINY_PSI, "k_radius": 64, "n_max": 16, "probe_k_radius": 16, "witness": {**TINY_PSI_WITNESS, "k": -55}},
    huge=(None, 0),
)
@example(
    cfg={"space": TINY_PSI, "k_radius": 64, "n_max": 16, "probe_k_radius": 16, "witness": {**TINY_PSI_WITNESS, "k": -60}},
    huge=(None, 0),
)
def test_exit_code_contract_on_generated_configs(cfg, huge, tmp_path_factory):
    """Every command on a generated config exits 0 with nothing on stderr, or
    2 or 3 with nothing on stdout; a numpy warning is an error here.  A huge
    field is a config error for every command, before anything large is
    allocated."""
    field, value = huge
    if field is not None:
        if field.startswith("witness."):
            w, name = cfg["witness"], field.split(".")[1]
            w[name] = [*w["windows"], value] if name == "windows" else value
        else:
            cfg[field] = value
        tracemalloc.start()
    path = tmp_path_factory.mktemp("contract") / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        for command in cli._COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
            assert code in ((0, 2, 3) if field is None else (2,)), command
            assert (err.getvalue() if code == 0 else out.getvalue()) == "", command
        if field is not None:
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


for _field in HUGE_FIELDS:  # each field past its bound at least once
    test_exit_code_contract_on_generated_configs = example(
        cfg={"space": QUARTER, "witness": {"theta": 0.5, "windows": [4]}}, huge=(_field, 10**23)
    )(test_exit_code_contract_on_generated_configs)


def test_probe_random_probes_fit_a_short_k_range(capsys, tmp_path):
    """A random probe drawn longer than the k range is cut to it."""
    cfgpath = write_config(tmp_path, probe_k_radius=4, n_random=20, n_list=[1])
    code, out, _ = run(capsys, "probe", "--config", cfgpath)
    assert code == 0
    assert len(out.splitlines()) == 1 + 2


# Warnings are errors here: an overflow warning must not reach stderr ahead
# of the failure line.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", FUZZ_SPACES, ids=["lorentz", "orlicz", "lorentz-q1000"])
@pytest.mark.parametrize("lam", [1e300, 1e308, 1e-300])
@pytest.mark.parametrize("command", ["probe", "residuals"])
def test_extreme_rate_is_numerical_failure(command, lam, space, capsys, tmp_path):
    cfgpath = write_config(tmp_path, space=space, lambda_grid=[lam])
    code, _, err = run(capsys, command, "--config", cfgpath)
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith("numerical failure:")


def test_witness_small_theta(capsys, tmp_path):
    """theta = 0.001 is p = 1000, where coefficients**p used to overflow."""
    witness = {"theta": 0.001, "n_copies": 16, "windows": [8], "n_random": 40}
    code, out, _ = run(capsys, "witness", "--config", write_config(tmp_path, witness=witness))
    assert code == 0
    assert json.loads(out)["results"][0]["distortion"] >= 1.0


# A zero norm of a nonzero probe, image or witness sum is an underflow.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,q,overrides",
    [
        ("probe", 360, {"n_random": 200, "seed": 0x5EED}),
        ("witness", 1000, {"witness": {"theta": 0.5, "n_copies": 4, "windows": [4]}}),
        ("report", 1000, {"witness": {"theta": 0.5, "n_copies": 4, "windows": [4]}}),
    ],
    ids=["probe-q360", "witness-q1000", "report-q1000"],
)
def test_norm_underflow_is_numerical_failure(command, q, overrides, capsys, tmp_path):
    cfgpath = write_config(
        tmp_path,
        space={"type": "lorentz", "q": q, "psi": {"kind": "pure_power", "a": 0.5}},
        probe_k_radius=8,
        n_list=[4],
        lambda_grid=[1.3],
        **overrides,
    )
    code, out, err = run(capsys, command, "--config", cfgpath)
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("numerical failure:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["witness", "report"])
@pytest.mark.parametrize(
    "k, message",
    [(-55, "a disjoint sum overflows: coefficient "), (-60, "the witness base at k=-60 has a norm with no float reciprocal")],
    ids=["disjoint-sum-overflows", "base-norm-has-no-reciprocal"],
)
def test_witness_outside_the_floats_is_numerical_failure(command, k, message, capsys, tmp_path):
    """Both ended in a ValueError traceback from Distribution (exit 1).  At
    the default seed a random probe has a coefficient above 2.7."""
    witness = {**TINY_PSI_WITNESS, "k": k}
    cfgpath = write_config(tmp_path, space=TINY_PSI, k_radius=64, n_max=16, probe_k_radius=16, seed=0x5EED, witness=witness)
    code, out, err = run(capsys, command, "--config", cfgpath)
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("numerical failure: " + message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["indices", "spectrum"])
def test_inverse_bracket_halving_to_zero_is_numerical_failure(command, capsys, tmp_path):
    """N(t) = 1e30 t: from block 975 on, N(t) = 2**-k needs t below the
    smallest subnormal, so the bracket of the block weight halves t to 0."""
    space = {"type": "orlicz", "N": {"kind": "table", "points": [[1, 1e30], [2, 2e30]]}}
    cfgpath = write_config(tmp_path, space=space, k_radius=1000, n_max=250)
    code, out, err = run(capsys, command, "--config", cfgpath)
    assert (code, out) == (3, "")
    assert err == (
        "numerical failure: N inverse bracketing underflows to t = 0 for u=3.13151306251402e-294\n"
    )


def linear_table(c: float) -> dict:
    """c * t as a two-point table."""
    return {"kind": "table", "points": [[1, c], [2, 2 * c]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["indices", "spectrum", "report"])
@pytest.mark.parametrize(
    "space,k",
    [
        ({"type": "orlicz", "N": linear_table(1e-100)}, -1000),
        ({"type": "lorentz", "q": 1, "psi": linear_table(1e-290)}, -1000),
        ({"type": "lorentz", "q": 1, "psi": linear_table(1e280)}, 94),
    ],
    ids=["orlicz-inverse-overflows", "lorentz-psi-underflows", "lorentz-psi-overflows"],
)
def test_block_weight_outside_the_floats_is_numerical_failure(command, space, k, capsys, tmp_path):
    """N(t) = 1e-100 t has N^-1(2**1000) = inf, psi(t) = 1e-290 t underflows at
    t = 2**-1000, and psi(t) = 1e280 t overflows from t = 2**94: the weight of
    block k is 0 or inf, which WeightSeq refused with a traceback."""
    cfgpath = write_config(tmp_path, space=space, k_radius=1000, n_max=250)
    code, out, err = run(capsys, command, "--config", cfgpath)
    assert (code, out) == (3, "")
    assert err == (
        f"numerical failure: fundamental function leaves the float range at t={2.0**k}\n"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["indices", "spectrum", "probe", "report"])
def test_block_weights_that_break_a_bound_are_numerical_failure(command, capsys, tmp_path):
    """Weights that jump by more than 2 per block: WeightSeq refused them
    with a traceback."""
    cfgpath = write_config(tmp_path, space=POWER_LOG_JUMP, k_radius=244, n_max=16)
    code, out, err = run(capsys, command, "--config", cfgpath)
    assert (code, out) == (3, "")
    assert err == (
        "numerical failure: block weights on [-244, 244] break a bound: "
        "weights must satisfy s_{k+1} <= 2 s_k\n"
    )


# --- JSON emission ----------------------------------------------------------------


def reference_emit_json(obj, pieces: list[str]) -> None:
    """The recursive emitter, one piece per scalar, before lists of floats
    were joined at once."""
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(cli._fmt_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(",")
            reference_emit_json(item, pieces)
        pieces.append("]")
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)))
            pieces.append(":")
            reference_emit_json(val, pieces)
        pieces.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_json_text(obj) -> str:
    pieces: list[str] = []
    reference_emit_json(obj, pieces)
    return "".join(pieces)


finite = st.floats(allow_nan=False, allow_infinity=False)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), finite, finite.map(np.float64), st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(finite, max_size=12),  # the lists of plain floats joined at once
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300)
@given(obj=json_values)
def test_json_text_equals_the_recursive_emitter(obj):
    assert cli.to_json_text(obj) == reference_json_text(obj)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "shape",
    [lambda x: [1.0, x, 2.0], lambda x: (x,), lambda x: {"a": [0.5, x]}, lambda x: [1, x], lambda x: x],
    ids=["float-list", "float-tuple", "nested", "mixed-list", "scalar"],
)
def test_non_finite_float_fails_as_the_recursive_emitter(bad, shape):
    with pytest.raises(NumericalError) as want:
        reference_json_text(shape(bad))
    with pytest.raises(NumericalError, match=re.escape(str(want.value))):
        cli.to_json_text(shape(bad))


# --- the parser -----------------------------------------------------------------------


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_parses(command):
    args = cli._build_parser().parse_args([command, "--config", "c.json", "--nmax", "4"])
    assert (args.command, args.config, args.nmax, args.krange, args.seed, args.out) == (
        command,
        "c.json",
        4,
        None,
        None,
        None,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sideways", "--config", "c.json"],
        ["indices"],
        ["indices", "--config", "c.json", "--nmax", "x"],
    ],
    ids=["unknown-command", "missing-config", "non-integer-nmax"],
)
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: rispect")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (help_text, _) in cli._COMMANDS.items():
        assert any(line.split(None, 1) == [name, help_text] for line in lines), name


def fresh_run(*argv) -> tuple[int, str, str]:
    """The command run in a new interpreter, which builds its own parser."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "rispect.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_successive_calls(capsys, datadir):
    """The parser is built once per process: calls with other commands and
    flags, a bad command line among them, print what fresh processes print,
    and --help still lists every command."""
    calls = [
        ("witness", "--config", str(datadir / "config_witness.json"), "--seed", "3"),
        ("indices", "--config", str(datadir / "config_l1.json"), "--nmax", "8", "--krange", "40"),
        ("spectrum", "--config", str(datadir / "config_quarter.json")),
    ]
    with pytest.raises(SystemExit):
        main(["indices", "--nmax", "x"])
    capsys.readouterr()
    for argv in calls:
        assert run(capsys, *argv) == fresh_run(*argv)
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert (exc.value.code, *capsys.readouterr()) == fresh_run("--help")


def test_options_before_the_command(capsys, tmp_path):
    cfgpath = write_config(tmp_path)
    after = run(capsys, "indices", "--config", cfgpath, "--nmax", "8")
    before = run(capsys, "--config", cfgpath, "--nmax", "8", "indices")
    assert after[0] == 0
    assert before == after


# sha256 (first 16 hex digits) of stdout + "\0" + stderr, and the exit code, of
# every command on every tests/data config, as printed before the CLI had one
# flat parser; orlicz_piecewise probe and residuals as printed since the
# Luxemburg roots take secant steps measured from the last point (at most
# 2.6e-15 relative from the Illinois roots).  At lambda = 2, argmin k moved
# from 32 to 11 (n = 4) and 26 (n = 8), inside an exact tie: for every k >= 0
# each window's values lie at or below its norm, where N is t**1.5, so every
# ratio is the same for all those k.  orlicz_powerlog, a small probe-orlicz
# shape whose norms need secant roots, is pinned at its first recording.  The
# witness command exits 2 where a config has no witness.  The two _wide
# configs scan windows out to block 900, where Luxemburg rows lie past the
# slope bracket; only their residuals are pinned.  orlicz_powerlog_wide as
# printed since those rows take the doubling search in log u: residuals
# moved by at most 1.7e-16 relative, and argmin k from 535 to 124 (n = 4)
# and 563 to 104 (n = 16), inside ties: the best ratios of every k from 94
# to 900 lie within 1e-15 relative of the minimum.
DATA_OUTPUTS = {
    ("l1", "indices"): (0, "617136a398e3077d"),
    ("l1", "spectrum"): (0, "26174f92ab685a24"),
    ("l1", "probe"): (0, "44ecf5749dfb40e4"),
    ("l1", "residuals"): (0, "98f4b0c601076fe4"),
    ("l1", "witness"): (2, "175ec17f77160285"),
    ("l1", "report"): (0, "d0dd311429516bf2"),
    ("lorentz_sqrt", "indices"): (0, "d4e9cbb3ff265d38"),
    ("lorentz_sqrt", "spectrum"): (0, "432e54cc69660cf6"),
    ("lorentz_sqrt", "probe"): (0, "0e918d228c2d436d"),
    ("lorentz_sqrt", "residuals"): (0, "2d937d01b0e20491"),
    ("lorentz_sqrt", "witness"): (2, "175ec17f77160285"),
    ("lorentz_sqrt", "report"): (0, "7f238f19908dd4ce"),
    ("lorentz_two", "indices"): (0, "e99a98ed1f347741"),
    ("lorentz_two", "spectrum"): (0, "605aa3eaf65fafea"),
    ("lorentz_two", "probe"): (0, "ba82375cf8ad4429"),
    ("lorentz_two", "residuals"): (0, "349fadab2487d217"),
    ("lorentz_two", "witness"): (2, "175ec17f77160285"),
    ("lorentz_two", "report"): (0, "3cc07dea358a051d"),
    ("orlicz_piecewise", "indices"): (0, "1953ad1181f06a49"),
    ("orlicz_piecewise", "spectrum"): (0, "85a938f50fa09ae4"),
    ("orlicz_piecewise", "probe"): (0, "747062a2cb00f36a"),
    ("orlicz_piecewise", "residuals"): (0, "2cf125c8aa22ec08"),
    ("orlicz_piecewise", "witness"): (2, "175ec17f77160285"),
    ("orlicz_piecewise", "report"): (0, "3c7a6dce2c0083ff"),
    ("orlicz_piecewise_wide", "residuals"): (0, "1a1df87a90162136"),
    ("orlicz_powerlog", "indices"): (0, "874b9a32ce2ded28"),
    ("orlicz_powerlog", "spectrum"): (0, "f31699f7ad72c0ab"),
    ("orlicz_powerlog", "probe"): (0, "3bb9dcfe67ded8a3"),
    ("orlicz_powerlog", "residuals"): (0, "313f19c9090435df"),
    ("orlicz_powerlog", "witness"): (2, "175ec17f77160285"),
    ("orlicz_powerlog", "report"): (0, "1dcb746a56d7c46a"),
    ("orlicz_powerlog_wide", "residuals"): (0, "76153ac21ff73ea0"),
    ("orlicz_square", "indices"): (0, "2f2093874c47b646"),
    ("orlicz_square", "spectrum"): (0, "55cbdd5a100b7518"),
    ("orlicz_square", "probe"): (0, "ba82375cf8ad4429"),
    ("orlicz_square", "residuals"): (0, "349fadab2487d217"),
    ("orlicz_square", "witness"): (2, "175ec17f77160285"),
    ("orlicz_square", "report"): (0, "65483e14fe73cee3"),
    ("quarter", "indices"): (0, "04ce301edf26df44"),
    ("quarter", "spectrum"): (0, "691c13e791843e57"),
    ("quarter", "probe"): (0, "c1e2bd3f8f41631a"),
    ("quarter", "residuals"): (0, "6ff79d8a50cd92fc"),
    ("quarter", "witness"): (2, "175ec17f77160285"),
    ("quarter", "report"): (0, "d1a834b3e712a058"),
    ("witness", "indices"): (0, "b19b2d6ebf9e53b2"),
    ("witness", "spectrum"): (0, "2a29db3e96e80877"),
    ("witness", "probe"): (0, "8a63583f3c2abc21"),
    ("witness", "residuals"): (0, "b41466e04abdd553"),
    ("witness", "witness"): (0, "8b48b8c3a29b3e99"),
    ("witness", "report"): (0, "0c7bcb42ce8e5637"),
}


@pytest.mark.parametrize(
    "grid", [[1.3, 1e300], [1e-300, 1.3], [1e-300, 1e300]], ids=["second-image", "window", "both"]
)
def test_probe_grid_with_a_failing_lambda_fails_as_one_lambda_at_a_time(capsys, tmp_path, datadir, grid):
    """One lambda of the grid fails (1e-300 overflows its rate's window,
    1e300 its second image): the command exits 3 with the message of the
    first lambda that fails when each is probed alone, and prints nothing."""
    raw = json.loads((datadir / "config_quarter.json").read_text())
    raw["lambda_grid"] = grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    space = spaces.space_from_json(raw["space"])
    ix = estimate_indices(block_weights(space, -raw["k_radius"], raw["k_radius"]), raw["n_max"])
    r = raw["probe_k_radius"]
    pc = ProbeConfig(-r, r, tuple(raw["n_list"]), raw["n_random"], raw["seed"])
    with pytest.raises(NumericalError) as want:
        [probe_lower_bound(space, lam, pc, ix=ix, lam_index=i) for i, lam in enumerate(sorted(grid))]
    assert run(capsys, "probe", "--config", str(path)) == (3, "", f"numerical failure: {want.value}\n")


def test_data_configs_print_the_recorded_bytes_twice(capsys, datadir):
    got = {}
    for config, command in DATA_OUTPUTS:
        path = str(datadir / f"config_{config}.json")
        first = run(capsys, command, "--config", path)
        assert run(capsys, command, "--config", path) == first
        code, out, err = first
        got[config, command] = (code, hashlib.sha256((out + "\0" + err).encode()).hexdigest()[:16])
    assert got == DATA_OUTPUTS
    configs = {p.stem[len("config_") :] for p in datadir.glob("config_*.json")}
    assert {c for c, _ in DATA_OUTPUTS} == configs
