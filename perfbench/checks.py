"""Output checks against the reference outputs recorded at the seed commit.

Every seed is checked for shape: the same JSON key paths, or the same CSV
header, row count and `n` column.  At the default workload seed the values
are checked too: floats at relative 1e-12 (the golden-data rule), integers
and strings (`n`, `argmin_k`, `verdict`, `case`, ...) exactly.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

REL_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_SUBCOMMANDS = ("probe", "residuals")
INT_COLUMNS = ("n", "argmin_k")


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def parse_csv(text: str) -> tuple[list, list]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _key_paths(obj, path: str, out: set) -> set:
    if isinstance(obj, dict):
        for key, val in obj.items():
            out.add(f"{path}.{key}")
            _key_paths(val, f"{path}.{key}", out)
    elif isinstance(obj, list):
        for item in obj:
            _key_paths(item, f"{path}[]", out)
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare_values(got, ref, path: str, errors: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            errors.append(f"{path}: keys differ")
            return
        for key in ref:
            _compare_values(got[key], ref[key], f"{path}.{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: list length differs")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_values(g, r, f"{path}[{i}]", errors)
    elif isinstance(ref, bool) or isinstance(got, bool) or ref is None or isinstance(ref, str):
        if got != ref or type(got) is not type(ref):
            errors.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, int) and isinstance(got, int):
        if got != ref:
            errors.append(f"{path}: {got} != {ref}")
    elif isinstance(got, (int, float)) and isinstance(ref, (int, float)):
        if not _close(float(got), float(ref)):
            errors.append(f"{path}: {got!r} differs from {ref!r} beyond rel {REL_TOL}")
    else:
        errors.append(f"{path}: {got!r} != {ref!r}")


def check_output(sub: str, got: str, ref: str, values: bool) -> list:
    """Problems with one command's stdout; empty when it passes."""
    errors: list = []
    if sub in CSV_SUBCOMMANDS:
        g_head, g_rows = parse_csv(got)
        r_head, r_rows = parse_csv(ref)
        if g_head != r_head:
            return [f"CSV columns {g_head} != {r_head}"]
        if len(g_rows) != len(r_rows):
            return [f"CSV has {len(g_rows)} rows, reference {len(r_rows)}"]
        for i, (g, r) in enumerate(zip(g_rows, r_rows)):
            for col in r_head:
                if col in INT_COLUMNS:
                    if (values or col == "n") and g[col] != r[col]:
                        errors.append(f"row {i} {col}: {g[col]} != {r[col]}")
                elif values and not _close(float(g[col]), float(r[col])):
                    errors.append(f"row {i} {col}: {g[col]} differs from {r[col]}")
        return errors
    try:
        g_doc = json.loads(got)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    r_doc = json.loads(ref)
    if _key_paths(g_doc, "", set()) != _key_paths(r_doc, "", set()):
        return ["JSON key sets differ from the reference"]
    if values:
        _compare_values(g_doc, r_doc, "", errors)
    return errors
