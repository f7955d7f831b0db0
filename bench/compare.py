"""Reference outputs of the benchmark configs and the comparison against them.

A run's output is its CSV tables and the `headline` of its summary.json.
Numeric cells agree when they are within a relative 1e-9 (the library's
HARD_TOL); every other cell must match exactly.  Byte equality would be
the wrong test: dense SVD results already differ in the 17th digit
between one and two BLAS threads.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_output(out_dir: Path, rc) -> dict:
    """The comparable content of one run's output directory."""
    out_dir = Path(out_dir)
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            tables[path.name] = [row for row in csv.reader(fh)]
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return {"rc": rc, "tables": tables, "headline": summary["headline"]}


def _float(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def cells_agree(expected, actual) -> bool:
    if expected == actual:
        return True
    x, y = _float(expected), _float(actual)
    if x is None or y is None:
        return False
    if math.isnan(x) and math.isnan(y):
        return True
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare(expected: dict, actual: dict) -> list:
    """Human-readable mismatches between two outputs; empty when they agree."""
    problems = []
    if expected["rc"] != actual["rc"]:
        problems.append(f"exit code {actual['rc']} != {expected['rc']}")
    if set(expected["tables"]) != set(actual["tables"]):
        problems.append(f"tables {sorted(actual['tables'])} != {sorted(expected['tables'])}")
    for name in sorted(set(expected["tables"]) & set(actual["tables"])):
        want, got = expected["tables"][name], actual["tables"][name]
        if len(want) != len(got):
            problems.append(f"{name}: {len(got)} rows != {len(want)}")
            continue
        for i, (row_w, row_g) in enumerate(zip(want, got)):
            if len(row_w) != len(row_g) or not all(map(cells_agree, row_w, row_g)):
                problems.append(f"{name} row {i}: {row_g} != {row_w}")
                break
    want_h, got_h = expected["headline"], actual["headline"]
    if set(want_h) != set(got_h):
        problems.append(f"headline keys {sorted(got_h)} != {sorted(want_h)}")
    for key in sorted(set(want_h) & set(got_h)):
        if not cells_agree(want_h[key], got_h[key]):
            problems.append(f"headline {key}: {got_h[key]!r} != {want_h[key]!r}")
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, outputs: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(outputs, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(data)
    return path
