"""Per-op correctness checks on the artifacts a preset wrote.

The checks read the CSV tables themselves instead of trusting manifest
summaries, which can hide failures: Python's ``min`` skips NaN, so a
stability probe whose every row is non-finite still reports
``min_slack = inf``, and ``run_sweep`` turns exceptions into table rows.

Each check returns ``None`` when the op's outputs are correct and a short
reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import os

ROUNDTRIP_TOL = 1e-8
MODEL_RESIDUAL_TOL = 1e-10
SLACK_TOL = -1e-10


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _floats(row, skip=("scenario_hash", "status")):
    return [float(v) for k, v in row.items() if k not in skip]


def _all_finite(path) -> bool:
    return all(math.isfinite(x) for row in _rows(path) for x in _floats(row))


def _finite_le(value, limit) -> bool:
    return value is not None and math.isfinite(value) and value <= limit


def check_forward_solve(out, manifest):
    if not _finite_le(manifest["max_model_residual"], MODEL_RESIDUAL_TOL):
        return f"max_model_residual {manifest['max_model_residual']!r} > {MODEL_RESIDUAL_TOL:g}"
    for e in (1, 2):
        for table in (f"observations_source{e}.csv", f"field_source{e}.csv"):
            if not _all_finite(os.path.join(out, table)):
                return f"non-finite values in {table}"
    return None


def check_linearized_roundtrip(out, manifest):
    for key in ("max_rel_coeff_error", "max_rel_state_error"):
        if not _finite_le(manifest[key], ROUNDTRIP_TOL):
            return f"{key} {manifest[key]!r} > {ROUNDTRIP_TOL:g}"
    if not _all_finite(os.path.join(out, "reconstruction.csv")):
        return "non-finite values in reconstruction.csv"
    return None


def check_stability_probe(out, manifest):
    rows = _rows(os.path.join(out, "stability.csv"))
    if len(rows) != manifest["draws"]:
        return f"stability.csv has {len(rows)} rows for {manifest['draws']} draws"
    bad = sum(1 for r in rows
              if not all(math.isfinite(x) for x in _floats(r)) or float(r["slack"]) < SLACK_TOL)
    return f"{bad} of {len(rows)} draws non-finite or slack < {SLACK_TOL:g}" if bad else None


def check_qr_sweep(out, manifest):
    rows = _rows(os.path.join(out, "sweep.csv"))
    if not rows:
        return "sweep.csv is empty"
    errors = []
    for r in rows:
        if r["status"] != "ok":
            return f"sweep row at delta {r['delta']}: {r['status']}"
        err, bound = float(r["error_x"]), float(r["bound"])
        if not (math.isfinite(err) and math.isfinite(bound) and err <= bound):
            return f"sweep row at delta {r['delta']}: error_x {err!r} above bound {bound!r}"
        errors.append(err)
    if not all(a > b for a, b in zip(errors, errors[1:])):
        return "sweep errors not strictly decreasing"
    return None


def check_smoothing_study(out, manifest):
    rows = _rows(os.path.join(out, "smoothing.csv"))
    if not rows or not all(math.isfinite(x) for r in rows for x in _floats(r)):
        return "smoothing.csv empty or non-finite"
    errors = [float(r["hs_error"]) for r in rows]
    if not all(a > b for a, b in zip(errors, errors[1:])):
        return "smoothing errors not strictly decreasing"
    return None


CHECKS = {
    "forward-solve": check_forward_solve,
    "linearized-roundtrip": check_linearized_roundtrip,
    "stability-probe": check_stability_probe,
    "qr-sweep": check_qr_sweep,
    "smoothing-study": check_smoothing_study,
}


def check_op(preset: str, out: str):
    """Reason the op in ``out`` is wrong, or ``None``; missing files count as wrong."""
    try:
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        return CHECKS[preset](out, manifest)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable artifacts: {type(exc).__name__}: {exc}"
