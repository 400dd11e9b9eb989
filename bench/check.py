"""Output checks that decide whether an op failed.

(a) ``compare``: for the default seed, every CSV column and sidecar
    value equals the stored reference, numbers to 1e-10 absolute.
(b) ``invariant_errors``: properties that hold for any seed.
(c) byte identity of a re-run is checked by the caller on raw bytes.

Each function returns a list of error strings; empty means passed. The
readers here are independent of ``ergonoise.io``.
"""

from __future__ import annotations

import json
import math

REFERENCE_TOL = 1e-10
INVARIANT_TOL = 1e-12
BDS_RESIDUAL_TOL = 1e-10
LINDBLAD_DEVIATION_TOL = 1e-6
UNITAL = ("bit_flip", "bit_phase_flip", "phase_flip", "depolarizing", "phase_damping")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict[str, list]:
    """Columns of a CSV written by the CLI; numeric cells become floats."""
    lines = text.rstrip("\n").split("\n")
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(names) for row in rows):
        raise ValueError("ragged CSV row")
    return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(names)}


def parse_output(csv_bytes: bytes, meta_bytes: bytes):
    return parse_csv(csv_bytes.decode("utf-8")), json.loads(meta_bytes.decode("utf-8"))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _diff(ref, got, where: str, tol: float, errors: list):
    if _is_number(ref) and _is_number(got):
        if not (abs(ref - got) <= tol or ref == got):
            errors.append(f"{where}: {got!r} differs from reference {ref!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            errors.append(f"{where}: keys {sorted(got)} differ from reference {sorted(ref)}")
            return
        for key in ref:
            _diff(ref[key], got[key], f"{where}.{key}", tol, errors)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            errors.append(f"{where}: length {len(got)} differs from reference {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{where}[{i}]", tol, errors)
    elif ref != got:
        errors.append(f"{where}: {got!r} differs from reference {ref!r}")


def compare(reference: dict, columns: dict, meta: dict, tol: float = REFERENCE_TOL) -> list[str]:
    """Errors where columns or sidecar differ from ``reference``."""
    errors = []
    _diff(reference["columns"], columns, "csv", tol, errors)
    _diff(reference["meta"], meta, "meta", tol, errors)
    return errors


def invariant_errors(tag: str, rows: int, columns: dict, meta: dict) -> list[str]:
    """Reference-free checks of one call's output."""
    errors = []
    for name, col in columns.items():
        if len(col) != rows:
            errors.append(f"column {name} has {len(col)} rows, expected {rows}")
        bad = [v for v in col if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            errors.append(f"column {name} holds non-finite values {bad[:3]}")
    if errors:
        return errors
    if tag == "single":
        for w, wc, c in zip(columns["W"], columns["WC"], columns["C"]):
            if w < -INVARIANT_TOL:
                errors.append(f"single: W = {w} < 0")
            if wc > c / 2 + INVARIANT_TOL:
                errors.append(f"single: WC = {wc} > C/2 = {c / 2}")
    elif tag.startswith("bds_") and meta["channel"] in UNITAL:
        worst = max(abs(r) for r in columns["residual"])
        if worst > BDS_RESIDUAL_TOL:
            errors.append(f"bds: residual {worst} exceeds {BDS_RESIDUAL_TOL}")
    elif tag.startswith("lindblad_"):
        if not meta["max_deviation"] <= LINDBLAD_DEVIATION_TOL:
            errors.append(f"lindblad: max_deviation {meta['max_deviation']} exceeds {LINDBLAD_DEVIATION_TOL}")
    elif tag.startswith("census_"):
        if min(columns["area_ap"]) < 0.0:
            errors.append(f"census: negative area {min(columns['area_ap'])}")
        if not 0.0 <= meta["fraction_enhancing"] <= 1.0:
            errors.append(f"census: fraction_enhancing {meta['fraction_enhancing']} outside [0, 1]")
    elif tag.startswith("scaling"):
        if min(columns["area_ap"]) < 0.0:
            errors.append(f"scaling: negative area {min(columns['area_ap'])}")
    return errors
