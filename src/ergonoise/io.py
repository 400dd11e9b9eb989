"""CSV and JSON-sidecar serialization for sweep results.

Numbers are written with Python's shortest round-trip float repr, the
separator is a comma with '.' decimal point, files are UTF-8 with LF
endings, and sidecar keys are sorted - so a fixed configuration always
produces byte-identical files. A file of DISTINCT_MIN_CELLS or more
float cells formats each of its distinct values (bit patterns, so -0.0
and 0.0 stay apart) once and reuses the text; the bytes are those of
formatting every cell. Sidecars are strict JSON: a non-finite number in
the metadata is rejected naming its key, never written as NaN or
Infinity.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .experiments import SweepResult


# Finding a file's distinct values costs about 0.1 ms inside a running
# command; each repeated cell it finds saves one repr (about 0.7 us).
# With a third of the cells repeated, as in the sweep files, that pays
# off from about 400 cells on, so smaller files format every cell.
DISTINCT_MIN_CELLS = 512


def _float_cells(values: np.ndarray) -> list[str]:
    """The shortest round-trip repr of every entry of a 1-D float64 array.
    From DISTINCT_MIN_CELLS entries on, each distinct value is formatted
    once, keyed on its bit pattern so that -0.0 stays apart from 0.0."""
    if len(values) < DISTINCT_MIN_CELLS:
        return list(map(repr, values.tolist()))
    distinct, where = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return text[where].tolist()


def _cells(columns) -> list[list[str]]:
    """The cells of each column of one file: floats as the shortest
    round-trip repr of their float64 value, every float column of the
    file formatted together by ``_float_cells``; everything else (ints,
    bools, strings) as str."""
    arrays = [np.asarray(v) for v in columns]
    floats = [a.astype(np.float64, copy=False) for a in arrays if a.dtype.kind == "f"]
    text = _float_cells(np.concatenate(floats)) if floats else []
    cells, start = [], 0
    for a in arrays:
        if a.dtype.kind == "f":
            cells.append(text[start : start + len(a)])
            start += len(a)
        else:
            cells.append(list(map(str, a.tolist())))
    return cells


def write_csv(path, result: SweepResult) -> Path:
    """Write the result's columns as CSV and its metadata as a sidecar.

    The sidecar lands next to the CSV with a ``.meta.json`` suffix and
    echoes the fully resolved configuration. It is written first, so
    metadata that strict JSON cannot hold leaves no files behind.
    """
    path = Path(path)
    write_sidecar(path.with_suffix(".meta.json"), result.metadata)
    names = list(result.columns)
    cells = _cells(result.columns.values())
    lines = [",".join(names), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _jsonable(value, key: str):
    """value with numpy scalars and arrays made plain; ``key`` names it
    (dotted, with list indices) in the error for a non-finite number."""
    if isinstance(value, (np.floating, float)):
        if not math.isfinite(value):
            raise ValueError(
                f"metadata value {key} = {float(value)} is not finite; strict JSON cannot hold it"
            )
        return float(value)
    if isinstance(value, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.ndarray, list, tuple)):
        return [_jsonable(v, f"{key}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {str(k): _jsonable(v, f"{key}.{k}" if key else str(k)) for k, v in value.items()}
    return value


def write_sidecar(path, metadata: dict) -> Path:
    """Write metadata as strict JSON (no NaN or Infinity) with sorted keys;
    it is serialized before any file or directory is made."""
    path = Path(path)
    payload = json.dumps(_jsonable(metadata, ""), sort_keys=True, indent=2, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload + "\n", encoding="utf-8", newline="\n")
    return path


def read_csv(path) -> dict[str, np.ndarray]:
    """Round-trip reader for the files written by ``write_csv``."""
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    out = {}
    for i, name in enumerate(names):
        col = [row[i] for row in rows]
        try:
            out[name] = np.array([float(v) for v in col])
        except ValueError:
            out[name] = np.array(col)
    return out
