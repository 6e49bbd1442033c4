"""Output checks for one CLI invocation.

These read the files the CLI wrote with scipy and numpy only, so they do
not depend on the code under test. Any problem raises ``OutputError``; the
caller counts the invocation as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.io import wavfile


class OutputError(Exception):
    """An output is missing, unreadable, non-finite or the wrong size."""


def read_wav(path: Path, length: int | None = None,
             rate: int = 16000) -> np.ndarray:
    """Samples of a mono WAV file, checked for rate, length and finiteness."""
    if not path.is_file():
        raise OutputError(f"{path.name}: missing")
    try:
        got_rate, data = wavfile.read(path)
    except (ValueError, OSError) as exc:
        raise OutputError(f"{path.name}: unreadable WAV ({exc})") from exc
    if data.ndim != 1 or got_rate != rate:
        raise OutputError(f"{path.name}: expected mono {rate} Hz, got "
                          f"{data.shape} at {got_rate} Hz")
    if length is not None and data.size != length:
        raise OutputError(f"{path.name}: {data.size} samples, expected "
                          f"{length}")
    samples = data.astype(np.float64)
    if not np.all(np.isfinite(samples)):
        raise OutputError(f"{path.name}: non-finite samples")
    return samples


def read_csv(path: Path, float_columns: tuple[str, ...],
             rows: int) -> list[dict]:
    """Rows of a CSV file whose ``float_columns`` all parse as finite floats."""
    if not path.is_file():
        raise OutputError(f"{path.name}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        table = list(reader)
        header = reader.fieldnames or []
    missing = [c for c in float_columns if c not in header]
    if missing:
        raise OutputError(f"{path.name}: missing columns {missing}")
    if len(table) != rows:
        raise OutputError(f"{path.name}: {len(table)} rows, expected {rows}")
    for i, row in enumerate(table):
        for col in float_columns:
            try:
                value = float(row[col])
            except (TypeError, ValueError) as exc:
                raise OutputError(
                    f"{path.name}: row {i} {col}={row[col]!r} is not a "
                    "number") from exc
            if not math.isfinite(value):
                raise OutputError(f"{path.name}: row {i} {col} is {value}")
            row[col] = value
    return table


def read_json(path: Path) -> dict:
    if not path.is_file():
        raise OutputError(f"{path.name}: missing")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise OutputError(f"{path.name}: not JSON ({exc})") from exc


def digest(paths: list[Path]) -> str:
    """SHA-256 over the names and bytes of ``paths``, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()
