"""Deterministic report emission: JSON and CSV writers, content hashing.

Outputs are pure functions of their payloads: keys are sorted, floats carry
17 significant digits in CSV, and no timestamps or environment data are
written, so re-running a configuration reproduces files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "write_json", "write_csv", "content_hash", "sanitize"]


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def sanitize(obj):
    """Make a payload JSON-serializable (numpy scalars/arrays to builtins)."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path, payload) -> None:
    body = json.dumps(sanitize(payload), sort_keys=True, indent=2)
    Path(path).write_text(body + "\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def content_hash(data: bytes) -> str:
    """Blob-style content hash: sha1 over a 'blob <len>\\0' header + payload."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()
