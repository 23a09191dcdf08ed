"""Binary checkpoint container.

Byte layout, in order:

  bytes 0..7    header length L as little-endian unsigned 64-bit integer
  bytes 8..8+L  UTF-8 JSON header: {"format_version": 1, "meta": {...},
                "tensors": [{"name": str, "rows": int, "cols": int}, ...]}
                serialized with sorted keys and no whitespace
  remainder     for each tensor in header order, rows*cols float64 values,
                little-endian, row-major, concatenated with no padding

Serialization is fully deterministic: identical inputs give identical bytes.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .graph import write_atomic

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or truncated checkpoint file."""


def save_checkpoint(path: str, tensors: list[tuple[str, np.ndarray]], meta: dict) -> None:
    entries = []
    blobs = []
    for name, arr in tensors:
        if any(e["name"] == name for e in entries):
            raise ValueError(f"tensor {name!r} is given twice")
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        if a.ndim != 2:
            raise ValueError(f"tensor {name!r} must be 2-D, got shape {a.shape}")
        entries.append({"name": name, "rows": int(a.shape[0]), "cols": int(a.shape[1])})
        blobs.append(a.astype("<f8").tobytes(order="C"))
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta, "tensors": entries},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, b"".join([struct.pack("<Q", len(header)), header, *blobs]))


def _is_entry(e) -> bool:
    return (isinstance(e, dict) and isinstance(e.get("name"), str)
            and all(type(e.get(k)) is int and e[k] >= 0 for k in ("rows", "cols")))


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (meta, {name: array}) or raises CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise CheckpointError(f"{path}: too short for a header")
    (hlen,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise CheckpointError(f"{path}: bad header: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta", {}), dict)
            and isinstance(header.get("tensors"), list)
            and all(_is_entry(e) for e in header["tensors"])):
        raise CheckpointError(f"{path}: the header must be an object with a meta object "
                              "and a list of tensor entries {name, rows >= 0, cols >= 0}")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}")
    tensors: dict[str, np.ndarray] = {}
    offset = 8 + hlen
    for entry in header["tensors"]:
        rows, cols = entry["rows"], entry["cols"]
        if entry["name"] in tensors:
            raise CheckpointError(f"{path}: tensor {entry['name']!r} appears twice")
        nbytes = rows * cols * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {entry['name']!r}")
        flat = np.frombuffer(raw[offset:offset + nbytes], dtype="<f8")
        tensors[entry["name"]] = flat.reshape(rows, cols).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return header.get("meta", {}), tensors
