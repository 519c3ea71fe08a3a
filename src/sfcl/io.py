"""File ingestion and export: PPM images, JSON manifests, CSV writers.

All CSV output is locale-independent: '.' decimal point, LF line endings,
shortest round-trip float formatting.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .frequency import BoundingBox, PlanarImage

_WHITESPACE = b" \t\n\r\x0b\x0c"
# A header number is ASCII digits; int() alone also takes "+2" and "1_0".
# A minus sign passes here so that a negative size fails the size check.
_HEADER_NUMBER = re.compile(rb"-?[0-9]+")


def read_ppm(path) -> PlanarImage:
    """Read a binary (P6) 8-bit PPM into C-ordered planar RGB ``uint8`` samples.

    Header tolerance is deliberately small: whitespace-separated tokens of
    ASCII decimal digits, no comments, maxval 255, exactly one whitespace
    byte after the maxval.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P6":
        raise InputError(f"{path}: not a binary PPM (missing P6 magic)")
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1] in _WHITESPACE:
            pos += 1
        start = pos
        while pos < len(blob) and blob[pos:pos + 1] not in _WHITESPACE:
            pos += 1
        if start == pos:
            raise InputError(f"{path}: truncated PPM header")
        tokens.append(blob[start:pos])
    if not all(_HEADER_NUMBER.fullmatch(t) for t in tokens):
        raise InputError(f"{path}: non-numeric PPM header fields {tokens}")
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise InputError(f"{path}: PPM width and height must be at least 1, got {width}x{height}")
    if maxval != 255:
        raise InputError(f"{path}: only 8-bit PPM supported, maxval was {maxval}")
    if pos >= len(blob) or blob[pos:pos + 1] not in _WHITESPACE:
        raise InputError(f"{path}: expected one whitespace byte after maxval")
    pos += 1
    need = width * height * 3
    data = blob[pos:pos + need]
    if len(data) != need:
        raise InputError(f"{path}: expected {need} pixel bytes, found {len(data)}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
    return PlanarImage(np.ascontiguousarray(arr.transpose(2, 0, 1)), "rgb")


def write_ppm(path, img: PlanarImage) -> None:
    if img.color_space != "rgb":
        raise InputError(f"can only write RGB images as PPM, got {img.color_space!r}")
    px = np.clip(np.rint(img.pixels), 0, 255).astype(np.uint8)
    interleaved = px.transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        fh.write(interleaved.tobytes())


# -- manifests ------------------------------------------------------------


def _load_records(path, kind: str) -> list:
    try:
        with open(path) as fh:
            records = json.load(fh)
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise InputError(f"{path}: {kind} manifest is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise InputError(f"{path}: {kind} manifest must be a JSON array")
    return records


def _require_keys(record, required: set, optional: set, where: str) -> None:
    if not isinstance(record, dict):
        raise InputError(f"{where}: expected a JSON object, got {type(record).__name__}")
    keys = set(record)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InputError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")


def _require_file_name(record: dict, where: str) -> None:
    if not isinstance(record["file"], str):
        raise InputError(f"{where}: file must be a string, got {record['file']!r}")


def _bbox(record: dict, where: str) -> BoundingBox:
    for key in ("x", "y", "w", "h"):
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"{where}: {key} must be an integer, got {value!r}")
    return BoundingBox(record["x"], record["y"], record["w"], record["h"])


def load_bbox_manifest(path) -> Dict[str, BoundingBox]:
    """JSON array of {file, x, y, w, h} records (pixels, top-left origin), one per file."""
    out: Dict[str, BoundingBox] = {}
    for i, rec in enumerate(_load_records(path, "bounding-box")):
        _require_keys(rec, {"file", "x", "y", "w", "h"}, set(), f"{path}[{i}]")
        _require_file_name(rec, f"{path}[{i}]")
        if rec["file"] in out:
            raise InputError(f"{path}[{i}]: file {rec['file']!r} already has a box")
        out[rec["file"]] = _bbox(rec, f"{path}[{i}]")
    return out


def load_dataset_manifest(path) -> List[Tuple[str, int, Optional[BoundingBox]]]:
    """JSON array of {file, label, bbox?} records; bbox is a nested {x,y,w,h}."""
    out = []
    for i, rec in enumerate(_load_records(path, "dataset")):
        _require_keys(rec, {"file", "label"}, {"bbox"}, f"{path}[{i}]")
        _require_file_name(rec, f"{path}[{i}]")
        label = rec["label"]
        if isinstance(label, bool) or not isinstance(label, int) or label not in (0, 1):
            raise InputError(f"{path}[{i}]: label must be the integer 0 or 1, got {label!r}")
        bbox = None
        if rec.get("bbox") is not None:
            where = f"{path}[{i}].bbox"
            _require_keys(rec["bbox"], {"x", "y", "w", "h"}, set(), where)
            bbox = _bbox(rec["bbox"], where)
        out.append((rec["file"], label, bbox))
    return out


def write_dataset_manifest(path, records: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        json.dump(list(records), fh, indent=1)
        fh.write("\n")


# -- CSV ------------------------------------------------------------------


def format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else format_cell(cell)
                              for cell in row) + "\n")


def descriptor_csv_rows(entries: Iterable[Tuple[str, Optional[int], np.ndarray]],
                        with_labels: bool):
    """Header and rows for a descriptor table: file[,label],d0..d2303.

    A row's descriptor values come as one cell, already joined in
    :func:`format_cell`'s text.
    """
    width = None
    rows = []
    for name, label, values in entries:
        if width is None:
            width = values.shape[0]
        row: list = [name]
        if with_labels:
            row.append(int(label))
        row.append(",".join(map(repr, values.tolist())))
        rows.append(row)
    width = width or 0
    header = ["file"] + (["label"] if with_labels else []) + [f"d{i}" for i in range(width)]
    return header, rows
