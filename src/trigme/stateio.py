"""State-document files: a JSON schema for pure and mixed states.

A document is an object with keys ``dims`` (list of int, each >= 2),
``kind`` (``"pure"`` or ``"mixed"``) and ``data``.  For pure states
``data`` is a list of ``[re, im]`` pairs of length ``prod(dims)``; for
mixed states it is a row-major list of rows, each a list of ``[re, im]``
pairs.  Complex numbers are never serialized as strings, and floats are
written with full shortest-round-trip precision, so emit/parse round
trips are bit exact.  An optional ``meta`` object may carry a
``checksum`` of the payload, which is verified when present.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .states import DensityMatrix, PureState

DOCUMENT_KINDS = ("pure", "mixed")

__all__ = [
    "parse_state_file",
    "parse_state_document",
    "state_document",
    "write_state_file",
    "document_checksum",
    "fixture_path",
]

def _json_list(items: list[str], newline: str = "\n") -> str:
    """Item texts in a list as ``json.dumps(..., indent=1)`` lays it out,
    each item on a line of its own after ``newline + " "``."""
    inner = newline + " "
    return "[" + inner + ("," + inner).join(items) + newline + "]" \
        if items else "[]"


def document_checksum(dims: list[int], kind: str, data) -> str:
    """sha256 over the canonical serialization of the payload."""
    payload = json.dumps({"dims": dims, "kind": kind, "data": data},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _complex_pair(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        raise ParseError(f"{where}: expected a [re, im] number pair, "
                         f"got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        bits = max(abs(x).bit_length() for x in value if isinstance(x, int))
        raise ParseError(f"{where}: an integer of {bits} bits is too large "
                         f"for a float") from None


def parse_state_document(doc, tol: float = 1e-9,
                         where: str = "document") -> PureState | DensityMatrix:
    """Validate a parsed JSON object into a typed state.

    Structural problems raise :class:`ParseError` naming the offending
    field; invariant violations raise :class:`ValidationError` naming
    the failed check and the measured value.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got "
                         f"{type(doc).__name__}")
    for key in ("dims", "kind", "data"):
        if key not in doc:
            raise ParseError(f"{where}: missing required field '{key}'")

    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(d, int) and not isinstance(d, bool)
                       for d in dims)):
        raise ParseError(f"{where}.dims: expected a nonempty list of "
                         f"integers, got {dims!r}")
    if any(d < 2 for d in dims):
        raise ParseError(f"{where}.dims: local dimensions must be >= 2, "
                         f"got {dims!r}")
    d = 1
    for x in dims:
        d *= x

    kind = doc["kind"]
    if kind not in DOCUMENT_KINDS:
        raise ParseError(f"{where}.kind: expected one of {DOCUMENT_KINDS}, "
                         f"got {kind!r}")

    data = doc["data"]
    if not isinstance(data, list):
        raise ParseError(f"{where}.data: expected a list")

    meta = doc.get("meta")
    if meta is not None:
        if not isinstance(meta, dict):
            raise ParseError(f"{where}.meta: expected an object")
        recorded = meta.get("checksum")
        if recorded is not None:
            try:
                actual = document_checksum(dims, kind, data)
            except RecursionError:
                raise ParseError(f"{where}.data: nested too deeply") from None
            if recorded != actual:
                raise ParseError(
                    f"{where}.meta.checksum: recorded {recorded} does not "
                    f"match payload checksum {actual}")

    if kind == "pure":
        if len(data) != d:
            raise ParseError(f"{where}.data: expected {d} amplitudes for "
                             f"dims {dims}, got {len(data)}")
        amps = np.array([_complex_pair(v, f"{where}.data[{k}]")
                         for k, v in enumerate(data)])
        return PureState(tuple(dims), amps, tol=tol)

    if len(data) != d:
        raise ParseError(f"{where}.data: expected {d} rows for dims "
                         f"{dims}, got {len(data)}")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{where}.data[{i}]: expected a row of {d} "
                             f"entries")
        rows.append([_complex_pair(v, f"{where}.data[{i}][{j}]")
                     for j, v in enumerate(row)])
    return DensityMatrix(tuple(dims), np.array(rows), tol=tol)


def parse_state_file(path, tol: float = 1e-9) -> PureState | DensityMatrix:
    """Load and validate a state document from ``path``."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc

    def refuse(token: str):
        raise ValueError(f"non-finite number {token} is not allowed")

    try:
        doc = json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:  # non-finite, or past the digit limit
        raise ParseError(f"{p}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{p}: JSON nested too deeply") from None
    return parse_state_document(doc, tol=tol, where=str(p))


def state_document(state: PureState | DensityMatrix,
                   meta: dict | None = None) -> dict:
    """Serialize a typed state into a document object.

    A payload checksum is always recorded under ``meta.checksum``, so
    every key of ``meta`` must be a str; the rest of ``meta`` must be
    JSON that :func:`parse_state_file` accepts, so no NaN or infinity.
    """
    out_meta = dict(meta or {})
    for key in out_meta:
        if not isinstance(key, str):
            raise ValidationError(f"meta key {key!r} is not a str")
    try:
        json.dumps(out_meta, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(
            f"meta is not writable as JSON: {exc}") from None
    dims = [int(d) for d in state.dims]
    pure = isinstance(state, PureState)
    kind = "pure" if pure else "mixed"
    v = state.amplitudes if pure else state.entries
    data = np.stack([v.real, v.imag], axis=-1).tolist()
    out_meta["checksum"] = document_checksum(dims, kind, data)
    return {"dims": dims, "kind": kind, "data": data, "meta": out_meta}


def write_state_file(state: PureState | DensityMatrix, path,
                     meta: dict | None = None) -> None:
    Path(path).write_text(render_state_document(state, meta),
                          encoding="utf-8")


def render_state_document(state: PureState | DensityMatrix,
                          meta: dict | None = None) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1) + "\\n"`` of the
    document: json writes the envelope, and ``"data"``, which sorts
    first, is laid out here from the state's finite floats."""
    doc = state_document(state, meta)
    data = doc.pop("data")
    if doc["kind"] == "pure":
        text = _json_list(["[\n   %r,\n   %r\n  ]" % (re, im)
                           for re, im in data], "\n ")
    else:
        text = _json_list([_json_list(["[\n    %r,\n    %r\n   ]" % (re, im)
                                       for re, im in row], "\n  ")
                           for row in data], "\n ")
    return ('{\n "data": ' + text + ","
            + json.dumps(doc, sort_keys=True, indent=1)[1:] + "\n")


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped as package data."""
    p = Path(__file__).parent / "fixtures" / name
    if not p.exists():
        raise ValidationError(f"unknown fixture {name!r}")
    return p
