"""Canonical text formats for keys and ciphertext payloads.

Documents are JSON with sorted keys, no insignificant whitespace, and a
trailing newline; every arbitrary-precision integer is a decimal string so no
JSON reader mangles it. Parsing a canonical document and re-serializing it is
byte-identical. The key fingerprint is the SHA-256 of the canonical
public-only key document.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from .capabilities import ALGORITHMS
from .ec import CurvePoint
from .errors import ParseError
from .schemes import SCHEME_CLASSES, KeyPair, Payload, Scheme, variant_of
from .schemes.base import INT_PARAM_CAPS, INT_PARAMS

FORMAT_VERSION = 1


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _require(condition: bool, field: str, detail: str) -> None:
    if not condition:
        raise ParseError(f"field {field!r}: {detail}")


def _parse_natural(value: Any, field: str) -> int:
    """A canonical decimal string: ASCII digits, no leading zero, so the
    integer re-serializes to the same text."""
    _require(isinstance(value, str), field, "expected a decimal string")
    _require(
        value.isascii() and value.isdigit() and (value == "0" or value[0] != "0"),
        field, f"not a canonical decimal integer: {value!r}",
    )
    try:
        return int(value)
    except ValueError:  # past the interpreter's int/str digit limit
        raise ParseError(f"field {field!r}: {len(value)} digits is too long") from None


def _decimal(value: int, field: str) -> str:
    """str(value), or a ParseError past the interpreter's int/str digit limit."""
    try:
        return str(value)
    except ValueError:
        raise ParseError(f"field {field!r}: {value.bit_length()} bits is too long to "
                         "write in decimal (see PYTHONINTMAXSTRDIGITS)") from None


def _load_document(text: str, kind: str) -> dict[str, Any]:
    """The JSON object of a key or ciphertext document of this format version."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ParseError(f"{kind} document is not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "(document)", "expected a JSON object")
    version = doc.get("format_version")
    _require(type(version) is int and version == FORMAT_VERSION, "format_version",
             f"unknown version {version!r} (expected {FORMAT_VERSION})")
    return doc


def _params_doc(params: dict[str, Any]) -> dict[str, Any]:
    doc = {}
    for key, value in params.items():
        doc[key] = str(value) if isinstance(value, int) else value
    return doc


def _params_from_doc(doc: Any, cls: type[Scheme]) -> dict[str, Any]:
    # exactly the scheme's params: a parent scheme it specializes would read a stray one
    _require(isinstance(doc, dict), "params", "expected an object")
    params: dict[str, Any] = {}
    for key, value in doc.items():
        field = f"params.{key}"
        _require(key in cls.default_params, field, f"{cls.algorithm} takes no such parameter")
        if key in INT_PARAMS:
            params[key] = _parse_natural(value, field)
            _require(params[key] >= 1, field, "must be at least 1")
            cap = INT_PARAM_CAPS.get(key, params[key])
            _require(params[key] <= cap, field, f"must be at most {cap}")
        else:
            _require(isinstance(value, str), field, "expected a string")
            params[key] = value
    for name in cls.default_params:
        _require(name in params, f"params.{name}", "missing")
    return params


def key_document(keys: KeyPair, include_private: bool = True) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "algorithm": keys.algorithm,
        "security_bits": keys.security_bits,
        "params": _params_doc(keys.params),
        "public": {k: _decimal(v, f"public.{k}") for k, v in keys.public.items()},
    }
    if include_private and keys.has_private:
        doc["private"] = {k: _decimal(v, f"private.{k}") for k, v in keys.private.items()}
    return doc


def serialize_key(keys: KeyPair, include_private: bool = True) -> str:
    return canonical_json(key_document(keys, include_private))


def parse_key(text: str) -> KeyPair:
    doc = _load_document(text, "key")
    algorithm = doc.get("algorithm")
    _require(algorithm in ALGORITHMS, "algorithm", f"unknown algorithm {algorithm!r}")
    bits = doc.get("security_bits")
    _require(isinstance(bits, int) and not isinstance(bits, bool),
             "security_bits", "expected an integer")
    _require(bits >= 0, "security_bits", f"must be non-negative, got {bits}")
    public_doc = doc.get("public")
    _require(isinstance(public_doc, dict), "public", "expected an object")
    public = {k: _parse_natural(v, f"public.{k}") for k, v in public_doc.items()}
    private: Optional[dict[str, int]] = None
    if "private" in doc:
        private_doc = doc["private"]
        _require(isinstance(private_doc, dict), "private", "expected an object")
        private = {k: _parse_natural(v, f"private.{k}") for k, v in private_doc.items()}
    cls = SCHEME_CLASSES[algorithm]
    params = _params_from_doc(doc.get("params", {}), cls)
    for name in cls.public_fields:
        _require(name in public, f"public.{name}", "missing")
    # the modulus every operation reduces by; a degenerate one breaks them all
    for name in {"n", "p"}.intersection(cls.public_fields):
        _require(public[name] >= 5, f"public.{name}",
                 f"must be at least 5, got {public[name]}")
    if private is not None:
        for name in cls.private_fields:
            _require(name in private, f"private.{name}", "missing")
    keys = KeyPair(algorithm, bits, public, private, params)
    field, detail = cls.key_fault(keys) or (None, "")
    _require(field is None, field, detail)
    return keys


def key_fingerprint(keys: KeyPair) -> str:
    public_text = serialize_key(keys, include_private=False)
    return hashlib.sha256(public_text.encode()).hexdigest()


# -- ciphertext payloads ------------------------------------------------------


def _point_doc(point: CurvePoint) -> Optional[list[str]]:
    if point.is_identity:
        return None
    return [str(point.x), str(point.y)]


def _point_from_doc(doc: Any, field: str) -> CurvePoint:
    if doc is None:
        return CurvePoint(None, None)
    _require(isinstance(doc, list) and len(doc) == 2, field,
             "expected null or a two-element coordinate list")
    return CurvePoint(
        _parse_natural(doc[0], f"{field}[0]"), _parse_natural(doc[1], f"{field}[1]")
    )


def payload_to_doc(payload: Payload) -> dict[str, Any]:
    kind = variant_of(payload)
    if kind == "single":
        return {"kind": kind, "data": _decimal(payload, "payload.data")}
    if kind == "point_pair":
        return {"kind": kind, "data": [_point_doc(point) for point in payload]}
    return {"kind": kind,
            "data": [_decimal(v, f"payload.data[{i}]") for i, v in enumerate(payload)]}


def payload_from_doc(doc: Any, algorithm: str) -> Payload:
    _require(isinstance(doc, dict), "payload", "expected an object")
    kind = doc.get("kind")
    expected = SCHEME_CLASSES[algorithm].payload_variant
    _require(
        kind == expected, "payload.kind",
        f"algorithm {algorithm} carries a {expected} payload, document says {kind!r}",
    )
    data = doc.get("data")
    if kind == "single":
        return _parse_natural(data, "payload.data")
    if kind == "pair":
        _require(isinstance(data, list) and len(data) == 2, "payload.data",
                 "expected a two-element list")
        return (
            _parse_natural(data[0], "payload.data[0]"),
            _parse_natural(data[1], "payload.data[1]"),
        )
    if kind == "bits":
        _require(isinstance(data, list) and len(data) >= 1, "payload.data",
                 "expected a non-empty list")
        return [
            _parse_natural(v, f"payload.data[{i}]") for i, v in enumerate(data)
        ]
    # point_pair
    _require(isinstance(data, list) and len(data) == 2, "payload.data",
             "expected a two-element list")
    return (
        _point_from_doc(data[0], "payload.data[0]"),
        _point_from_doc(data[1], "payload.data[1]"),
    )
