"""Canonical text formats: key documents and ciphertext documents.

This module is the one owner of both formats; `algebra.serialize_ciphertext`
and `parse_ciphertext` only wrap `dump_ciphertext` and `load_ciphertext` to
build a `Ciphertext`, and no other module calls the private helpers below.
Documents are JSON with sorted keys, no insignificant whitespace, and a
trailing newline; every arbitrary-precision integer is a decimal string so no
JSON reader mangles it, below 2^`MAX_BITS` whatever the interpreter's
int/str digit limit, written by `_decimal` and read by `_parse_natural`
through `frozen`'s `to_decimal` and `from_decimal`.
Key and ciphertext documents share one header, `format_version` and
`algorithm`, which `_dump_document` writes and `_load_document` alone checks.
A key file's `public`, `private` and `params` objects hold exactly the
scheme's declared names (`public_fields`, `private_fields`, the keys of
`default_params`), all three read by `_fields`. A ciphertext document's body
is its `key_fingerprint` (64 lowercase hex digits), `payload` and
`scale_denominator`. Parsing a canonical document and re-serializing it is
byte-identical. The key fingerprint is the SHA-256 of the canonical
public-only key document, hashed by the interpreter's own SHA-256 module
(`_sha2`, `_sha256` before Python 3.12): the same digest as `hashlib.sha256`,
without `hashlib` loading OpenSSL into every process that reads a key.
`hashlib` is left only for an interpreter built without it.
"""

from __future__ import annotations

import json
import re
from typing import Any, Collection

from .capabilities import ALGORITHMS
from .ec import CurvePoint
from .errors import ParseError
from .frozen import from_decimal, to_decimal
from .schemes import SCHEME_CLASSES, KeyPair, Payload, variant_of
from .schemes.base import INT_PARAMS, MAX_BITS, MAX_KEY_BITS, int_param_fault, key_size_fault

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

FORMAT_VERSION = 1

# a document integer is below 2^MAX_BITS, so it has at most MAX_DIGITS
# digits: a longer text is refused before it is converted
MAX_DIGITS = 6936
_TOO_WIDE = f"has more than the {MAX_BITS} bits of a document integer"

# `key_fingerprint`'s hexdigest: a ciphertext file's fingerprint of any other
# shape can match no key pair, so it is refused where the file is read
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _require(condition: bool, field: str, detail: str) -> None:
    if not condition:
        raise ParseError(f"field {field!r}: {detail}")


def _parse_natural(value: Any, field: str) -> int:
    """A canonical decimal string of an integer below 2^MAX_BITS, refused
    before any conversion past MAX_DIGITS digits: ASCII digits, no leading
    zero, so the integer re-serializes to the same text."""
    _require(isinstance(value, str), field, "expected a decimal string")
    _require(len(value) <= MAX_DIGITS, field, _TOO_WIDE)
    _require(
        value.isascii() and value.isdigit() and (value == "0" or value[0] != "0"),
        field, f"not a canonical decimal integer: {value!r}",
    )
    number = from_decimal(value)
    _require(number.bit_length() <= MAX_BITS, field, _TOO_WIDE)
    return number


def _decimal(value: int, field: str) -> str:
    """`to_decimal(value)`, refused past MAX_BITS bits before it is
    converted, so that every document written is one `_parse_natural` reads."""
    _require(value.bit_length() <= MAX_BITS, field, _TOO_WIDE)
    return to_decimal(value)


def _dump_document(algorithm: str, body: dict[str, Any]) -> str:
    """A key or ciphertext document: its body, a fresh dict that takes the
    shared header in place."""
    body["format_version"] = FORMAT_VERSION
    body["algorithm"] = algorithm
    return canonical_json(body)


def _load_document(text: str, kind: str) -> tuple[dict[str, Any], str]:
    """The JSON object of a key or ciphertext document of this format
    version, and its algorithm."""
    try:
        doc = json.loads(text)
    # malformed, a number past the int/str digit limit, or too deeply nested
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{kind} document is not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "(document)", "expected a JSON object")
    version = doc.get("format_version")
    _require(type(version) is int and version == FORMAT_VERSION, "format_version",
             f"unknown version {version!r} (expected {FORMAT_VERSION})")
    algorithm = doc.get("algorithm")
    _require(algorithm in ALGORITHMS, "algorithm", f"unknown algorithm {algorithm!r}")
    return doc, algorithm


# -- key documents ------------------------------------------------------------


def _fields_doc(fields: dict[str, Any], part: str) -> dict[str, Any]:
    """One of `public`, `private` and `params`: integers as decimal strings."""
    doc = {}
    for name, value in fields.items():
        doc[name] = _decimal(value, f"{part}.{name}") if isinstance(value, int) else value
    return doc


def _fields(doc: Any, part: str, names: Collection[str], algorithm: str) -> dict[str, Any]:
    """One of `public`, `private` and `params`, holding exactly the names the
    scheme declares for it: each value is read as it comes, an undeclared
    name refused, then a missing one. A stray name would otherwise ride
    along, into the fingerprint or into a public-only copy, and a parent
    scheme that this one specializes would read a stray param."""
    _require(isinstance(doc, dict), part, "expected an object")
    fields: dict[str, Any] = {}
    for name, value in doc.items():
        field = f"{part}.{name}"
        _require(name in names, field, f"{algorithm} takes no such field")
        if part != "params":
            fields[name] = _parse_natural(value, field)
        elif name in INT_PARAMS:
            fields[name] = _parse_natural(value, field)
            reason = int_param_fault(name, fields[name])
            _require(reason is None, field, reason)
        else:
            _require(isinstance(value, str), field, "expected a string")
            fields[name] = value
    for name in names:
        _require(name in fields, f"{part}.{name}", "missing")
    return fields


def _key_size(bits: Any, public: dict[str, Any]) -> None:
    """The key cap, where a key file is written and where it is read:
    `security_bits` by `key_size_fault`, and the modulus every operation
    reduces by, n or p, at least 5 and at most MAX_KEY_BITS bits. A
    degenerate modulus breaks every operation, and one past the cap costs
    verdicts and powers no key size admits; the refusal names no value, so
    no modulus is formatted for it."""
    reason = key_size_fault(bits)
    _require(reason is None, "security_bits", reason)
    for name in {"n", "p"}.intersection(public):
        modulus = public[name]
        _require(type(modulus) is int and modulus >= 5 and modulus.bit_length() <= MAX_KEY_BITS,
                 f"public.{name}", f"must be at most {MAX_KEY_BITS} bits and at least 5")


def serialize_key(keys: KeyPair, include_private: bool = True) -> str:
    _key_size(keys.security_bits, keys.public)
    body = {
        "security_bits": keys.security_bits,
        "params": _fields_doc(keys.params, "params"),
        "public": _fields_doc(keys.public, "public"),
    }
    if include_private and keys.has_private:
        body["private"] = _fields_doc(keys.private, "private")
    return _dump_document(keys.algorithm, body)


def parse_key(text: str) -> KeyPair:
    doc, algorithm = _load_document(text, "key")
    cls = SCHEME_CLASSES[algorithm]
    public = _fields(doc.get("public"), "public", cls.public_fields, algorithm)
    bits = doc.get("security_bits")
    _key_size(bits, public)
    private = (_fields(doc["private"], "private", cls.private_fields, algorithm)
               if "private" in doc else None)
    params = _fields(doc.get("params", {}), "params", cls.default_params, algorithm)
    keys = KeyPair(algorithm, bits, public, private, params)
    field, detail = cls.key_fault(keys) or (None, "")
    _require(field is None, field, detail)
    return keys


def key_fingerprint(keys: KeyPair) -> str:
    public_text = serialize_key(keys, include_private=False)
    return sha256(public_text.encode()).hexdigest()


# -- ciphertext payloads ------------------------------------------------------


def _point_from_doc(doc: Any, field: str) -> CurvePoint:
    if doc is None:
        return CurvePoint(None, None)
    _require(isinstance(doc, list) and len(doc) == 2, field,
             "expected null or a two-element coordinate list")
    return CurvePoint(
        _parse_natural(doc[0], f"{field}[0]"), _parse_natural(doc[1], f"{field}[1]")
    )


def payload_to_doc(payload: Payload) -> dict[str, Any]:
    def write(value: Any, field: str) -> Any:
        if isinstance(value, int):
            return _decimal(value, field)
        if isinstance(value, CurvePoint):  # null for the identity, else (x, y)
            if value.is_identity:
                return None
            value = (value.x, value.y)
        return [write(v, f"{field}[{i}]") for i, v in enumerate(value)]

    kind = variant_of(payload)
    return {"kind": kind, "data": write(payload, "payload.data")}


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
    # pair and point_pair: two elements; bits: one per bit, at least one
    # and at most MAX_BITS, the widest encrypt writes
    pair = kind != "bits"
    _require(isinstance(data, list) and (len(data) == 2 if pair else 0 < len(data) <= MAX_BITS),
             "payload.data", f"expected a {'two' if pair else f'1- to {MAX_BITS}'}-element list")
    read = _point_from_doc if kind == "point_pair" else _parse_natural
    values = [read(v, f"payload.data[{i}]") for i, v in enumerate(data)]
    return tuple(values) if pair else values


# -- ciphertext documents -----------------------------------------------------


def dump_ciphertext(algorithm: str, payload: Payload, fingerprint: str, scale: int) -> str:
    """A ciphertext document, from `Ciphertext`'s four compared fields."""
    return _dump_document(algorithm, {
        "key_fingerprint": fingerprint,
        "payload": payload_to_doc(payload),
        "scale_denominator": _decimal(scale, "scale_denominator"),
    })


def load_ciphertext(text: str) -> tuple[str, Payload, str, int]:
    """A ciphertext document's algorithm, payload, key fingerprint and scale
    denominator, in `Ciphertext`'s order. Only their shape is checked: the
    payload against a key pair is the caller's check."""
    doc, algorithm = _load_document(text, "ciphertext")
    fingerprint = doc.get("key_fingerprint")
    _require(isinstance(fingerprint, str) and _FINGERPRINT.fullmatch(fingerprint) is not None,
             "key_fingerprint", "expected 64 lowercase hex digits (a SHA-256 digest)")
    scale = _parse_natural(doc.get("scale_denominator", "1"), "scale_denominator")
    _require(scale > 0, "scale_denominator", "must be positive")
    return algorithm, payload_from_doc(doc.get("payload"), algorithm), fingerprint, scale
