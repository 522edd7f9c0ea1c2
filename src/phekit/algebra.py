"""User-facing ciphertext algebra.

Ciphertext objects overload +, *, and ^ so encrypted arithmetic reads like
plain arithmetic; every operation re-checks the capability matrix and operand
compatibility before touching the payload. Rational scalars ride along as a
cleartext denominator on the ciphertext (division cannot happen under
encryption), and decryption divides it back out exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Optional, Union

from .capabilities import ALGORITHMS, Capability, capabilities, ensure_supported
from .errors import (
    InexactResultError,
    MathDomainError,
    OperandMismatchError,
    ParseError,
)
from .numtheory import RandomSource
from .schemes import KeyPair, Payload, generate_keys, scheme_for
from .serialization import (
    FORMAT_VERSION,
    canonical_json,
    key_fingerprint,
    payload_from_doc,
    payload_to_doc,
)

ScalarLike = Union[int, str, float, Fraction]


def to_rational(k: ScalarLike) -> Fraction:
    """Exact rational from an int, Fraction, decimal string, or float literal.

    Strings and floats go through their decimal spelling, so "1.05" and 1.05
    both mean 21/20 exactly, never the nearest binary float.
    """
    if isinstance(k, bool):
        raise MathDomainError("scalar must be a number, not a boolean")
    if isinstance(k, int):
        value = Fraction(k)
    elif isinstance(k, Fraction):
        value = k
    elif isinstance(k, str):
        try:
            value = Fraction(k)
        except (ValueError, ZeroDivisionError) as exc:
            raise MathDomainError(f"not a valid scalar: {k!r} ({exc})") from None
    elif isinstance(k, float):
        value = Fraction(str(k))
    else:
        raise MathDomainError(f"unsupported scalar type: {type(k).__name__}")
    if value < 0:
        raise MathDomainError("scalar must be non-negative")
    return value


@dataclass(frozen=True)
class Ciphertext:
    """An algorithm-tagged encrypted value.

    Equality covers algorithm, payload, fingerprint, and scale; the attached
    context (keys for operator arithmetic) is deliberately excluded so a
    parsed copy compares equal to the original.
    """

    algorithm: str
    payload: Payload
    key_fingerprint: str
    scale_denominator: int = 1
    keys: Optional[KeyPair] = field(default=None, compare=False, repr=False)

    def _context(self) -> "PHE":
        if self.keys is None:
            raise OperandMismatchError(
                "ciphertext is not bound to a key pair; parse it with keys"
            )
        return PHE(keys=self.keys)

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        if not isinstance(other, Ciphertext):
            return NotImplemented
        return self._context().add(self, other)

    def __mul__(self, other: Union["Ciphertext", ScalarLike]) -> "Ciphertext":
        if isinstance(other, Ciphertext):
            return self._context().mul(self, other)
        return self._context().scalar(other, self)

    def __rmul__(self, k: ScalarLike) -> "Ciphertext":
        return self._context().scalar(k, self)

    def __xor__(self, other: "Ciphertext") -> "Ciphertext":
        if not isinstance(other, Ciphertext):
            return NotImplemented
        return self._context().xor(self, other)


def _check_operand(
    phe: "PHE", c: Ciphertext, operation: Optional[str] = None
) -> None:
    """One ciphertext against the context: algorithm, capability, key pair."""
    if c.algorithm != phe.algorithm:
        raise OperandMismatchError(
            f"keys are for {phe.algorithm}, ciphertext is {c.algorithm}"
        )
    if operation is not None:
        ensure_supported(c.algorithm, operation)
    if c.key_fingerprint != phe.fingerprint:
        raise OperandMismatchError(
            "ciphertext was produced under a different key pair"
        )


def _binary(a: Ciphertext, b: Ciphertext, phe: "PHE", operation: str) -> Ciphertext:
    """Algorithm agreement, capability, key and scale checks, then combine."""
    if a.algorithm != b.algorithm:
        raise OperandMismatchError(
            f"cannot combine {a.algorithm} and {b.algorithm} ciphertexts"
        )
    if phe.algorithm != a.algorithm:
        raise OperandMismatchError(
            f"keys are for {phe.algorithm}, ciphertexts are {a.algorithm}"
        )
    ensure_supported(a.algorithm, operation)
    if a.key_fingerprint != phe.fingerprint or b.key_fingerprint != phe.fingerprint:
        raise OperandMismatchError(
            "ciphertexts were produced under a different key pair"
        )
    if a.scale_denominator != b.scale_denominator:
        raise OperandMismatchError(
            f"operands carry different scales "
            f"({a.scale_denominator} vs {b.scale_denominator}); "
            "apply the same scalar to both before combining"
        )
    combine = getattr(phe.scheme, operation)
    return replace(a, payload=combine(a.payload, b.payload))


def cipher_add(a: Ciphertext, b: Ciphertext, phe: "PHE") -> Ciphertext:
    return _binary(a, b, phe, "add")


def cipher_mul(a: Ciphertext, b: Ciphertext, phe: "PHE") -> Ciphertext:
    return _binary(a, b, phe, "mul")


def cipher_xor(a: Ciphertext, b: Ciphertext, phe: "PHE") -> Ciphertext:
    return _binary(a, b, phe, "xor")


def cipher_scalar(k: ScalarLike, c: Ciphertext, phe: "PHE") -> Ciphertext:
    _check_operand(phe, c, "scalar")
    value = to_rational(k)
    return replace(
        c,
        payload=phe.scheme.scalar(c.payload, value.numerator),
        scale_denominator=c.scale_denominator * value.denominator,
    )


# -- ciphertext documents -----------------------------------------------------


def serialize_ciphertext(c: Ciphertext) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": c.algorithm,
        "key_fingerprint": c.key_fingerprint,
        "payload": payload_to_doc(c.payload),
        "scale_denominator": str(c.scale_denominator),
    }
    return canonical_json(doc)


def parse_ciphertext(text: str, keys: Optional[KeyPair] = None) -> Ciphertext:
    """Parse a ciphertext document, optionally binding keys for operators.

    A fingerprint that does not match the supplied keys is accepted here and
    rejected at first use, matching how detached documents flow through the
    CLI.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"ciphertext document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("field '(document)': expected a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"field 'format_version': unknown version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    algorithm = doc.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ParseError(f"field 'algorithm': unknown algorithm {algorithm!r}")
    fingerprint = doc.get("key_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise ParseError("field 'key_fingerprint': expected a non-empty string")
    scale_doc = doc.get("scale_denominator", "1")
    if not isinstance(scale_doc, str) or not scale_doc.isdigit() or scale_doc == "0":
        raise ParseError(
            "field 'scale_denominator': expected a positive decimal string"
        )
    payload = payload_from_doc(doc.get("payload"), algorithm)
    return Ciphertext(
        algorithm=algorithm,
        payload=payload,
        key_fingerprint=fingerprint,
        scale_denominator=int(scale_doc),
        keys=keys,
    )


# -- the user-facing bundle ---------------------------------------------------


class PHE:
    """One cryptosystem, one key pair, one randomness source.

    Build with an algorithm name to generate keys, or wrap an existing
    KeyPair. Ciphertexts minted here come bound, so `c1 + c2` and `k * c`
    work directly.
    """

    def __init__(
        self,
        algorithm: Optional[str] = None,
        key_size: Optional[int] = None,
        params: Optional[dict[str, Any]] = None,
        keys: Optional[KeyPair] = None,
        rng: Optional[RandomSource] = None,
    ):
        self.rng = rng or RandomSource()
        if keys is None:
            if algorithm is None or key_size is None:
                raise MathDomainError(
                    "pass either an existing KeyPair or algorithm + key_size"
                )
            keys = generate_keys(algorithm, key_size, params, self.rng)
        self.keys = keys
        self.scheme = scheme_for(keys)
        self.fingerprint = key_fingerprint(keys)

    @property
    def algorithm(self) -> str:
        return self.keys.algorithm

    def capabilities(self) -> Capability:
        return capabilities(self.algorithm)

    def public_copy(self) -> "PHE":
        return PHE(keys=self.keys.public_only(), rng=self.rng)

    def encrypt(self, m: int, bits: Optional[int] = None) -> Ciphertext:
        if bits is not None:
            if self.algorithm != "goldwasser-micali":
                raise MathDomainError(
                    "the bits width argument only applies to goldwasser-micali"
                )
            payload = self.scheme.encrypt(m, self.rng, bits=bits)
        else:
            payload = self.scheme.encrypt(m, self.rng)
        return Ciphertext(
            algorithm=self.algorithm,
            payload=payload,
            key_fingerprint=self.fingerprint,
            keys=self.keys,
        )

    def decrypt(self, c: Ciphertext, rational: bool = False) -> Union[int, Fraction]:
        """Decrypt and divide out the cleartext scale.

        Integer mode (the default) insists the division is exact; rational
        mode returns the exact fraction whatever the scale.
        """
        _check_operand(self, c)
        value = Fraction(self.scheme.decrypt(c.payload), c.scale_denominator)
        if rational:
            return value
        if value.denominator != 1:
            raise InexactResultError(
                f"scaled value {value} is not an integer; decrypt with rational=True"
            )
        return value.numerator

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return cipher_add(a, b, self)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return cipher_mul(a, b, self)

    def xor(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return cipher_xor(a, b, self)

    def scalar(self, k: ScalarLike, c: Ciphertext) -> Ciphertext:
        return cipher_scalar(k, c, self)

    def regenerate(self, c: Ciphertext) -> Ciphertext:
        _check_operand(self, c)
        return replace(c, payload=self.scheme.regenerate(c.payload, self.rng))

    def bind(self, c: Ciphertext) -> Ciphertext:
        """Attach this instance's keys to a parsed ciphertext."""
        return replace(c, keys=self.keys)
