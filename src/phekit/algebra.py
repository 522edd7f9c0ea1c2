"""User-facing ciphertext algebra.

Ciphertext objects overload +, *, and ^ so encrypted arithmetic reads like
plain arithmetic; every operation re-checks the capability matrix, algorithm
and key fingerprint. The payload is checked against the key pair once, where
it enters a PHE: at `bind`, or at first use when it arrives unbound or from
another PHE. Rational scalars ride along as a cleartext denominator on the
ciphertext (division cannot happen under encryption), and decryption divides
it back out exactly. A ciphertext document is written and read by
`serialization` (`dump_ciphertext`, `load_ciphertext`); `serialize_ciphertext`
and `parse_ciphertext` here only take and build the `Ciphertext`.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING, Any, Optional, Union

from .capabilities import Capability, capabilities, ensure_supported
from .errors import InexactResultError, MathDomainError, OperandMismatchError
from .frozen import Frozen
from .numtheory import RandomSource
from .schemes import KeyPair, Payload, generate_keys, scheme_for
from .serialization import dump_ciphertext, key_fingerprint, load_ciphertext, to_decimal

if TYPE_CHECKING:
    from fractions import Fraction

# `fractions` (with `decimal`) is imported only where a rational is built
ScalarLike = Union[int, str, float, "Fraction"]

# `Fraction` reads a decimal's digit strings with `int`, which refuses one past
# the int/str digit limit; an exponent escapes that, and "1e2000000" is a short
# string with a two-million-digit numerator
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


def _check_exponent(text: str) -> None:
    # with the limit off (0), the default still bounds a scalar: "1e10000000"
    # would otherwise build a 33-million-bit numerator
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    match = _EXPONENT.search(text)
    if match is None:
        return
    # the unreduced numerator or denominator has at most this many digits
    digits = sum(ch.isdigit() for ch in text[: match.start()]) + abs(int(match[1]))
    if digits > limit:
        raise ValueError(f"its exponent passes the {limit}-digit int/str limit")


def _excerpt(text: str, limit: int) -> str:
    """text, or its first `limit` characters and its length when longer."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def to_rational(k: ScalarLike) -> Fraction:
    """Exact rational from an int, Fraction, decimal string, or float literal.

    Strings and floats go through their decimal spelling, so "1.05" and 1.05
    both mean 21/20 exactly, never the nearest binary float. A NaN, an
    infinity, or an exponent that takes the numerator or denominator past the
    interpreter's int/str digit limit (its default, 4300 digits, when the limit
    is off) is a MathDomainError.
    """
    from fractions import Fraction

    if isinstance(k, bool):
        raise MathDomainError("scalar must be a number, not a boolean")
    if isinstance(k, int):
        value = Fraction(k)
    elif isinstance(k, Fraction):
        value = k
    elif isinstance(k, (str, float)):
        text = str(k)
        try:
            _check_exponent(text)
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            # both parts can repeat the whole scalar, of any length
            raise MathDomainError(
                f"not a valid scalar: {_excerpt(repr(text), 34)} ({_excerpt(str(exc), 64)})"
            ) from None
    else:
        raise MathDomainError(f"unsupported scalar type: {type(k).__name__}")
    if value < 0:
        raise MathDomainError("scalar must be non-negative")
    return value


class Ciphertext(Frozen):
    """An algorithm-tagged encrypted value.

    Equality, hashing and repr cover algorithm, payload, fingerprint, and
    scale; the attached context (keys for operator arithmetic) is
    deliberately excluded, so a parsed copy compares equal to the original
    and a repr never prints key material. `replace` copies with some fields
    changed.
    """

    _compared = ("algorithm", "payload", "key_fingerprint", "scale_denominator")
    __slots__ = _compared + ("keys",)

    def __init__(self, algorithm: str, payload: Payload, key_fingerprint: str,
                 scale_denominator: int = 1, keys: Optional[KeyPair] = None):
        self._set(algorithm, payload, key_fingerprint, scale_denominator, keys)

    def __hash__(self) -> int:
        # a Goldwasser-Micali payload is a list: hashed as the tuple of its bits
        payload = tuple(self.payload) if isinstance(self.payload, list) else self.payload
        return hash((self.algorithm, payload, self.key_fingerprint, self.scale_denominator))

    def __repr__(self) -> str:
        # `Frozen`'s repr with integers as documents write them, which no
        # int/str digit limit stops
        def shown(value: Any) -> str:
            if isinstance(value, (tuple, list)):
                inner = ", ".join(map(shown, value))
                return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
            return to_decimal(value) if type(value) is int else repr(value)

        fields = ", ".join(f"{name}={shown(getattr(self, name))}" for name in self._compared)
        return f"Ciphertext({fields})"

    def _context(self) -> "PHE":
        if self.keys is None:
            raise OperandMismatchError(
                "ciphertext is not bound to a key pair; bind it with PHE.bind"
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
    """One ciphertext against the context: algorithm, capability, key pair,
    then the payload, unless the context minted or bound the ciphertext."""
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
    if c.keys is not phe.keys:
        phe.scheme.check_payload(c.payload)


def _binary(a: Ciphertext, b: Ciphertext, phe: "PHE", operation: str) -> Ciphertext:
    """Algorithm agreement, each operand against the context, scale, combine."""
    if a.algorithm != b.algorithm:
        raise OperandMismatchError(
            f"cannot combine {a.algorithm} and {b.algorithm} ciphertexts"
        )
    # one capability check covers both: they share the algorithm
    _check_operand(phe, a, operation)
    _check_operand(phe, b)
    if a.scale_denominator != b.scale_denominator:
        raise OperandMismatchError(
            f"operands carry different scales "
            f"({a.scale_denominator} vs {b.scale_denominator}); "
            "apply the same scalar to both before combining"
        )
    combine = getattr(phe.scheme, operation)
    return a.replace(payload=combine(a.payload, b.payload))


def cipher_add(a: Ciphertext, b: Ciphertext, phe: "PHE") -> Ciphertext:
    return _binary(a, b, phe, "add")


def cipher_scalar(k: ScalarLike, c: Ciphertext, phe: "PHE") -> Ciphertext:
    _check_operand(phe, c, "scalar")
    value = to_rational(k)
    return c.replace(
        payload=phe.scheme.scalar(c.payload, value.numerator),
        scale_denominator=c.scale_denominator * value.denominator,
    )


# -- ciphertext documents -----------------------------------------------------


def serialize_ciphertext(c: Ciphertext) -> str:
    return dump_ciphertext(c.algorithm, c.payload, c.key_fingerprint, c.scale_denominator)


def parse_ciphertext(text: str) -> Ciphertext:
    """Parse a ciphertext document into an unbound Ciphertext.

    Only the document's shape is checked here: no key pair is at hand, so the
    payload is checked against one by `PHE.bind`, or at first use by any PHE,
    after that PHE's algorithm and fingerprint checks.
    """
    return Ciphertext(*load_ciphertext(text))


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
        m, scale = self.scheme.decrypt(c.payload), c.scale_denominator
        if not rational and m % scale == 0:
            return m // scale
        from fractions import Fraction

        if rational:
            return Fraction(m, scale)
        raise InexactResultError(f"scaled value {Fraction(m, scale)} is not an integer; "
                                 "decrypt with rational=True")

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return cipher_add(a, b, self)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return _binary(a, b, self, "mul")

    def xor(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return _binary(a, b, self, "xor")

    def scalar(self, k: ScalarLike, c: Ciphertext) -> Ciphertext:
        return cipher_scalar(k, c, self)

    def regenerate(self, c: Ciphertext) -> Ciphertext:
        _check_operand(self, c, "regen")
        return c.replace(payload=self.scheme.regenerate(c.payload, self.rng))

    def bind(self, c: Ciphertext) -> Ciphertext:
        """Attach this instance's keys to a parsed ciphertext, so operators
        work on it, after checking its payload against them. The algorithm
        and fingerprint are still checked at each use."""
        self.scheme.check_payload(c.payload)
        return c.replace(keys=self.keys)
