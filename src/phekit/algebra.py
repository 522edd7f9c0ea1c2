"""User-facing ciphertext algebra.

Ciphertext objects overload +, *, and ^ so encrypted arithmetic reads like
plain arithmetic; every operation re-checks the capability matrix, algorithm
and key fingerprint. The payload is checked against the key pair once, where
it enters a PHE: at `bind`, or at first use when it arrives unbound or from
another PHE. Rational scalars ride along as a cleartext denominator on the
ciphertext (division cannot happen under encryption), and decryption divides
it back out exactly. A scalar's parts and the scale it leaves have at most
`MAX_BITS` bits whatever the interpreter's int/str digit limit, so every
ciphertext a PHE returns fits in a document. A ciphertext document is
written and read by `serialization` (`dump_ciphertext`, `load_ciphertext`);
`serialize_ciphertext` and `parse_ciphertext` here only take and build the
`Ciphertext`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Union

from .capabilities import Capability, capabilities, ensure_supported
from .errors import InexactResultError, MathDomainError, OperandMismatchError
from .frozen import Frozen, int_shown
from .numtheory import RandomSource
from .schemes import KeyPair, Payload, generate_keys, scheme_for
from .schemes.base import MAX_BITS
from .serialization import MAX_DIGITS, dump_ciphertext, key_fingerprint, load_ciphertext

if TYPE_CHECKING:
    from fractions import Fraction

# `fractions` (with `decimal`) is imported only where a rational is built
ScalarLike = Union[int, str, float, "Fraction"]


def excerpt(text: str, limit: int) -> str:
    """text, or its first `limit` characters and its length when longer."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def to_rational(k: ScalarLike) -> Fraction:
    """Exact rational from an int, Fraction, decimal string, or float literal.

    Strings and floats go through their decimal spelling, so "1.05" and 1.05
    both mean 21/20 exactly, never the nearest binary float. A spelling is
    one Python 3.10's `Fraction` takes, on every interpreter, with the value
    `Fraction` gives it, read whatever the interpreter's int/str digit
    limit. A spelling it refuses (an underscore, a space at the slash, a
    NaN, an infinity, a zero denominator), a part spelled with more than
    `MAX_DIGITS` digits counting its exponent, a negative value, or a
    numerator or denominator of more than `MAX_BITS` bits is a
    MathDomainError.
    """
    from fractions import Fraction

    if isinstance(k, bool):
        raise MathDomainError("scalar must be a number, not a boolean")
    if isinstance(k, (int, Fraction)):
        value = Fraction(k)
    elif isinstance(k, (str, float)):
        from decimal import Decimal, InvalidOperation  # loaded by fractions
        from itertools import groupby

        text = str(k)
        # Fraction judges the spelling, each run of digits cut to one digit so
        # that no int/str digit limit applies, in Python 3.10's grammar on every
        # interpreter: "_" is no spelling, as 3.11 takes underscores, 3.12 spaces
        # at the slash, and 3.10 no inner space; decimal, which has no digit
        # limit, reads the digits, once each part's are counted with its exponent
        shape = "_" if "_" in text or len(text.split()) > 1 else "".join(
            "1" if digit else "".join(run) for digit, run in groupby(text, str.isdecimal))
        try:
            Fraction(shape)
            parts = [Decimal(half) for half in text.split("/")]
        except (InvalidOperation, ValueError):  # decimal refuses an exponent past 10^18
            parts = []
        if not parts or len(parts) == 2 and not parts[1]:
            raise MathDomainError(f"not a valid scalar: {excerpt(repr(text), 34)}")
        if any(len(d.as_tuple().digits) + abs(d.as_tuple().exponent) > MAX_DIGITS for d in parts):
            raise MathDomainError(f"not a valid scalar: {excerpt(repr(text), 34)} (a part past "
                                  f"{MAX_DIGITS} digits, counting its exponent)")
        value = Fraction(*map(Fraction, parts))
    else:
        raise MathDomainError(f"unsupported scalar type: {type(k).__name__}")
    if value < 0:
        raise MathDomainError("scalar must be non-negative")
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_BITS:
        raise MathDomainError(f"scalar has a numerator or denominator of more than {MAX_BITS} bits")
    return value


class Ciphertext(Frozen):
    """An algorithm-tagged encrypted value.

    Equality, hashing and repr cover algorithm, payload, fingerprint, and
    scale; the attached context (keys for operator arithmetic) is
    deliberately excluded, so a parsed copy compares equal to the original
    and a repr never prints key material. `replace` copies with some fields
    changed; a copy with a new payload is unbound unless `keys` is passed,
    so the payload is checked where it is next used.
    """

    _compared = ("algorithm", "payload", "key_fingerprint", "scale_denominator")
    __slots__ = _compared + ("keys",)

    def __init__(self, algorithm: str, payload: Payload, key_fingerprint: str,
                 scale_denominator: int = 1, keys: Optional[KeyPair] = None):
        self._set(algorithm, payload, key_fingerprint, scale_denominator, keys)

    def replace(self, **changes: Any) -> "Ciphertext":
        return super().replace(**({"keys": None} | changes if "payload" in changes else changes))

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
            f"({int_shown(a.scale_denominator)} vs {int_shown(b.scale_denominator)}); "
            "apply the same scalar to both before combining"
        )
    combine = getattr(phe.scheme, operation)
    return a.replace(payload=combine(a.payload, b.payload), keys=a.keys)


def cipher_add(a: Ciphertext, b: Ciphertext, phe: "PHE") -> Ciphertext:
    return _binary(a, b, phe, "add")


def cipher_scalar(k: ScalarLike, c: Ciphertext, phe: "PHE") -> Ciphertext:
    _check_operand(phe, c, "scalar")
    value = to_rational(k)
    scale = c.scale_denominator * value.denominator
    if scale.bit_length() > MAX_BITS:  # no document could hold the result
        raise MathDomainError(f"the scale would be {int_shown(scale)}, past {MAX_BITS} bits")
    return c.replace(payload=phe.scheme.scalar(c.payload, value.numerator),
                     scale_denominator=scale, keys=c.keys)


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

        value = Fraction(m, scale)
        if rational:
            return value
        raise InexactResultError(f"scaled value {int_shown(value.numerator)}/"
                                 f"{int_shown(value.denominator)} is not an integer; "
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
        return c.replace(payload=self.scheme.regenerate(c.payload, self.rng), keys=c.keys)

    def bind(self, c: Ciphertext) -> Ciphertext:
        """Attach this instance's keys to a parsed ciphertext, so operators
        work on it, after checking its payload against them. The algorithm
        and fingerprint are still checked at each use."""
        self.scheme.check_payload(c.payload)
        return c.replace(keys=self.keys)
