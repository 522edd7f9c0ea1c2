"""Shared cryptosystem machinery: key pairs, payload variants, the scheme ABC.

Every cryptosystem subclasses :class:`Scheme`; those whose ciphertexts live
modulo one integer share :class:`ModulusScheme`. Capability checks happen
here so a raw operation on the wrong scheme fails with the fixed wording
before any arithmetic runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Optional, Union

from ..capabilities import ensure_supported
from ..ec import CurvePoint
from ..errors import (
    MathDomainError,
    MissingPrivateKeyError,
    OperandMismatchError,
    PayloadTypeError,
    PlaintextRangeError,
)
from ..numtheory import RandomSource, mod_pow

# single: int | pair: (int, int) | bits: list[int] | point_pair: (CurvePoint, CurvePoint)
Payload = Union[int, tuple, list]


@dataclass(frozen=True)
class KeyPair:
    """One algorithm's key material.

    `public` never contains private material; `private` is None for
    public-only copies. `params` holds the resolved tunables the keys were
    generated with (curve name, DLP bound, block size, and so on). Treat
    instances and their maps as immutable after creation.
    """

    algorithm: str
    security_bits: int
    public: dict[str, int]
    private: Optional[dict[str, int]] = None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def has_private(self) -> bool:
        return self.private is not None

    def public_only(self) -> "KeyPair":
        return replace(self, private=None)


def variant_of(payload: Payload) -> str:
    """Classify a payload value into its variant tag."""
    if isinstance(payload, bool):
        raise PayloadTypeError("payload must not be a boolean")
    if isinstance(payload, int):
        return "single"
    if isinstance(payload, list) and payload and all(
        isinstance(v, int) and not isinstance(v, bool) for v in payload
    ):
        return "bits"
    if isinstance(payload, tuple) and len(payload) == 2:
        a, b = payload
        if isinstance(a, int) and isinstance(b, int):
            return "pair"
        if isinstance(a, CurvePoint) and isinstance(b, CurvePoint):
            return "point_pair"
    raise PayloadTypeError(f"unrecognized ciphertext payload: {payload!r}")


class Scheme(ABC):
    """One cryptosystem bound to a key pair.

    Subclasses implement `generate`, `encrypt`, `decrypt`, and the raw
    operation hooks their capability row allows. Instances precompute
    decryption constants when the private part is present, so reuse one
    instance across many calls.
    """

    algorithm: ClassVar[str]
    payload_variant: ClassVar[str]
    default_params: ClassVar[dict[str, Any]] = {}

    def __init__(self, keys: KeyPair):
        if keys.algorithm != self.algorithm:
            raise OperandMismatchError(
                f"key pair is for {keys.algorithm!r}, scheme is {self.algorithm!r}"
            )
        self.keys = keys

    @classmethod
    def resolve_params(cls, params: Optional[dict[str, Any]]) -> dict[str, Any]:
        resolved = dict(cls.default_params)
        if params:
            unknown = set(params) - set(cls.default_params)
            if unknown:
                raise MathDomainError(
                    f"unknown {cls.algorithm} parameter(s): {', '.join(sorted(unknown))}"
                )
            resolved.update(params)
        return resolved

    @classmethod
    @abstractmethod
    def generate(
        cls, security_bits: int, params: dict[str, Any], rng: RandomSource
    ) -> KeyPair:
        """Produce a fresh key pair at the given modulus/curve size."""

    @abstractmethod
    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        ...

    @abstractmethod
    def decrypt(self, c: Payload) -> int:
        ...

    def plaintext_bound(self) -> Optional[int]:
        """Exclusive upper bound on plaintexts, or None when unbounded."""
        return None

    # -- validation helpers -------------------------------------------------

    def check_plaintext(self, m: int) -> None:
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise PlaintextRangeError("plaintext must be a non-negative integer")
        bound = self.plaintext_bound()
        if bound is not None and m >= bound:
            raise PlaintextRangeError(
                f"plaintext {m} out of range for {self.algorithm}: must be below {bound}"
            )

    def check_payload(self, c: Payload) -> None:
        got = variant_of(c)
        if got != self.payload_variant:
            raise PayloadTypeError(
                f"{self.algorithm} expects a {self.payload_variant} payload, got {got}"
            )

    def require_private(self) -> None:
        if not self.keys.has_private:
            raise MissingPrivateKeyError(
                f"operation requires the {self.algorithm} private key"
            )

    # -- capability-gated raw operations ------------------------------------

    def add(self, c1: Payload, c2: Payload) -> Payload:
        ensure_supported(self.algorithm, "add")
        self.check_payload(c1)
        self.check_payload(c2)
        return self._combine(c1, c2)

    def mul(self, c1: Payload, c2: Payload) -> Payload:
        ensure_supported(self.algorithm, "mul")
        self.check_payload(c1)
        self.check_payload(c2)
        return self._combine(c1, c2)

    def xor(self, c1: Payload, c2: Payload) -> Payload:
        ensure_supported(self.algorithm, "xor")
        self.check_payload(c1)
        self.check_payload(c2)
        return self._combine(c1, c2)

    def scalar(self, c: Payload, k: int) -> Payload:
        ensure_supported(self.algorithm, "scalar")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise MathDomainError("scalar must be a non-negative integer")
        self.check_payload(c)
        return self._scalar(c, k)

    def regenerate(self, c: Payload, rng: RandomSource) -> Payload:
        """Re-randomize: fold in a fresh encryption of zero."""
        ensure_supported(self.algorithm, "regen")
        self.check_payload(c)
        return self._combine(c, self.encrypt(0, rng))

    # Hooks; only reachable when the capability matrix allows the operation.
    # Each scheme has one homomorphic operation, so one combine hook serves
    # add, mul and xor alike.
    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        raise NotImplementedError

    def _scalar(self, c: Payload, k: int) -> Payload:
        raise NotImplementedError


class ModulusScheme(Scheme):
    """A scheme whose ciphertexts are integers modulo one `modulus`.

    Combining multiplies two ciphertexts and a scalar raises one to a power,
    both modulo `modulus`; subclasses set it in their constructor.
    """

    payload_variant = "single"
    modulus: int

    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        return c1 * c2 % self.modulus

    def _scalar(self, c: Payload, k: int) -> Payload:
        return mod_pow(c, k, self.modulus)
