"""Shared cryptosystem machinery: key pairs, payload variants, the scheme ABC.

Every cryptosystem subclasses :class:`Scheme`, which owns the key lifecycle:
`generate` resolves parameters, calls the scheme's `_keygen` and builds the
KeyPair, and the constructor binds each declared key field as an attribute.
Those whose ciphertexts live modulo one integer share :class:`ModulusScheme`,
whose private-key powers run modulo the prime-power factors of that integer.
Capability checks happen here so a raw operation on the wrong scheme fails
with the fixed wording before any arithmetic runs. The raw operations trust
their payloads: the algebra layer runs `check_payload` where one enters.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Callable, ClassVar, Optional, Union

from ..capabilities import ensure_supported
from ..ec import CurvePoint
from ..errors import (
    MathDomainError,
    MissingPrivateKeyError,
    OperandMismatchError,
    PayloadTypeError,
    PlaintextRangeError,
)
from ..frozen import Frozen, int_shown
from ..numtheory import RandomSource, binomial_log, is_probable_prime, mod_inv

# single: int | pair: (int, int) | bits: list[int] | point_pair: (CurvePoint, CurvePoint)
Payload = Union[int, tuple, list]

# the parameters that hold positive integers, at key generation as in key
# files; every other parameter is a string
INT_PARAMS = frozenset({"s", "dlp_bound", "block_size", "prime_count", "plaintext_bits"})
# the largest value of an integer parameter that has one, at both doors: the
# first decrypt under a dlp_bound, or a Benaloh block r, builds
# isqrt(dlp_bound) + 1, or isqrt(r - 1) + 1, baby steps
INT_PARAM_CAPS = {"dlp_bound": 1 << 32, "block_size": 1 << 32}
# the key cap, in bits: every key size and every key file's modulus (n, or
# the ElGamal family's p), at both doors; the modulus of security level 192
MAX_KEY_BITS = 7680
# the size ceiling, in bits: Damgard-Jurik's ciphertext modulus,
# Goldwasser-Micali's plaintexts and widths, and every document integer,
# in digits (`serialization.MAX_DIGITS`); that of Damgard-Jurik's default
# s = 2 at the key cap, so a Paillier n^2 never reaches it
MAX_BITS = 3 * MAX_KEY_BITS


def int_param_fault(name: str, value: Any) -> Optional[str]:
    """Why `value` cannot be the integer parameter `name`, or None: the one
    rule of key generation and key files. The reason names no value, so no
    integer past the cap is ever formatted."""
    if type(value) is not int or value < 1:  # a bool is no int here
        return "must be a positive integer"
    if value > INT_PARAM_CAPS.get(name, value):
        return f"must be at most {INT_PARAM_CAPS[name]}"
    return None


def key_size_fault(bits: Any) -> Optional[str]:
    """Why `bits` cannot be a key size, or None: the one rule of key
    generation and key files (0 lets the curve param pick EC-ElGamal's
    size). A size past 2048 bits is named by its bits."""
    if type(bits) is int and 0 <= bits <= MAX_KEY_BITS:  # a bool is no int here
        return None
    got = int_shown(bits) if type(bits) is int else f"{bits!r:.40}"
    return f"must be an integer from 0 to {MAX_KEY_BITS}, got {got}"


class KeyPair(Frozen):
    """One algorithm's key material.

    `public` never contains private material; `private` is None for
    public-only copies. `params` holds the resolved tunables the keys were
    generated with (curve name, DLP bound, block size, and so on), a new
    empty dict when not given. Treat instances and their maps as immutable
    after creation; `replace` copies with some fields changed.
    """

    __slots__ = _compared = ("algorithm", "security_bits", "public", "private", "params")

    def __init__(self, algorithm: str, security_bits: int, public: dict[str, int],
                 private: Optional[dict[str, int]] = None, params: Optional[dict] = None):
        self._set(algorithm, security_bits, public, private, {} if params is None else params)

    @property
    def has_private(self) -> bool:
        return self.private is not None

    def public_only(self) -> "KeyPair":
        return self.replace(private=None)


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
    # named by type and length, not by its repr, which could be of any size
    size = f" of length {len(payload)}" if hasattr(payload, "__len__") else ""
    raise PayloadTypeError(f"unrecognized ciphertext payload: a {type(payload).__name__}{size}")


class Scheme(ABC):
    """One cryptosystem bound to a key pair.

    Subclasses declare the fields of each half of a key pair in
    `public_fields` and `private_fields`, and implement `_keygen`,
    `encrypt`, `decrypt`, the `_is_member` test of `check_payload`, and the
    raw operation hooks their capability row allows. The constructor sets
    one attribute per declared field (a private field is None on a
    public-only key); subclass constructors add only derived constants.
    One build rule holds for every scheme: a private key's per-prime and
    decryption constants are built with the instance (for a modulus scheme,
    `ModulusScheme._primes`), and tables are built on first use, so reuse
    one instance across many calls. The tables are the baby steps of the
    discrete-log schemes (first decrypt; each step keyed by 60 bits of its
    element, about 92 KB at dlp_bound 2^20 whatever the element's size),
    the fixed-base powers of the ElGamal family's g and h (first
    encryption; about 28 KB per base at 1024 bits) and those of
    Okamoto-Uchiyama's h with the private key (first private encryption):
    one table modulo p^2 and one modulo q (about 17 KB and 5 KB at 1024
    bits). A public-only Okamoto-Uchiyama key raises h with a plain power.
    """

    algorithm: ClassVar[str]
    payload_variant: ClassVar[str]
    default_params: ClassVar[dict[str, Any]] = {}
    # the fields the scheme reads from each half of a key pair; each one
    # becomes an attribute of the same name
    public_fields: ClassVar[tuple[str, ...]]
    private_fields: ClassVar[tuple[str, ...]]
    # (a, b) with public n = p**a * q**b for the private primes p and q;
    # None when the private key is not a factorization of n
    n_exponents: ClassVar[Optional[tuple[int, int]]] = None

    def __init__(self, keys: KeyPair):
        if keys.algorithm != self.algorithm:
            raise OperandMismatchError(
                f"key pair is for {keys.algorithm!r}, scheme is {self.algorithm!r}"
            )
        self.keys = keys
        for name in self.public_fields:
            setattr(self, name, keys.public[name])
        for name in self.private_fields:
            setattr(self, name, keys.private[name] if keys.has_private else None)

    @classmethod
    def resolve_params(cls, params: Optional[dict[str, Any]]) -> dict[str, Any]:
        resolved = dict(cls.default_params)
        if params:
            unknown = set(params) - set(cls.default_params)
            if unknown:
                raise MathDomainError(
                    f"unknown {cls.algorithm} parameter(s): {', '.join(sorted(unknown))}"
                )
            for name in INT_PARAMS.intersection(params):
                reason = int_param_fault(name, params[name])
                if reason is not None:
                    raise MathDomainError(f"{cls.algorithm} parameter {name} {reason}")
            resolved.update(params)
        return resolved

    @classmethod
    def generate(
        cls, security_bits: int, params: dict[str, Any], rng: RandomSource
    ) -> KeyPair:
        """Produce a fresh key pair at the given modulus/curve size, checked
        by `key_size_fault` before anything is drawn; each scheme keeps its
        own lower bound."""
        reason = key_size_fault(security_bits)
        if reason is not None:
            raise MathDomainError(f"{cls.algorithm} key size {reason}")
        resolved = cls.resolve_params(params)
        public, private = cls._keygen(security_bits, resolved, rng)
        return KeyPair(
            algorithm=cls.algorithm,
            security_bits=security_bits,
            public=public,
            private=private,
            params=resolved,
        )

    @classmethod
    @abstractmethod
    def _keygen(
        cls, security_bits: int, params: dict[str, Any], rng: RandomSource
    ) -> tuple[dict[str, int], dict[str, int]]:
        """(public, private) fields of a fresh key pair. `params` is resolved;
        a scheme that derives a parameter during the search writes it there."""

    @abstractmethod
    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        ...

    @abstractmethod
    def decrypt(self, c: Payload) -> int:
        ...

    @abstractmethod
    def plaintext_bound(self) -> int:
        """Exclusive upper bound on plaintexts: every scheme has one."""

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        """(field, reason) when a parsed key pair cannot be the scheme's, else None;
        here, coprime private primes must factor n as p**a * q**b (`n_exponents`),
        or the CRT that joins their halves would not exist. Then each must be
        prime, the one test here that costs a power: every decryption formula
        assumes it, and coprime composite factors decrypt wrong."""
        if cls.n_exponents is None or not keys.has_private:
            return None
        (a, b), p, q = cls.n_exponents, keys.private["p"], keys.private["q"]
        if not (p > 1 and q > 1 and math.gcd(p, q) == 1 and p**a * q**b == keys.public["n"]):
            return "private", f"p and q do not factor public.n as p^{a} * q^{b} with gcd(p, q) = 1"
        if not (is_probable_prime(p) and is_probable_prime(q)):
            return "private", "p and q must be primes"
        return None

    # -- validation helpers -------------------------------------------------

    def check_plaintext(self, m: int) -> None:
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise PlaintextRangeError("plaintext must be a non-negative integer")
        bound = self.plaintext_bound()
        if m >= bound:
            raise PlaintextRangeError(f"plaintext {int_shown(m)} out of range for "
                                      f"{self.algorithm}: must be below {int_shown(bound)}")

    def check_payload(self, c: Payload) -> None:
        """Accept exactly the payloads this key pair's ciphertexts can take."""
        got = variant_of(c)
        if got != self.payload_variant:
            raise PayloadTypeError(
                f"{self.algorithm} expects a {self.payload_variant} payload, got {got}"
            )
        if not self._is_member(c):
            raise PayloadTypeError(
                f"{self.algorithm} payload is not a ciphertext under this key pair"
            )

    @abstractmethod
    def _is_member(self, c: Payload) -> bool:
        """Whether a payload of the right variant lies in the ciphertext set."""

    def require_private(self) -> None:
        if not self.keys.has_private:
            raise MissingPrivateKeyError(
                f"operation requires the {self.algorithm} private key"
            )

    # -- capability-gated raw operations ------------------------------------

    def add(self, c1: Payload, c2: Payload) -> Payload:
        ensure_supported(self.algorithm, "add")
        return self._combine(c1, c2)

    def mul(self, c1: Payload, c2: Payload) -> Payload:
        ensure_supported(self.algorithm, "mul")
        return self._combine(c1, c2)

    def xor(self, c1: Payload, c2: Payload) -> Payload:
        ensure_supported(self.algorithm, "xor")
        return self._combine(c1, c2)

    def scalar(self, c: Payload, k: int) -> Payload:
        ensure_supported(self.algorithm, "scalar")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise MathDomainError("scalar must be a non-negative integer")
        return self._scalar(c, k)

    def regenerate(self, c: Payload, rng: RandomSource) -> Payload:
        """Re-randomize: fold in a fresh encryption of zero."""
        ensure_supported(self.algorithm, "regen")
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
    both modulo `modulus` = `n ** modulus_power`, with the public
    n = p**a * q**b (`n_exponents`). A private key's per-prime constants,
    `_primes`, are built with the instance by `Scheme`'s build rule; every
    private-key power runs per prime-power factor of `modulus` and is joined
    by `_per_prime`, the one join of per-prime results.
    """

    payload_variant = "single"
    n_exponents = (1, 1)
    modulus_power = 1
    # the public bases that encryption raises to powers, decryption's log base first
    generators: ClassVar[tuple[str, ...]] = ("g",)

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        if keys.has_private:
            rows = []
            for prime, a in zip((self.p, self.q), self.n_exponents):
                k = a * self.modulus_power
                # h_p inverts e_p modulo p^(k-1), with g^(p-1) = (1+p)^e_p mod p^k
                h = None if k == 1 else mod_inv(binomial_log(
                    pow(self.g, prime - 1, prime**k), prime, k - 1), prime ** (k - 1))
                rows.append((prime, prime**k, prime ** (k - 1) * (prime - 1), h))
            # (prime, p^k, order of the units mod p^k, h_p or None) per prime,
            # then p^k's inverse modulo q^k
            self._primes = (*rows, pow(rows[0][1], -1, rows[1][1]))

    @cached_property
    def modulus(self) -> int:
        return self.n**self.modulus_power

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        """Past the factors of n and the scheme's own parameters
        (`_params_fault`): each of `generators` must be a unit other than 1
        below the modulus, or its powers would not hide what they carry.
        With the private key, g^(p-1) must not be 1 modulo p^2 at a prime
        whose h_p `_log_decrypt` reads, or that h_p would not exist."""
        fault = super().key_fault(keys) or cls._params_fault(keys)
        if fault is not None:
            return fault
        scheme = cls(keys.public_only())
        for name in cls.generators:
            value = getattr(scheme, name)
            if not (value != 1 and scheme._is_member(value)):
                return f"public.{name}", "must be a unit other than 1 below the modulus"
        if keys.has_private:
            for prime, a in zip((keys.private["p"], keys.private["q"]), cls.n_exponents):
                if a * scheme.modulus_power == 1:
                    continue
                g, square = scheme.g, prime * prime
                # for g = 1 + kp, g^(p-1) = 1 - kp (mod p^2), which is 1 exactly
                # when g = 1 (mod p^2): no power for such a g, as g = n+1 is
                if (g % square if g % prime == 1 else pow(g, prime - 1, square)) == 1:
                    return "public.g", "its (p-1)-th power is 1 modulo p^2 for a private prime p"
        return None

    @classmethod
    def _params_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        """(field, reason) when a parameter of the scheme, in params or in the
        public half, is out of its domain; checked once the factors are."""
        return None

    def _per_prime(self, part: Callable[[int, int, int, int], int]) -> int:
        """The residue modulo `modulus` that is part(i, prime, p^k, order of
        the units mod p^k) modulo each prime-power factor p^k of it, at row
        i of `_primes`, joined by CRT with the inverse `_primes` stores: the
        one join of per-prime results."""
        (p, p_k, order_p, _), (q, q_k, order_q, _), p_k_inv = self._primes
        x_p = part(0, p, p_k, order_p)
        return x_p + p_k * ((part(1, q, q_k, order_q) - x_p) * p_k_inv % q_k)

    def _private_pow(self, x: int, e: int) -> int:
        """x**e mod `modulus`, the same integer as builtin `pow`.

        With the private key, the power runs modulo each prime-power factor
        of `modulus` (`_per_prime`). The exponent is reduced by a factor's
        group order only where x is a unit modulo that factor.
        """
        if not self.keys.has_private:
            return pow(x, e, self.modulus)
        return self._per_prime(
            lambda _, prime, prime_k, order: pow(x, e % order if x % prime else e, prime_k))

    def _log_decrypt(self, c: int) -> int:
        """m from c = g^m * x with x^(p-1) = 1 mod p^k: for each prime with
        k >= 2, c^(p-1) mod p^k is (1+p)^(m * e_p), so h_p times its exponent
        in base p is m mod p^(k-1); two such residues join by CRT."""
        self.require_private()
        (p, p_k, _, h_p), (q, q_k, _, h_q), p_k_inv = self._primes
        p_digits, q_digits = (a * self.modulus_power - 1 for a in self.n_exponents)
        m_p = binomial_log(pow(c, p - 1, p_k), p, p_digits) * h_p % (p_k // p)
        if h_q is None:
            return m_p
        m_q = binomial_log(pow(c, q - 1, q_k), q, q_digits) * h_q % (q_k // q)
        # p^k * p_k_inv = 1 mod q^k, so p * p_k_inv inverts p^(k-1) mod q^(k-1)
        return m_p + p_k // p * ((m_q - m_p) * p * p_k_inv % (q_k // q))

    def _is_member(self, c: Payload) -> bool:
        # a unit below the modulus: every power of g, r and h is one
        return 0 < c < self.modulus and math.gcd(c, self.n) == 1

    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        return c1 * c2 % self.modulus

    def _scalar(self, c: Payload, k: int) -> Payload:
        return pow(c, k, self.modulus)
