"""Goldwasser-Micali: one quadratic residue per plaintext bit, XOR on top.

A plaintext integer expands to its big-endian bit list, minimal width by
default. XOR requires equal widths; use the `bits` argument of encrypt to pad
when combining values of different magnitudes.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import BitLengthError, MathDomainError, PlaintextRangeError
from ..numtheory import (
    RandomSource,
    generate_modulus,
    is_qr_mod_prime,
    jacobi,
    random_coprime_below,
)
from .base import KeyPair, Payload, Scheme


class GoldwasserMicali(Scheme):
    algorithm = "goldwasser-micali"
    payload_variant = "bits"
    public_fields = ("n", "x")
    private_fields = ("p", "q")
    n_exponents = (1, 1)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        p, q, n = generate_modulus(security_bits, rng)
        while True:
            x = random_coprime_below(n, rng)
            # non-residue modulo both primes: jacobi(x, n) = (-1)(-1) = +1,
            # so ciphertext residues are indistinguishable without p
            if not is_qr_mod_prime(x, p) and not is_qr_mod_prime(x, q):
                break
        return {"n": n, "x": x}, {"p": p, "q": q}

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        """x must be a non-residue modulo both primes. Without them, Jacobi
        symbol +1 modulo n is what can be checked: with -1, the symbol of
        each ciphertext value gives its bit away."""
        n, x = keys.public["n"], keys.public["x"]
        if n % 2 == 0:
            return "public.n", "must be odd"
        if not (0 < x < n and jacobi(x, n) == 1):
            return "public.x", "must lie below n with Jacobi symbol +1 modulo n"
        fault = super().key_fault(keys)
        primes = (keys.private["p"], keys.private["q"]) if keys.has_private else ()
        if fault is None and any(is_qr_mod_prime(x, prime) for prime in primes):
            fault = "public.x", "is a quadratic residue modulo a private prime"
        return fault

    def plaintext_bound(self) -> Optional[int]:
        return None  # any width: the payload grows with the plaintext

    def encrypt(self, m: int, rng: RandomSource, bits: Optional[int] = None) -> Payload:
        self.check_plaintext(m)
        width = max(1, m.bit_length())
        if bits is not None:
            if bits < width:
                raise PlaintextRangeError(
                    f"plaintext needs {width} bits, requested width is {bits}"
                )
            width = bits
        out = []
        for i in range(width - 1, -1, -1):
            b = (m >> i) & 1
            r = random_coprime_below(self.n, rng)
            value = r * r % self.n
            if b:
                value = value * self.x % self.n
            out.append(value)
        return out

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        m = 0
        for value in c:
            # Legendre symbol: +1 for a residue (bit 0), -1 for x times one
            symbol = jacobi(value, self.p)
            if symbol == 0:
                raise MathDomainError(
                    "ciphertext value is divisible by the private prime p"
                )
            m = (m << 1) | (symbol < 0)
        return m

    def _is_member(self, c: Payload) -> bool:
        # r^2 and x*r^2 both have Jacobi symbol +1 modulo n
        return all(0 < v < self.n and jacobi(v, self.n) == 1 for v in c)

    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        if len(c1) != len(c2):
            raise BitLengthError(
                f"bit widths differ: {len(c1)} vs {len(c2)}; "
                "encrypt with a common width to combine"
            )
        return [a * b % self.n for a, b in zip(c1, c2)]
