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
from .base import Payload, Scheme


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
            x = rng.randrange(2, n)
            if x % p == 0 or x % q == 0:
                continue
            # non-residue modulo both primes: jacobi(x, n) = (-1)(-1) = +1,
            # so ciphertext residues are indistinguishable without p
            if not is_qr_mod_prime(x, p) and not is_qr_mod_prime(x, q):
                break
        return {"n": n, "x": x}, {"p": p, "q": q}

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
