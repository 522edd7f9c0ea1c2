"""Textbook RSA: multiplicatively homomorphic, deterministic encryption."""

from __future__ import annotations

import math
from typing import Any

from ..numtheory import RandomSource, generate_modulus, mod_inv
from .base import KeyPair, ModulusScheme, Payload


class Rsa(ModulusScheme):
    algorithm = "rsa"
    public_fields = ("n", "e")
    private_fields = ("p", "q", "d")

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        self.n = self.modulus = keys.public["n"]
        self.e = keys.public["e"]
        self.d = keys.private["d"] if keys.has_private else None

    @classmethod
    def generate(
        cls, security_bits: int, params: dict[str, Any], rng: RandomSource
    ) -> KeyPair:
        p, q, n = generate_modulus(security_bits, rng)
        phi = (p - 1) * (q - 1)
        while True:
            e = rng.randrange(3, phi)
            if math.gcd(e, phi) == 1:
                break
        d = mod_inv(e, phi)
        return KeyPair(
            algorithm=cls.algorithm,
            security_bits=security_bits,
            public={"n": n, "e": e},
            private={"p": p, "q": q, "d": d},
            params=cls.resolve_params(params),
        )

    def plaintext_bound(self) -> int:
        return self.n

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        # the one scheme with no random key: same plaintext, same ciphertext
        self.check_plaintext(m)
        return self._private_pow(m, self.e)

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        self.check_payload(c)
        return self._private_pow(c, self.d)
