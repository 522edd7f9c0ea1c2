"""Paillier: additively homomorphic modulo n, ciphertexts modulo n^2."""

from __future__ import annotations

from typing import Any

from ..numtheory import (
    RandomSource,
    generate_modulus,
    lcm,
    mod_inv,
    mod_pow,
    random_coprime_below,
)
from .base import KeyPair, ModulusScheme, Payload


class Paillier(ModulusScheme):
    algorithm = "paillier"
    public_fields = ("n", "g")
    private_fields = ("p", "q")
    modulus_power = 2

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        self.n_sq = self.modulus
        if keys.has_private:
            self.lam = lcm(self.p - 1, self.q - 1)
            self.mu = mod_inv(self._big_l(mod_pow(self.g, self.lam, self.n_sq)), self.n)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        p, q, n = generate_modulus(security_bits, rng)
        return {"n": n, "g": n + 1}, {"p": p, "q": q}

    def plaintext_bound(self) -> int:
        return self.n

    def _big_l(self, u: int) -> int:
        return (u - 1) // self.n

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = random_coprime_below(self.n, rng)
        if self.g == self.n + 1:
            # (n+1)^m = 1 + m*n mod n^2, skipping a full exponentiation
            g_m = (1 + m * self.n) % self.n_sq
        else:
            g_m = mod_pow(self.g, m, self.n_sq)
        return g_m * self._private_pow(r, self.n) % self.n_sq

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        self.check_payload(c)
        return self._big_l(self._private_pow(c, self.lam)) * self.mu % self.n
