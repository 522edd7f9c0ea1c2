"""Textbook RSA: multiplicatively homomorphic, deterministic encryption."""

from __future__ import annotations

import math
from typing import Any, Optional

from ..numtheory import RandomSource, generate_modulus, mod_inv
from .base import KeyPair, ModulusScheme, Payload


class Rsa(ModulusScheme):
    algorithm = "rsa"
    public_fields = ("n", "e")
    private_fields = ("p", "q", "d")
    generators = ()

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        p, q, n = generate_modulus(security_bits, rng)
        phi = (p - 1) * (q - 1)
        while True:
            e = rng.randrange(3, phi)
            if math.gcd(e, phi) == 1:
                break
        return {"n": n, "e": e}, {"p": p, "q": q, "d": mod_inv(e, phi)}

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        n, e = keys.public["n"], keys.public["e"]
        # e = 1 leaves every plaintext as it is; a unit modulo the even
        # phi(n) is odd, and one past n only renames one below it
        if not (3 <= e < n and e % 2):
            return "public.e", "must be odd, at least 3 and below n"
        fault = super().key_fault(keys)
        if fault is None and keys.has_private:
            p, q, d = (keys.private[name] for name in cls.private_fields)
            # d undoes e on every unit: e*d = 1 modulo the exponent of Z*_n
            if e * d % math.lcm(p - 1, q - 1) != 1:
                fault = "private", "e * d is not 1 modulo lcm(p - 1, q - 1)"
        return fault

    def plaintext_bound(self) -> int:
        return self.n

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        # the one scheme with no random key: same plaintext, same ciphertext
        self.check_plaintext(m)
        return self._private_pow(m, self.e)

    def _is_member(self, c: Payload) -> bool:
        # m = 0 encrypts to 0 and m = p to a multiple of p: any residue is one
        return 0 <= c < self.n

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        return self._private_pow(c, self.d)
