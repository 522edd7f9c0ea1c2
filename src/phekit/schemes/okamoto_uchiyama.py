"""Okamoto-Uchiyama: additive homomorphism from the p-subgroup of Z*_{p^2 q}.

Messages are recovered modulo p, so the usable message space is capped below
p; the cap is published in the key parameters without revealing p itself.
"""

from __future__ import annotations

import math
from typing import Any

from ..errors import MathDomainError
from ..numtheory import RandomSource, gen_prime, random_coprime_below
from .base import ModulusScheme, Payload


class OkamotoUchiyama(ModulusScheme):
    algorithm = "okamoto-uchiyama"
    # plaintext_bits is derived during keygen (one less than the bit length of
    # the secret prime p), never given, and travels in params so public-only
    # copies keep it
    default_params = {"plaintext_bits": None}
    public_fields = ("n", "g", "h")
    private_fields = ("p", "q")
    n_exponents = (2, 1)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        if params["plaintext_bits"] is not None:
            raise MathDomainError(
                "okamoto-uchiyama parameter plaintext_bits is derived from "
                "security_bits and cannot be set"
            )
        p_bits = (security_bits + 2) // 3
        q_bits = security_bits - 2 * p_bits
        while True:
            p, q = gen_prime(p_bits, rng), gen_prime(q_bits, rng)
            n = p * p * q
            if p != q and n.bit_length() == security_bits:
                break
        while True:
            g = rng.randrange(2, n)
            if math.gcd(g, n) != 1:
                continue
            # g must land outside the (p-1)-th power residues mod p^2 so the
            # logarithm map of decryption is nondegenerate
            if pow(g, p - 1, p * p) != 1:
                break
        params["plaintext_bits"] = p_bits - 1
        return {"n": n, "g": g, "h": pow(g, n, n)}, {"p": p, "q": q}

    def plaintext_bound(self) -> int:
        return 1 << self.keys.params["plaintext_bits"]

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = random_coprime_below(self.n, rng)
        return pow(self.g, m, self.n) * self._private_pow(self.h, r) % self.n

    def decrypt(self, c: Payload) -> int:
        return self._log_decrypt(c)
