"""Paillier: additively homomorphic modulo n, ciphertexts modulo n^2.

Paillier is Damgard-Jurik at s = 1, so encryption and decryption are
Damgard-Jurik's: decryption is Paillier's CRT form, L_p(c^(p-1) mod p^2) * h_p
mod p per prime with h_p = L_p(g^(p-1) mod p^2)^-1. Its key files carry no `s`.
"""

from __future__ import annotations

from typing import Any

from ..numtheory import RandomSource
from .damgard_jurik import DamgardJurik


class Paillier(DamgardJurik):
    algorithm = "paillier"
    default_params = {}
    s = 1

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        return super()._keygen(security_bits, {"s": cls.s}, rng)
