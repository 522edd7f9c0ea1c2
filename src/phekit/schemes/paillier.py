"""Paillier: additively homomorphic modulo n, ciphertexts modulo n^2.

Paillier is Damgard-Jurik at s = 1: encryption, decryption and the
decryption constant mu = L(g^lambda mod n^2)^-1 mod n are Damgard-Jurik's.
Its key files carry no `s`.
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
