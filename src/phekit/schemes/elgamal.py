"""ElGamal over a prime-order subgroup, in two flavors.

Classic ElGamal multiplies plaintexts into the second component and is
multiplicatively homomorphic. Exponential ElGamal is ElGamal run on g^m: it
shares ElGamal's encryption and decryption and only encodes m as g^m and
decodes by a bounded discrete-log search, which turns ciphertext
multiplication into plaintext addition.
"""

from __future__ import annotations

from typing import Any

from ..errors import DecryptionBoundError
from ..numtheory import (
    RandomSource,
    baby_steps,
    discrete_log_bounded,
    gen_group_prime,
    mod_inv,
)
from .base import Payload, Scheme

DEFAULT_DLP_BOUND = 1 << 20


def _subgroup_bits(security_bits: int) -> int:
    # 256-bit subgroups at production sizes; scaled down for toy keys, but
    # never below the exp variant's default decryption bound of 2^20
    return min(256, max(24, security_bits // 2))


class ElGamal(Scheme):
    algorithm = "elgamal"
    payload_variant = "pair"
    public_fields = ("p", "g", "h")
    private_fields = ("x",)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        """Prime p = 2qc+1, generator g of the order-q subgroup, secret x.

        Decryption m = c2 * (c1^x)^-1 holds for any g, so correctness never
        depends on the group structure; the large prime q dividing p-1 is what
        keeps discrete logs in <g> hard.
        """
        p, q = gen_group_prime(security_bits, _subgroup_bits(security_bits), rng)
        while True:
            g = pow(rng.randrange(2, p - 1), (p - 1) // q, p)
            if g != 1:
                break
        x = rng.randrange(2, q)
        return {"p": p, "g": g, "h": pow(g, x, p)}, {"x": x}

    def plaintext_bound(self) -> int:
        return self.p

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = rng.randrange(2, self.p - 1)
        return (
            pow(self.g, r, self.p),
            self._encode(m) * pow(self.h, r, self.p) % self.p,
        )

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        c1, c2 = c
        shared = pow(c1, self.x, self.p)
        return self._decode(c2 * mod_inv(shared, self.p) % self.p)

    def _is_member(self, c: Payload) -> bool:
        # c1 = g^r is a unit; classic ElGamal encrypts m = 0 to c2 = 0
        return 0 < c[0] < self.p and 0 <= c[1] < self.p

    # the group element that carries a plaintext, and back
    def _encode(self, m: int) -> int:
        return m

    def _decode(self, element: int) -> int:
        return element

    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        return (c1[0] * c2[0] % self.p, c1[1] * c2[1] % self.p)

    def _scalar(self, c: Payload, k: int) -> Payload:
        return (pow(c[0], k, self.p), pow(c[1], k, self.p))


class ExpElGamal(ElGamal):
    algorithm = "exp-elgamal"
    default_params = {"dlp_bound": DEFAULT_DLP_BOUND}
    # baby steps of g, built on the first decrypt
    _baby_steps = None

    @property
    def dlp_bound(self) -> int:
        return self.keys.params["dlp_bound"]

    def plaintext_bound(self) -> int:
        return self.dlp_bound

    def _encode(self, m: int) -> int:
        return pow(self.g, m, self.p)

    def _decode(self, element: int) -> int:
        if self._baby_steps is None:
            self._baby_steps = baby_steps(self.g, self.p, self.dlp_bound)
        m = discrete_log_bounded(
            self.g, element, self.p, self.dlp_bound, self._baby_steps
        )
        if m is None:
            raise DecryptionBoundError(
                f"plaintext exceeds the discrete-log bound {self.dlp_bound}; "
                "regenerate keys with a larger dlp_bound"
            )
        return m
