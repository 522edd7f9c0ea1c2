"""Benaloh: dense additive encryption of small blocks modulo a prime r.

Key generation needs p = 1 (mod r) with no second factor of r in p-1, and is
the first of the two schemes here whose parameter search can fail outright, so
the search runs under an explicit retry budget instead of looping forever.
"""

from __future__ import annotations

from typing import Any

from ..errors import DecryptionBoundError, KeygenExhaustedError, MathDomainError
from ..numtheory import (
    RandomSource,
    baby_steps,
    discrete_log_bounded,
    gen_prime,
    is_probable_prime,
    mod_pow,
    random_coprime_below,
)
from .base import KeyPair, ModulusScheme, Payload

RETRY_BUDGET = 50_000


class Benaloh(ModulusScheme):
    algorithm = "benaloh"
    default_params = {"block_size": 257}
    public_fields = ("n", "y", "r")
    private_fields = ("p", "q")
    # baby steps of y^(phi/r), built on the first decrypt
    _baby_steps = None

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        if keys.has_private:
            self.phi_over_r = (self.p - 1) * (self.q - 1) // self.r
            self._baby_base = self._private_pow(self.y, self.phi_over_r)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        r = params["block_size"]
        if r < 3 or not is_probable_prime(r):
            # prime blocks make y^(phi/r) != 1 sufficient for correctness;
            # composite blocks need stronger conditions and are not offered
            raise MathDomainError("benaloh block_size must be an odd prime")
        p_bits = security_bits // 2
        q_bits = security_bits - p_bits
        if p_bits <= r.bit_length() + 2:
            raise MathDomainError(
                f"security_bits {security_bits} too small for block_size {r}"
            )
        budget = RETRY_BUDGET

        # p = r*t + 1 with exactly p_bits bits, t even (else p is even),
        # r not dividing t (keeps r^2 out of p-1); top two bits forced so
        # n = p*q reaches the full requested size
        t_lo = ((3 << (p_bits - 2)) // r) + 1
        t_hi = ((1 << p_bits) - 2) // r
        p = None
        while budget > 0:
            budget -= 1
            t = rng.randrange(t_lo, t_hi + 1) & ~1
            if t < t_lo or t % r == 0:
                continue
            candidate = r * t + 1
            if candidate.bit_length() != p_bits:
                continue
            if is_probable_prime(candidate):
                p = candidate
                break
        if p is None:
            raise KeygenExhaustedError(
                f"benaloh: no prime p = 1 (mod {r}) found within the retry budget"
            )

        q = None
        while budget > 0:
            budget -= 1
            candidate = gen_prime(q_bits, rng)
            if candidate != p and (candidate - 1) % r != 0:
                q = candidate
                break
        if q is None:
            raise KeygenExhaustedError("benaloh: no suitable prime q within the budget")

        n = p * q
        phi = (p - 1) * (q - 1)
        exponent = phi // r
        y = None
        while budget > 0:
            budget -= 1
            candidate = random_coprime_below(n, rng)
            if mod_pow(candidate, exponent, n) != 1:
                y = candidate
                break
        if y is None:
            raise KeygenExhaustedError("benaloh: no generator y within the budget")

        return {"n": n, "y": y, "r": r}, {"p": p, "q": q}

    def plaintext_bound(self) -> int:
        return self.r

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        u = random_coprime_below(self.n, rng)
        return mod_pow(self.y, m, self.n) * mod_pow(u, self.r, self.n) % self.n

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        self.check_payload(c)
        # c^(phi/r) = y^(m*phi/r); the u-part has order dividing phi and dies
        a = self._private_pow(c, self.phi_over_r)
        if self._baby_steps is None:
            self._baby_steps = baby_steps(self._baby_base, self.n, self.r - 1)
        m = discrete_log_bounded(
            self._baby_base, a, self.n, self.r - 1, self._baby_steps
        )
        if m is None:
            raise DecryptionBoundError("benaloh: ciphertext outside the block range")
        return m
