"""Benaloh: dense additive encryption of small blocks modulo a prime r.

Benaloh is Naccache-Stern with one message prime: the block r plays sigma and
the only message prime, and y plays g, so encryption and decryption are
Naccache-Stern's. Key generation is its own: it needs p = 1 (mod r) with no
second factor of r in p-1, and runs under the same retry budget.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import KeygenExhaustedError, MathDomainError
from ..numtheory import RandomSource, gen_prime, is_probable_prime
from .base import KeyPair
from .naccache_stern import RETRY_BUDGET, NaccacheStern


class Benaloh(NaccacheStern):
    algorithm = "benaloh"
    default_params = {"block_size": 257}
    public_fields = ("n", "y", "r")
    generators = ("y",)
    # Naccache-Stern's generator and message modulus under their Benaloh names
    g = property(lambda self: self.y)
    sigma = property(lambda self: self.r)

    def _message_primes(self) -> list[int]:
        return [self.r]

    @classmethod
    def _params_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        r = keys.public["r"]
        if r < 3 or not is_probable_prime(r):
            return "public.r", f"must be an odd prime, got {r}"
        if keys.params["block_size"] != r:
            return "params.block_size", f"must be the block public.r = {r}"
        return None

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
        budget = iter(range(RETRY_BUDGET))  # shared with `_generator`

        # p = r*t + 1 with exactly p_bits bits, t even (else p is even),
        # r not dividing t (keeps r^2 out of p-1); top two bits forced so
        # n = p*q reaches the full requested size
        t_lo = ((3 << (p_bits - 2)) // r) + 1
        t_hi = ((1 << p_bits) - 2) // r
        for _ in budget:
            t = rng.randrange(t_lo, t_hi + 1) & ~1
            if t < t_lo or t % r == 0:
                continue
            p = r * t + 1
            if p.bit_length() == p_bits and is_probable_prime(p):
                break
        else:
            raise KeygenExhaustedError(
                f"benaloh: no prime p = 1 (mod {r}) found within the retry budget"
            )

        for _ in budget:
            q = gen_prime(q_bits, rng)
            if q != p and (q - 1) % r != 0:
                break
        else:
            raise KeygenExhaustedError("benaloh: no suitable prime q within the budget")

        n = p * q
        y = cls._generator(n, (p - 1) * (q - 1), [r], budget, rng)
        return {"n": n, "y": y, "r": r}, {"p": p, "q": q}
