"""Okamoto-Uchiyama: additive homomorphism from the p-subgroup of Z*_{p^2 q}.

Messages are recovered modulo p, so the usable message space is capped below
p; the cap is published in the key parameters without revealing p itself.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Optional

from ..errors import MathDomainError
from ..numtheory import RandomSource, UnitGroup, gen_prime, random_coprime_below
from .base import KeyPair, ModulusScheme, Payload, int_shown


class OkamotoUchiyama(ModulusScheme):
    algorithm = "okamoto-uchiyama"
    # plaintext_bits is derived during keygen (one less than the bit length of
    # the secret prime p), never given, and travels in params so public-only
    # copies keep it
    default_params = {"plaintext_bits": None}
    public_fields = ("n", "g", "h")
    private_fields = ("p", "q")
    n_exponents = (2, 1)
    generators = ("g", "h")

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
            g = random_coprime_below(n, rng)
            # g must land outside the (p-1)-th power residues mod p^2 so the
            # logarithm map of decryption is nondegenerate
            if pow(g, p - 1, p * p) != 1:
                break
        params["plaintext_bits"] = p_bits - 1
        return {"n": n, "g": g, "h": pow(g, n, n)}, {"p": p, "q": q}

    @classmethod
    def _params_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        # decryption reads m modulo p, so 2^plaintext_bits must not pass p;
        # without p, allow what key generation writes for n's size
        if keys.has_private:
            limit = keys.private["p"].bit_length() - 1
        else:
            limit = (keys.public["n"].bit_length() + 2) // 3 - 1
        bits = keys.params["plaintext_bits"]
        if bits > limit:
            return "params.plaintext_bits", f"must be at most {limit}, got {int_shown(bits)}"
        return None

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        fault = super().key_fault(keys)
        n, g, h = (keys.public[name] for name in cls.public_fields)
        if fault is None and pow(g, n, n) != h:
            fault = "public.h", "is not g^n mod n"
        return fault

    def plaintext_bound(self) -> int:
        return 1 << self.keys.params["plaintext_bits"]

    @cached_property
    def _h_pow(self) -> Callable[[int], int]:
        """k -> h**k mod n by fixed-base tables, built on the first private
        encryption: one table modulo p^2 and one modulo q, each for exponents
        below that factor's group order (`_per_prime`). `key_fault` proves h
        a unit, so reducing k by each order keeps the same integer."""
        tables = [UnitGroup(prime_k).fixed_base(self.h % prime_k, order.bit_length())
                  for _, prime_k, order, _ in self._primes[:2]]
        return lambda k: self._per_prime(lambda row, _, __, order: tables[row](k % order))

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = random_coprime_below(self.n, rng)
        # without the private key h^r stays one plain power modulo n: a table
        # as wide as n costs about that power again to build, which a one-off
        # encryption (`phekit encrypt` with a public key file) would pay
        h_r = self._h_pow(r) if self.keys.has_private else pow(self.h, r, self.n)
        return pow(self.g, m, self.n) * h_r % self.n

    def decrypt(self, c: Payload) -> int:
        return self._log_decrypt(c)
