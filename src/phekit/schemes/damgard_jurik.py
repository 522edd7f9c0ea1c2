"""Damgard-Jurik: Paillier generalized to ciphertexts modulo n^(s+1).

Messages live modulo n^s, so one key pair can carry plaintexts far larger
than the modulus. Paillier is the special case s = 1, so both schemes share
this module's key generation, encryption and decryption.

The private key decrypts per prime through `ModulusScheme._log_decrypt`, as
Okamoto-Uchiyama does: modulo p^(s+1), c^(p-1) drops the nonce's r^(n^s)
and leaves (1+p)^(m * e_p), whose exponent read in base p is m * e_p mod
p^s; the p and q halves join by CRT modulo n^s.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import MathDomainError
from ..numtheory import RandomSource, binomial_pow, generate_modulus, random_coprime_below
from .base import MAX_BITS, KeyPair, ModulusScheme, Payload, int_shown

# the largest s; the ciphertext modulus n^(s+1) has at most MAX_BITS bits
MAX_S = 16


def _s_fault(s: int, prime_bound: Optional[int], n_bits: int) -> Optional[str]:
    """Why s is outside Damgard and Jurik's domain 1 <= s < p, q, judged as
    s < `prime_bound` (None: no primes known), or past the cost bound, which
    public-only keys obey too, as encryption raises r to n^s mod n^(s+1);
    None when it is inside both."""
    if prime_bound is not None and s >= prime_bound:
        return f"must be below both primes, got {int_shown(s)}"
    if s > MAX_S or (s + 1) * n_bits > MAX_BITS:
        return f"must be at most {MAX_S}, with (s+1) * bits(n) at most {MAX_BITS}"
    return None


class DamgardJurik(ModulusScheme):
    algorithm = "damgard-jurik"
    default_params = {"s": 2}
    public_fields = ("n", "g")
    private_fields = ("p", "q")

    @property
    def s(self) -> int:
        return self.keys.params.get("s", 1)  # 1 for Paillier, whose keys carry none

    @property
    def modulus_power(self) -> int:
        return self.s + 1

    @classmethod
    def _params_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        prime_bound = min(keys.private["p"], keys.private["q"]) if keys.has_private else None
        reason = _s_fault(keys.params.get("s", 1), prime_bound, keys.public["n"].bit_length())
        return None if reason is None else ("params.s", reason)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        # the rule parse_key applies, checked once, before any draw: n has
        # exactly security_bits bits, and s <= MAX_S stays below primes of
        # security_bits // 2 bits, whose top two bits are set (at least 192);
        # s = 1 is below every prime
        s = params.get("s", 1)
        reason = _s_fault(s, 1 << security_bits // 2 if s > 1 else None, security_bits)
        if reason is not None:
            raise MathDomainError(f"damgard-jurik parameter s {reason}")
        p, q, n = generate_modulus(security_bits, rng)
        return {"n": n, "g": n + 1}, {"p": p, "q": q}

    def plaintext_bound(self) -> int:
        return self.n**self.s

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = random_coprime_below(self.n, rng)
        if self.g == self.n + 1:
            g_m = binomial_pow(self.n, m, self.s + 1, self.modulus)
        else:
            g_m = pow(self.g, m, self.modulus)
        return g_m * self._nonce_pow(r) % self.modulus

    def decrypt(self, c: Payload) -> int:
        return self._log_decrypt(c)

    def _nonce_pow(self, r: int) -> int:
        """r^(n^s) mod n^(s+1) for a unit r, the same integer as builtin `pow`.

        With the private key, one power per prime. Modulo p^(s+1), x^(p^s)
        depends only on x mod p, here t = r^(n^s mod (p-1)) mod p. With
        A = (p^s - 1)/(p - 1), t^(p^s) = t * (t^(p-1))^A, and t^(p-1) = 1 + pz,
        so (1 + pz)^A is the sum of C(A, k)(pz)^k for k = 0..s: every later
        term is divisible by p^(s+1). The same for q (`_per_prime`).
        """
        if not self.keys.has_private:
            return pow(r, self.n**self.s, self.modulus)

        def lift(_row: int, prime: int, prime_k: int, _order: int) -> int:
            t = pow(r, pow(self.n, self.s, prime - 1), prime)
            a = (prime_k // prime - 1) // (prime - 1)
            pz = pow(t, prime - 1, prime_k) - 1
            return t * binomial_pow(pz, a, self.s + 1, prime_k) % prime_k

        return self._per_prime(lift)


class Paillier(DamgardJurik):
    """Paillier: Damgard-Jurik at s = 1, ciphertexts modulo n^2, decrypted in
    Paillier's CRT form L_p(c^(p-1) mod p^2) * h_p mod p per prime with
    h_p = L_p(g^(p-1) mod p^2)^-1. Its key files carry no `s`."""

    algorithm = "paillier"
    default_params = {}
