"""Damgard-Jurik: Paillier generalized to ciphertexts modulo n^(s+1).

Messages live modulo n^s, so one key pair can carry plaintexts far larger
than the modulus. Paillier is the special case s = 1 (`paillier.py`), so
both schemes share this module's encryption and decryption.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any

from ..errors import MathDomainError
from ..numtheory import (
    RandomSource,
    generate_modulus,
    lcm,
    mod_inv,
    random_coprime_below,
)
from .base import KeyPair, ModulusScheme, Payload


class DamgardJurik(ModulusScheme):
    algorithm = "damgard-jurik"
    default_params = {"s": 2}
    public_fields = ("n", "g")
    private_fields = ("p", "q")

    @property
    def s(self) -> int:
        return self.keys.params["s"]

    @property
    def modulus_power(self) -> int:
        return self.s + 1

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        self.n_s = self.n**self.s
        if keys.has_private:
            # c^lambda kills r and leaves g^(m*lambda); mu = L_s(g^lambda)^-1
            # mod n^s then picks the message out, whatever g is
            self.lam = lcm(self.p - 1, self.q - 1)
            g_lam = pow(self.g, self.lam, self.modulus)
            self.mu = mod_inv(self._extract_exponent(g_lam), self.n_s)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        if params["s"] < 1:
            raise MathDomainError("damgard-jurik parameter s must be >= 1")
        p, q, n = generate_modulus(security_bits, rng)
        return {"n": n, "g": n + 1}, {"p": p, "q": q}

    def plaintext_bound(self) -> int:
        return self.n_s

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = random_coprime_below(self.n, rng)
        if self.g == self.n + 1:
            g_m = self._one_plus_n_pow(m)
        else:
            g_m = pow(self.g, m, self.modulus)
        return g_m * self._nonce_pow(r) % self.modulus

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        m_lam = self._extract_exponent(self._private_pow(c, self.lam))
        return m_lam * self.mu % self.n_s

    def _nonce_pow(self, r: int) -> int:
        """r^(n^s) mod n^(s+1) for a unit r, the same integer as builtin `pow`.

        With the private key, per prime by the p-adic lift: if a = b mod p^j
        then a^p = b^p mod p^(j+1), so x^(p^s) mod p^(s+1) depends only on x
        mod p, and s p-th powers at rising precision compute it from
        r^(q^s) mod p = r^(q^s mod (p-1)) mod p. The same for q; the two
        are joined by CRT.
        """
        if not self.keys.has_private:
            return pow(r, self.n_s, self.modulus)
        lifted = []
        for prime, exponent in self._lift:
            x, prime_j = pow(r, exponent, prime), prime
            for _ in range(self.s):
                prime_j *= prime
                x = pow(x, prime, prime_j)
            lifted.append(x)
        return self._crt_join(*lifted)

    @cached_property
    def _lift(self) -> tuple:
        """(p, q^s mod (p-1)) and (q, p^s mod (q-1)), built on the first
        private-key encryption."""
        p, q, s = self.p, self.q, self.s
        return (p, pow(q, s, p - 1)), (q, pow(p, s, q - 1))

    def _one_plus_n_pow(self, m: int) -> int:
        """(1+n)^m mod n^(s+1) via the binomial expansion, s+1 terms."""
        result = 1
        term = 1
        for k in range(1, self.s + 1):
            # term = C(m, k) * n^k mod n^(s+1), built incrementally
            term = term * (m - k + 1) // k
            result = (result + term * self.n**k) % self.modulus
        return result

    def _extract_exponent(self, a: int) -> int:
        """Recover i from a = (1+n)^i mod n^(s+1), digit by digit in base n.

        Standard iterative extraction: at step j the value of i mod n^(j-1) is
        known, and the binomial correction terms C(i,k)*n^(k-1) for k in
        [2, j] are subtracted from L(a mod n^(j+1)) to expose i mod n^j. At
        s = 1 this is Paillier's L(a) = (a - 1) / n.
        """
        n = self.n
        i = 0
        for j in range(1, self.s + 1):
            n_j = n**j
            t1 = ((a % (n_j * n)) - 1) // n
            t2 = i
            for k in range(2, j + 1):
                i -= 1
                t2 = t2 * i % n_j
                factor = t2 * n ** (k - 1) % n_j
                t1 = (t1 - factor * mod_inv(math.factorial(k), n_j)) % n_j
            i = t1
        return i
