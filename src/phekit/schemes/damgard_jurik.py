"""Damgard-Jurik: Paillier generalized to ciphertexts modulo n^(s+1).

Messages live modulo n^s, so one key pair can carry plaintexts far larger
than the modulus. Paillier is the special case s = 1 (`paillier.py`), so
both schemes share this module's encryption and decryption.

The private key works per prime, as Okamoto-Uchiyama does. Modulo p^(s+1)
the units have order p^s(p-1), so c^(p-1) drops the nonce's r^(n^s) and
leaves g^(m(p-1)) = (1+p)^(m * e_p), whose exponent read in base p times
h_p = e_p^-1 is m mod p^s; the p and q halves join by CRT modulo n^s.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Optional

from ..errors import MathDomainError
from ..numtheory import RandomSource, generate_modulus, mod_inv, random_coprime_below
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
            # per prime: (p, p^s, h_p), then p^s's inverse modulo q^s
            halves = tuple((prime, prime**self.s, mod_inv(self._extract_exponent(
                pow(self.g, prime - 1, prime ** (self.s + 1)), prime), prime**self.s))
                for prime in (self.p, self.q))
            self._halves = halves + (mod_inv(halves[0][1], halves[1][1]),)

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        fault = super().key_fault(keys)
        # the domain Damgard and Jurik give the scheme: 1 <= s < p, q
        s = keys.params.get("s", 1)
        primes = (keys.private["p"], keys.private["q"]) if keys.has_private else ()
        if fault is None and not (s >= 1 and all(s < prime for prime in primes)):
            fault = "params.s", f"must be at least 1 and below both private primes, got {s}"
        return fault

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
        (p, p_s, h_p), (q, q_s, h_q), p_s_inv = self._halves
        m_p = self._extract_exponent(pow(c, p - 1, p_s * p), p) * h_p % p_s
        m_q = self._extract_exponent(pow(c, q - 1, q_s * q), q) * h_q % q_s
        return m_p + p_s * ((m_q - m_p) * p_s_inv % q_s)

    def _nonce_pow(self, r: int) -> int:
        """r^(n^s) mod n^(s+1) for a unit r, the same integer as builtin `pow`.

        With the private key, one power per prime. Modulo p^(s+1), x^(p^s)
        depends only on x mod p, here t = r^(q^s mod (p-1)) mod p. With
        A = (p^s - 1)/(p - 1), t^(p^s) = t * (t^(p-1))^A, and t^(p-1) = 1 + pz,
        so (1 + pz)^A is the sum of C(A, k)(pz)^k for k = 0..s: every later
        term is divisible by p^(s+1). The same for q, joined by CRT.
        """
        if not self.keys.has_private:
            return pow(r, self.n_s, self.modulus)
        lifted = []
        for prime, exponent, prime_k, coefficients in self._lift:
            t = pow(r, exponent, prime)
            pz = pow(t, prime - 1, prime_k) - 1
            x = 0
            for coefficient in coefficients:
                x = (x * pz + coefficient) % prime_k
            lifted.append(t * x % prime_k)
        return self._crt_join(*lifted)

    @cached_property
    def _lift(self) -> tuple:
        """Per prime: the prime, its exponent q^s mod (p-1), p^(s+1) and
        C(A, k) mod p^(s+1) for k = s..0; built on the first private-key
        encryption."""
        s = self.s
        return tuple(
            (prime, pow(other, s, prime - 1), prime ** (s + 1), tuple(
                math.comb((prime**s - 1) // (prime - 1), k) % prime ** (s + 1)
                for k in range(s, -1, -1)))
            for prime, other in ((self.p, self.q), (self.q, self.p)))

    def _one_plus_n_pow(self, m: int) -> int:
        """(1+n)^m mod n^(s+1) via the binomial expansion, s+1 terms."""
        result = 1
        term = 1
        for k in range(1, self.s + 1):
            # term = C(m, k) * n^k mod n^(s+1), built incrementally
            term = term * (m - k + 1) // k
            result = (result + term * self.n**k) % self.modulus
        return result

    def _extract_exponent(self, a: int, base: int) -> int:
        """Recover i mod base^s from a = (1+base)^i mod base^(s+1), digit by
        digit, for an odd base.

        At step j, i mod base^(j-1) is known; subtracting the binomial terms
        C(i, k) * base^(k-1) for k in [2, j] from L(a mod base^(j+1)) =
        (a mod base^(j+1) - 1) / base exposes i mod base^j. Each term, an
        exact integer, depends only on the known digits, so no factorial is
        inverted, even when base has a prime factor <= s. At s = 1 this is
        Paillier's L(a).
        """
        i = 0
        for j in range(1, self.s + 1):
            base_j = base**j
            t = (a % (base_j * base) - 1) // base
            for k in range(2, j + 1):
                t -= math.comb(i, k) * base ** (k - 1)
            i = t % base_j
        return i
