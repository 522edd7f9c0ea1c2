"""Naccache-Stern: additive encryption with messages modulo a smooth sigma.

sigma is a product of distinct small odd primes woven into p-1 and q-1.
Decryption recovers the message residue at each small prime independently and
joins the residues by the Chinese remainder theorem. Benaloh is the special
case of one message prime, so both schemes share this module's encryption and
decryption. The parameter searches of both can fail outright, so they run
under an explicit retry budget instead of looping forever.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any, Iterator, Optional

from ..errors import DecryptionBoundError, KeygenExhaustedError, MathDomainError
from ..numtheory import (
    RandomSource,
    UnitGroup,
    baby_steps,
    discrete_log_bounded,
    gen_prime,
    is_probable_prime,
    prime_candidate,
    random_coprime_below,
    trial_divide,
)
from .base import INT_PARAM_CAPS, KeyPair, ModulusScheme, Payload

RETRY_BUDGET = 50_000


class _Budget:
    """One key's retries, shared by its searches: each auxiliary prime and
    each generator candidate spends one, and a search stops when none is left.

    An auxiliary that passed trial division but whose pair was rejected
    before `is_probable_prime` tested it is pending: it spends a retry only
    if it is prime. `has_left` tests the pending auxiliaries only when the
    retries left could run out on them (`left <= len(pending)`). So the
    budget counts auxiliary primes exactly, and a search stops after the
    same draw as one that tested every auxiliary when it was drawn.
    """

    def __init__(self):
        self.left = RETRY_BUDGET
        self.pending: list[int] = []

    def has_left(self) -> bool:
        """Whether a retry is left, once the pending auxiliaries could matter."""
        if self.left <= len(self.pending):
            self.left -= sum(map(is_probable_prime, self.pending))
            self.pending.clear()
        return self.left > 0

    def __iter__(self) -> Iterator[None]:
        """Spend one retry per step while any is left."""
        while self.has_left():
            self.left -= 1
            yield


def _factor_with(
    cofactor: int, bits: int, aux_bits: int, budget: _Budget, rng: RandomSource
) -> tuple[int, int]:
    """(2*aux*cofactor + 1, aux), a `bits`-bit prime with aux an `aux_bits`-bit
    prime, each aux drawn as `gen_prime` draws its candidates.

    The cheap tests run first: the pair is rejected on its bit length or on
    trial division of either number, and `is_probable_prime` runs only on
    pairs that pass them, on the candidate first, then on aux. An aux left
    untested when its pair is rejected goes to the budget's pending list,
    which spends a retry for it only once the count could matter
    (`_Budget`).
    """
    while budget.has_left():
        aux = prime_candidate(aux_bits, rng)
        if trial_divide(aux) is False:
            continue
        candidate = 2 * aux * cofactor + 1
        if candidate.bit_length() != bits or not is_probable_prime(candidate):
            budget.pending.append(aux)
        elif is_probable_prime(aux):
            budget.left -= 1
            return candidate, aux
    raise KeygenExhaustedError(
        "naccache-stern: no prime with the required smooth part "
        "within the retry budget"
    )


def message_primes(count: int) -> list[int]:
    """The first `count` odd primes."""
    primes: list[int] = []
    candidate = 3
    while len(primes) < count:
        if is_probable_prime(candidate):
            primes.append(candidate)
        candidate += 2
    return primes


class NaccacheStern(ModulusScheme):
    algorithm = "naccache-stern"
    default_params = {"prime_count": 8}
    public_fields = ("n", "g", "sigma")
    private_fields = ("p", "q")

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        if keys.has_private:
            self.units = UnitGroup(self.n)
            # decryption's one private power: every phi/p_i is phi/sigma * sigma/p_i
            self._phi_over_sigma = (self.p - 1) * (self.q - 1) // self.sigma
            # per message prime p_i, the order-p_i base g^(phi/p_i) the small
            # discrete log runs against, split as decryption splits c's power
            lifted = self._private_pow(self.g, self._phi_over_sigma)
            self._parts = [(prime, pow(lifted, self.sigma // prime, self.n))
                           for prime in self._message_primes()]

    def _message_primes(self) -> list[int]:
        """The small primes whose product is sigma."""
        return message_primes(self.keys.params["prime_count"])

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        """Decryption needs sigma to be the message primes' product and, with the
        private key, each message prime p_i to divide phi once, then
        g^(phi/p_i) != 1: the bases are g^(phi/p_i) only once sigma divides phi."""
        fault = super().key_fault(keys)
        if fault is None and keys.has_private:
            scheme = cls(keys)
            phi = (scheme.p - 1) * (scheme.q - 1)
            for prime, _ in scheme._parts:
                if phi % prime or phi // prime % prime == 0:
                    return "private", f"message prime {prime} does not divide phi once"
            for prime, base in scheme._parts:
                if base == 1:  # the generator: g, or y for Benaloh
                    return f"public.{cls.generators[0]}", f"its phi/{prime}-th power is 1"
        return fault

    @classmethod
    def _params_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        count, sigma = keys.params["prime_count"], keys.public["sigma"]
        # the first `count` odd primes multiply to at least 3^count, past count bits
        if not 2 <= count < sigma.bit_length():
            return "params.prime_count", f"must be 2 to sigma's bit length - 1, got {count}"
        if math.prod(message_primes(count)) != sigma:
            return "public.sigma", f"is not the product of the first {count} odd primes"
        return None

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        count = params["prime_count"]
        if count < 2:
            raise MathDomainError("naccache-stern needs at least two message primes")
        primes = message_primes(count)
        u, v = math.prod(primes[: count // 2]), math.prod(primes[count // 2 :])
        sigma = u * v

        p_bits = security_bits // 2
        q_bits = security_bits - p_bits
        a_bits = p_bits - u.bit_length() - 1
        b_bits = q_bits - v.bit_length() - 1
        if a_bits < 8 or b_bits < 8:
            raise MathDomainError(
                f"security_bits {security_bits} too small for {count} message primes"
            )

        budget = _Budget()  # shared with `_generator`
        while True:
            p, a = _factor_with(u, p_bits, a_bits, budget, rng)
            q, b = _factor_with(v, q_bits, b_bits, budget, rng)
            # each message prime must divide phi exactly once, so the
            # auxiliary primes must stay clear of the message primes
            if p != q and a != b and a not in primes and b not in primes:
                break

        n = p * q
        g = cls._generator(n, (p - 1) * (q - 1), primes, budget, rng)
        return {"n": n, "g": g, "sigma": sigma}, {"p": p, "q": q}

    @classmethod
    def _generator(
        cls, n: int, phi: int, primes: list[int], budget: _Budget, rng: RandomSource
    ) -> int:
        """A unit g mod n with g^(phi/p_i) != 1 for every message prime p_i,
        so g^m determines m modulo each p_i; each candidate spends one retry."""
        for _ in budget:
            candidate = random_coprime_below(n, rng)
            if all(pow(candidate, phi // prime, n) != 1 for prime in primes):
                return candidate
        raise KeygenExhaustedError(f"{cls.algorithm}: no generator within the budget")

    def plaintext_bound(self) -> int:
        return self.sigma

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        r = random_coprime_below(self.n, rng)
        return pow(self.g, m, self.n) * pow(r, self.sigma, self.n) % self.n

    @cached_property
    def _baby_steps(self) -> list:
        """Per message prime, the baby steps of its base (first decrypt)."""
        return [baby_steps(self.units, base, prime - 1) for prime, base in self._parts]

    def decrypt(self, c: Payload) -> int:
        """m mod each message prime p_i is the log r_i of c^(phi/p_i) to the
        base g^(phi/p_i). c^(phi/sigma) is the one full power; each target
        raises it to the small w_i = sigma/p_i. The residues join by CRT as
        they come: m is the sum of r_i * w_i * (w_i^-1 mod p_i), mod sigma."""
        self.require_private()
        lifted = self._private_pow(c, self._phi_over_sigma)
        m = 0
        for (prime, base), table in zip(self._parts, self._baby_steps):
            w = self.sigma // prime
            residue = discrete_log_bounded(self.units, base, pow(lifted, w, self.n),
                                           prime - 1, table)
            if residue is None:
                raise DecryptionBoundError(
                    f"{self.algorithm}: no residue found modulo {prime}"
                )
            m += residue * w * pow(w, -1, prime)
        return m % self.sigma


class Benaloh(NaccacheStern):
    """Benaloh: dense additive encryption of small blocks modulo a prime r.

    Benaloh is Naccache-Stern with one message prime: the block r plays sigma
    and the only message prime, and y plays g, so encryption and decryption
    are Naccache-Stern's. Key generation is its own: it needs p = 1 (mod r)
    with no second factor of r in p-1, and runs under the same retry budget.
    """

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
        r, cap = keys.public["r"], INT_PARAM_CAPS["block_size"]
        # r divides p-1, so r < n, and r is the block, so at most its cap:
        # both checked first, as they cost no power
        if r >= keys.public["n"]:
            return "public.r", "must be below public.n"
        if r > cap:
            return "public.r", f"must be at most {cap}"
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
        budget = _Budget()  # shared with `_generator`

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
