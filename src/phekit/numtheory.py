"""Arbitrary-precision number theory used by every cryptosystem.

All functions are pure; :class:`RandomSource` is the only stateful object and
must not be shared across concurrent callers.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cache, partial
from typing import Any, Callable, Optional, Tuple

from .errors import MathDomainError, NotInvertibleError
from .frozen import Frozen, int_shown

# Trial division ahead of Baillie-PSW (`trial_divide`) covers the primes
# below this limit: one gcd with the product of those below 1000, which
# decides every input below 997^2, and for larger inputs one with the
# product of the rest (`_trial_division`, built on the first call), which
# decides every input below 2^32
_TRIAL_LIMIT = 1 << 16

# A baby-step table keys each element by 60 bits of it (`UnitGroup.key`,
# `ec.CurveParams.key`): an int of two 30-bit digits, 32 bytes, where a
# 1024-bit residue takes 164
KEY_MASK = (1 << 60) - 1


class RandomSource:
    """Random values for key generation and encryption.

    Unseeded instances draw from the operating system's CSPRNG. A seed makes
    the full draw sequence reproducible; seeded instances are for tests only.
    """

    def __init__(self, seed: Optional[int] = None):
        self._rng: random.Random = (
            random.Random(seed) if seed is not None else random.SystemRandom()
        )

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        return self._rng.randrange(start, stop)


def mod_inv(a: int, modulus: int) -> int:
    """Inverse of a modulo modulus, in [1, modulus)."""
    if modulus < 2:
        raise MathDomainError("modulus must be >= 2")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        g = math.gcd(a, modulus)
        raise NotInvertibleError(f"{int_shown(a)} is not invertible mod {int_shown(modulus)} "
                                 f"(gcd={int_shown(g)})") from None


@cache
def _trial_division() -> tuple[frozenset, int, int]:
    """The primes below 1000, their product, and the product of the primes
    from 1000 up to `_TRIAL_LIMIT`."""
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(_TRIAL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _TRIAL_LIMIT, i)))
    small = frozenset(itertools.compress(range(1000), sieve))
    rest = list(itertools.compress(range(1000, _TRIAL_LIMIT), memoryview(sieve)[1000:]))
    # a product tree, neighbours multiplied pairwise level by level: the large
    # products meet operands of like size (Karatsuba's case), where a running
    # product would multiply a growing integer by one small prime at a time
    while len(rest) > 1:
        rest = [math.prod(rest[i : i + 2]) for i in range(0, len(rest), 2)]
    return small, math.prod(small), rest[0]


def trial_divide(n: int) -> Optional[bool]:
    """n's primality by division by the primes below `_TRIAL_LIMIT` alone:
    True when n is prime, False when it is composite, None when undecided.

    Two gcds, one with the primes below 1000 and, for n past 2**16, one with
    the rest. A composite below 2**32 has a factor below 2**16, so every n
    below 2**32 is decided; above that, None means n has no factor below
    2**16 and needs the base-2 and Lucas tests (`is_probable_prime`).
    """
    small_primes, small, rest = _trial_division()
    if n < 1000:
        return n in small_primes
    if math.gcd(n, small) != 1:
        return False
    if n < _TRIAL_LIMIT:
        # a composite below 997^2 has a factor below 1000
        return True
    if math.gcd(n, rest % n) != 1:
        return False
    # n is odd and has no factor below 2^16 here, so below 2^32 it is prime
    return True if n < _TRIAL_LIMIT**2 else None


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW after small-prime trial division (`trial_divide`), which
    decides every input below 2**32 alone.

    Past trial division n must be a strong probable prime to base 2
    (`_strong_base_2`) and then an extra strong Lucas probable prime
    (`_strong_lucas`). The verdict is deterministic, and no composite is
    known to pass both tests. Key searches and key files get the same test:
    a key file's Benaloh r, and each private factor p and q
    (`Scheme.key_fault`).
    """
    verdict = trial_divide(n)
    return (_strong_base_2(n) and _strong_lucas(n)) if verdict is None else verdict


def _strong_base_2(n: int) -> bool:
    """Whether odd n > 2 is a strong probable prime to base 2: with
    n - 1 = d * 2**s, d odd, 2**d = 1 or 2**(d * 2**r) = -1 (mod n), r < s."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Whether odd n > 2 is an extra strong Lucas probable prime (Baillie,
    Fiori and Wagstaff, "Strengthening the Baillie-PSW primality test",
    Math. Comp. 90, 2021): with Q = 1, P the first of 3, 4, 5, ... whose
    Jacobi symbol ((P**2 - 4)/n) is -1, and n + 1 = d * 2**s, d odd,
    U_d = 0 and V_d = +-2, or V_(d * 2**r) = 0 (mod n) for some r < s - 1.

    A square has no such P, so it is refused before the search, which
    would not end. Only V is computed, as the pair (V_k, V_(k+1)) doubled
    and stepped along the bits of d, two products a bit: with Q = 1,
    V_2k = V_k**2 - 2 and V_(2k+1) = V_k * V_(k+1) - P. U_d = 0 is read as
    2 * V_(d+1) = P * V_d, since D * U_k = 2 * V_(k+1) - P * V_k and D is
    a unit mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    P = 3
    while jacobi(P * P - 4, n) != -1:
        P += 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    V, W = 2, P  # V_0 and V_1
    for bit in bin(d)[2:]:
        if bit == "1":
            V, W = (V * W - P) % n, (W * W - 2) % n
        else:
            V, W = (V * V - 2) % n, (V * W - P) % n
    if V in (2, n - 2) and (2 * W - P * V) % n == 0:
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def prime_candidate(bits: int, rng: RandomSource) -> int:
    """One draw of `gen_prime`'s search: an odd `bits`-bit number whose top
    two bits are set, from one `getrandbits(bits)`."""
    return rng.getrandbits(bits) | (3 << (bits - 2)) | 1


def gen_prime(bits: int, rng: RandomSource) -> int:
    """Random prime of exactly `bits` bits, confirmed by `is_probable_prime`.

    The top two bits are forced so products of two such primes reach the full
    requested modulus size; the bottom bit is forced odd. A drawn candidate
    gets the verdict any input gets: trial division refuses most composites,
    the base-2 test nearly all the rest, and the Lucas test runs on almost
    nothing but primes.
    """
    if bits < 8:
        raise MathDomainError("bits must be >= 8")
    while True:
        candidate = prime_candidate(bits, rng)
        if is_probable_prime(candidate):
            return candidate


def generate_modulus(bits: int, rng: RandomSource) -> Tuple[int, int, int]:
    """(p, q, n): distinct primes of half the width each, n = p*q of exactly
    `bits` bits, and gcd(n, (p-1)(q-1)) = 1."""
    p_bits = bits // 2
    q_bits = bits - p_bits
    while True:
        p = gen_prime(p_bits, rng)
        q = gen_prime(q_bits, rng)
        if p == q:
            continue
        n = p * q
        if math.gcd(n, (p - 1) * (q - 1)) == 1:
            return p, q, n


def gen_group_prime(
    bits: int, subgroup_bits: int, rng: RandomSource
) -> Tuple[int, int]:
    """Prime p of exactly `bits` bits whose group order p-1 has a prime
    factor q of exactly `subgroup_bits` bits. Returns (p, q).

    p = 2qc + 1 for a fixed q and random cofactors c, so only p itself needs
    a primality search. Strict safe primes (c = 1) are orders of magnitude
    rarer; the large q already blocks Pohlig-Hellman on the working subgroup.
    """
    if subgroup_bits < 8:
        raise MathDomainError("subgroup_bits must be >= 8")
    if bits < subgroup_bits + 8:
        raise MathDomainError("bits must be at least subgroup_bits + 8")
    q = gen_prime(subgroup_bits, rng)
    cofactor_bits = bits - subgroup_bits - 1
    while True:
        c = rng.getrandbits(cofactor_bits)
        p = 2 * q * c + 1
        # 2qc < 2^bits always holds; only the lower edge needs a check
        if p.bit_length() != bits:
            continue
        if is_probable_prime(p):
            return p, q


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3, via quadratic reciprocity."""
    if n < 3 or n % 2 == 0:
        raise MathDomainError("jacobi requires odd n >= 3")
    a %= n
    result = 1
    while a != 0:
        # (2/n) = -1 exactly when n = 3 or 5 (mod 8): strip every factor of
        # two in one shift and flip once if their count is odd
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class UnitGroup(Frozen):
    """Z*_m, the units mod m as reduced residues: a group for the discrete-log
    search, like a curve (`ec.CurveParams`)."""

    __slots__ = _compared = ("modulus",)
    identity = 1

    def __init__(self, modulus: int):
        self._set(modulus)

    def op(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def exp(self, a: int, k: int) -> int:
        return pow(a, k, self.modulus)

    def inv(self, a: int) -> int:
        return mod_inv(a, self.modulus)

    def key(self, a: int) -> int:
        """a's low 60 bits: its key in a baby-step table."""
        return a & KEY_MASK

    def fixed_base(self, base: int, bits: int) -> Callable[[int], int]:
        """k -> base**k by a fixed-base table for exponents below 2**bits."""
        return partial(fixed_base_pow, self, fixed_base_table(self, base, bits))


def fixed_base_table(group: Any, base: Any, bits: int) -> tuple[int, list]:
    """(w, [base**(2**(w*i)) for each w-bit digit i of a `bits`-bit exponent]).

    w makes `fixed_base_pow` cheapest, at ceil(bits/w) + 2**w - 2 group ops:
    6 for 1024 bits (171 entries, about 28 KB per 1024-bit base), 4 for 160.
    Building it takes about one plain power's worth of group ops.
    """
    width = min(range(1, 9), key=lambda w: -(-bits // w) + (1 << w))
    table, value, op = [base], base, group.op
    for _ in range(-(-bits // width) - 1):
        for _ in range(width):
            value = op(value, value)
        table.append(value)
    return width, table


def fixed_base_pow(group: Any, table: tuple[int, list], k: int) -> Any:
    """base**k in `group` from `fixed_base_table(group, base, bits)`, k >= 0.

    Brickell-Gordon-McCurley-Wilson (HAC 14.117): with digits k_i of k in
    base 2**w, base**k is the product over d of (prod of entries i with
    k_i >= d), in at most len(entries) + 2**w - 2 group ops and no squaring.
    An exponent past the table's width falls back to `group.exp`.
    """
    width, entries = table
    mask = (1 << width) - 1
    if k >> (width * len(entries)):
        return group.exp(entries[0], k)
    by_digit: list[list] = [[] for _ in range(mask + 1)]
    for entry in entries:
        by_digit[k & mask].append(entry)
        k >>= width
    op = group.op
    result = partial_product = group.identity
    for digit in range(mask, 0, -1):
        for entry in by_digit[digit]:
            partial_product = op(partial_product, entry)
        result = op(result, partial_product)
    return result


BabySteps = Tuple[dict, int, Any, Callable[[Any], Any]]


def _whole(element: Any) -> Any:
    """The key of a table whose steps share a `group.key`: the element."""
    return element


def baby_steps(group: Any, base: Any, bound: int) -> BabySteps:
    """The baby-step half of `discrete_log_bounded` for one base.

    Returns ({key(base**j): smallest j} for j < step, step, base**-step,
    key), with step = isqrt(bound) + 1, powers taken in `group` (a
    `UnitGroup` or a curve) and key its `group.key`, about 100 bytes per
    step whatever the element size. If two steps share a key (a base of
    order below step, or two elements alike in their key), the table keys
    by the elements themselves, with key the identity. A base that is not
    invertible in the group raises `NotInvertibleError`.
    """
    if bound < 1:
        raise MathDomainError("bound must be >= 1")
    step = math.isqrt(bound) + 1
    giant_factor = group.inv(group.exp(base, step))
    for key in (group.key, _whole):
        baby: dict = {}
        value, op = group.identity, group.op
        for j in range(step):
            baby.setdefault(key(value), j)
            value = op(value, base)
        if len(baby) == step or key is _whole:
            return baby, step, giant_factor, key


def discrete_log_bounded(
    group: Any, base: Any, target: Any, bound: int, table: Optional[BabySteps] = None
) -> Optional[int]:
    """Smallest m in [0, bound] with base**m = target in `group`, or None.

    Baby-step giant-step: O(sqrt(bound)) group operations and table entries.
    `target` is an element of the group (for Z*_m, a reduced residue).
    `table` is `baby_steps(group, base, bound)`, kept by a caller that
    solves many logs to one base; without it the table is built for this
    call. A giant element whose key is in the table is a hit only if it is
    base**j for that entry's j (one power, of at most 17 bits at the 2**32
    cap); another element with that key is stepped past. As the table's
    keys are distinct, no hit is missed and the first is smallest.
    """
    baby, step, giant_factor, key = table or baby_steps(group, base, bound)
    gamma, op = target, group.op
    for i in range(step + 1):
        j = baby.get(key(gamma))
        if j is not None and group.exp(base, j) == gamma:
            m = i * step + j
            if m <= bound:
                return m
        gamma = op(gamma, giant_factor)
    return None


def binomial_pow(x: int, e: int, terms: int, modulus: int) -> int:
    """(1+x)^e mod modulus as the first `terms` binomial terms C(e, k) x^k,
    for e >= 0 and x^terms divisible by modulus."""
    result = term = power = 1
    for k in range(1, terms):
        # C(e, k) from C(e, k-1): an exact integer, so nothing is inverted
        term = term * (e - k + 1) // k
        power = power * x % modulus
        result = (result + term * power) % modulus
    return result


def binomial_log(a: int, base: int, digits: int) -> int:
    """i mod base^digits from a = (1+base)^i mod base^(digits+1), for an odd
    base: Paillier's L(a) at one digit.

    Digit by digit: with i mod base^(j-1) known, L(a mod base^(j+1)) minus the
    exact integers C(i, k) * base^(k-1), k in [2, j], is i mod base^j. Each
    C(i, k) comes from C(i, k-1), as in `binomial_pow`; no factorial is
    inverted, so base may have a prime factor <= digits.
    """
    i = 0
    for j in range(1, digits + 1):
        base_j = base**j
        t = (a % (base_j * base) - 1) // base
        term, power = i, 1  # C(i, 1) and base^0
        for k in range(2, j + 1):
            term = term * (i - k + 1) // k
            power *= base
            t -= term * power
        i = t % base_j
    return i


def random_coprime_below(n: int, rng: RandomSource) -> int:
    """Uniform r in [2, n-1] with gcd(r, n) = 1, by rejection sampling."""
    if n < 3:
        raise MathDomainError("n must be >= 3")
    while True:
        r = rng.randrange(2, n)
        if math.gcd(r, n) == 1:
            return r
