import inspect
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import forty_round_miller_rabin
from phekit import RandomSource
from phekit.ec import CurveParams, get_curve, point_neg, scalar_mul
from phekit.errors import MathDomainError, NotInvertibleError
import phekit.numtheory as numtheory
from phekit.numtheory import (
    UnitGroup,
    _strong_base_2,
    _strong_lucas,
    _trial_division,
    baby_steps,
    binomial_log,
    binomial_pow,
    discrete_log_bounded,
    fixed_base_table,
    gen_group_prime,
    gen_prime,
    is_probable_prime,
    jacobi,
    mod_inv,
    random_coprime_below,
    trial_divide,
)


def test_mod_inv_fixtures():
    assert mod_inv(4, 15) == 4
    assert mod_inv(1, 97) == 1
    assert mod_inv(-3, 7) == 2  # negative inputs reduce first
    with pytest.raises(NotInvertibleError, match="gcd=3"):
        mod_inv(6, 9)
    with pytest.raises(MathDomainError):
        mod_inv(3, 1)


def test_mod_inv_property(rng):
    for _ in range(100):
        n = rng.randrange(2, 1 << 40)
        a = rng.randrange(1, n)
        if math.gcd(a, n) != 1:
            continue
        assert mod_inv(a, n) * a % n == 1


def test_is_probable_prime_fixtures():
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
    assert not is_probable_prime(3233)  # 61 * 53
    # one verdict for every caller: no round count to pass
    assert list(inspect.signature(is_probable_prime).parameters) == ["n"]


def test_is_probable_prime_takes_no_system_randomness(monkeypatch):
    prime = gen_prime(512, RandomSource(7))
    composite = gen_prime(256, RandomSource(8)) * gen_prime(256, RandomSource(9))

    def refuse():
        raise AssertionError("the primality test drew from SystemRandom")

    monkeypatch.setattr(random, "SystemRandom", refuse)
    assert is_probable_prime(prime)
    assert not is_probable_prime(composite)


SIEVE_LIMIT = 1_000_000


@pytest.fixture(scope="module")
def sieve():
    """sieve[n] is 1 exactly when n < 10**6 is prime."""
    sieve = bytearray([1]) * SIEVE_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, int(SIEVE_LIMIT ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sieve


def test_is_probable_prime_agrees_with_sieve_below_one_million(sieve):
    """Exact agreement with trial division for all n < 10**6."""
    for n in range(SIEVE_LIMIT):
        assert is_probable_prime(n) == bool(sieve[n]), n


def test_base_2_and_lucas_halves_agree_with_sieve_below_one_million(sieve):
    """Trial division decides every input below 2^32 before either half
    runs, so the halves are called directly: together they are exact on
    every odd n in [5, 10**6)."""
    for n in range(5, SIEVE_LIMIT, 2):
        assert (_strong_base_2(n) and _strong_lucas(n)) == bool(sieve[n]), n


def _extra_strong_lucas_by_definition(n: int, factor: list[int]) -> bool:
    """The extra strong Lucas test from its definition, for odd n < 10**5
    with `factor[m]` the least prime factor of each m: the Jacobi symbol as
    the product of Legendre symbols by Euler's criterion, and U_k and V_k
    read from the k-th power of the companion matrix [[P, -1], [1, 0]] of
    U_(k+1) = P * U_k - U_(k-1): U_k is its lower left entry and V_k its
    trace. As in `_strong_lucas`, a P whose P**2 - 4 shares a factor with n
    is passed over."""

    def jacobi_by_factors(a, m):
        symbol = 1
        while m > 1:
            p = factor[m]
            m //= p
            symbol *= 0 if a % p == 0 else 1 if pow(a, (p - 1) // 2, p) == 1 else -1
        return symbol

    def times(A, B):
        return [[(A[i][0] * B[0][j] + A[i][1] * B[1][j]) % n for j in (0, 1)] for i in (0, 1)]

    if math.isqrt(n) ** 2 == n:
        return False
    P = 3
    while jacobi_by_factors(P * P - 4, n) != -1:
        P += 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    M, power = [[P, n - 1], [1, 0]], [[1, 0], [0, 1]]
    for bit in bin(d)[2:]:
        power = times(power, power)
        if bit == "1":
            power = times(power, M)
    U, V = power[1][0], (power[0][0] + power[1][1]) % n
    if U == 0 and V in (2, n - 2):
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        power = times(power, power)
        V = (power[0][0] + power[1][1]) % n
    return False


# the composites below 10**5 that pass the extra strong Lucas test: OEIS
# A217719 and four more, 15, 119, 1239 and 68439, that pass only because a P
# whose P**2 - 4 shares a factor with them is passed over; trial division
# refuses all four inside `is_probable_prime`
EXTRA_STRONG_LUCAS_PSEUDOPRIMES_BELOW_10_5 = [
    15, 119, 989, 1239, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 68439,
    72389, 73919, 75077,
]


def test_lucas_half_alone_passes_exactly_the_extra_strong_lucas_pseudoprimes():
    """The list is the definition's: the V-only ladder of `_strong_lucas`
    and the matrix powers of `_extra_strong_lucas_by_definition` pass the
    same composites below 10**5, and none of them is a strong probable
    prime to base 2."""
    limit = 10**5
    factor = list(range(limit))  # least prime factors
    for i in range(2, math.isqrt(limit) + 1):
        if factor[i] == i:
            for j in range(i * i, limit, i):
                if factor[j] == j:
                    factor[j] = i
    composites = [n for n in range(5, limit, 2) if factor[n] != n]
    assert [n for n in composites if _strong_lucas(n)] == EXTRA_STRONG_LUCAS_PSEUDOPRIMES_BELOW_10_5
    assert ([n for n in composites if _extra_strong_lucas_by_definition(n, factor)]
            == EXTRA_STRONG_LUCAS_PSEUDOPRIMES_BELOW_10_5)
    for n in EXTRA_STRONG_LUCAS_PSEUDOPRIMES_BELOW_10_5:
        assert not _strong_base_2(n), n
        assert not is_probable_prime(n), n


def test_lucas_half_refuses_squares_before_the_d_search(monkeypatch):
    """No D has (D/n) = -1 for a square n, so the search for one would not
    end: a square is refused before it."""

    def refuse(a, n):
        raise AssertionError(f"a D was tried for the square {n}")

    monkeypatch.setattr(numtheory, "jacobi", refuse)
    for n in (9, 1093**2, 65537**2, (2**61 - 1) ** 2):
        assert not _strong_lucas(n), n


# the least strong pseudoprimes to every prime base up to 11, 13, 17 and 23,
# so to base 2 among them; the first two have a factor below 2^16, so
# trial division alone refuses them inside `is_probable_prime`
STRONG_BASE_2_PSEUDOPRIMES_ABOVE_2_32 = [
    2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
]


@pytest.mark.parametrize("n", STRONG_BASE_2_PSEUDOPRIMES_ABOVE_2_32)
def test_strong_base_2_pseudoprimes_past_2_32_are_refused(n):
    assert n > 2**32 and _strong_base_2(n)
    assert not _strong_lucas(n)
    assert not is_probable_prime(n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2**16, 2**80), factor=st.sampled_from([1, 1009, 65521, 2**61 - 1]))
def test_is_probable_prime_agrees_with_division_below_1000(n, factor):
    """The gcd with the primes below 2^16 changes no verdict, including on
    multiples of primes between 1000 and 2^16."""
    n = n | 1
    assert is_probable_prime(n) == forty_round_miller_rabin(n)
    assert is_probable_prime(n * factor) == forty_round_miller_rabin(n * factor)


def test_is_probable_prime_decides_below_2_32_without_the_base_2_test(monkeypatch):
    """Trial division to 2^16 finds a factor of every composite below 2^32,
    so the base-2 test runs on no input there; 65537^2 has no factor below
    2^16 and is refused by it."""
    tested = []

    def recording(n):
        tested.append(n)
        return _strong_base_2(n)

    monkeypatch.setattr(numtheory, "_strong_base_2", recording)
    assert is_probable_prime(2**32 - 5)
    assert not is_probable_prime(65521 * 65537)
    assert tested == []
    assert not is_probable_prime(65537**2)
    assert is_probable_prime(2**32 + 15)  # the first prime past 2^32
    assert tested == [65537**2, 2**32 + 15]


def test_trial_divide_decides_below_2_32_and_defers_the_rest():
    assert trial_divide(2**32 - 5) is True
    assert trial_divide(65521 * 65537) is False
    assert trial_divide(1009 * (2**61 - 1)) is False
    assert trial_divide(65537**2) is None  # no factor below 2^16
    assert trial_divide(2**32 + 15) is None


def test_trial_division_products_equal_math_prod_of_the_same_primes():
    """The product tree of the primes in [1000, 2^16) is math.prod's integer,
    the primes taken from a sieve of this test's own; so is the product of
    the primes below 1000."""
    sieve = [True] * 2**16
    for i in range(2, 2**8):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, 2**16, i))
    primes = [p for p in range(2, 2**16) if sieve[p]]
    small_primes, small, rest = _trial_division()
    assert small_primes == frozenset(p for p in primes if p < 1000)
    assert small == math.prod(small_primes)
    assert rest == math.prod(p for p in primes if p >= 1000)


def test_is_probable_prime_runs_the_lucas_test_only_past_base_2(monkeypatch):
    """3825123056546413051 is a strong pseudoprime to base 2 with no factor
    below 2^16, so only the Lucas test refuses it; 65537^2 fails base 2 and
    never reaches the Lucas test."""
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211
    tested = []

    def recording(n):
        tested.append(n)
        return _strong_lucas(n)

    monkeypatch.setattr(numtheory, "_strong_lucas", recording)
    assert not is_probable_prime(n)
    assert tested == [n]
    assert not is_probable_prime(65537**2)
    assert tested == [n]


@settings(max_examples=30, deadline=None)
@given(
    bits=st.integers(64, 512),
    kind=st.sampled_from(["odd", "prime", "two primes"]),
    seed=st.integers(0, 2**32),
)
def test_is_probable_prime_matches_40_round_miller_rabin(bits, kind, seed):
    """On random odd numbers, random primes and products of two random
    primes of `bits` bits each, the verdict is the 40-round oracle's."""
    rng = RandomSource(seed)
    if kind == "odd":
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    elif kind == "prime":
        n = gen_prime(bits, rng)
    else:
        n = gen_prime(bits, rng) * gen_prime(bits, rng)
    verdict = is_probable_prime(n)
    assert verdict == forty_round_miller_rabin(n)
    if kind != "odd":
        assert verdict == (kind == "prime")


def test_gen_prime_eight_bits(rng):
    for _ in range(20):
        p = gen_prime(8, rng)
        assert 128 <= p <= 255
        assert is_probable_prime(p)


def test_gen_prime_exact_width_and_primality(rng):
    for bits in (16, 48, 64, 256):
        p = gen_prime(bits, rng)
        assert p.bit_length() == bits
        # top two bits forced: products of two such primes fill 2*bits
        assert p >> (bits - 2) == 3
        assert is_probable_prime(p)


def test_gen_prime_distinct_across_seeds():
    primes = {gen_prime(64, RandomSource(seed)) for seed in range(100)}
    assert len(primes) == 100


def test_gen_prime_rejects_tiny_widths(rng):
    with pytest.raises(MathDomainError):
        gen_prime(7, rng)


def test_gen_group_prime_structure(rng):
    for bits, sub in ((32, 24), (64, 32), (128, 64)):
        p, q = gen_group_prime(bits, sub, rng)
        assert p.bit_length() == bits
        assert q.bit_length() == sub
        assert (p - 1) % (2 * q) == 0
        assert is_probable_prime(p) and is_probable_prime(q)


def test_gen_group_prime_rejects_bad_widths(rng):
    with pytest.raises(MathDomainError):
        gen_group_prime(24, 24, rng)
    with pytest.raises(MathDomainError):
        gen_group_prime(64, 7, rng)


def test_jacobi_fixtures():
    assert jacobi(6, 77) == 1
    assert jacobi(1, 15) == 1
    assert jacobi(7, 77) == 0  # shared factor
    with pytest.raises(MathDomainError):
        jacobi(3, 8)
    with pytest.raises(MathDomainError):
        jacobi(3, 1)


def test_jacobi_matches_euler_criterion_for_small_primes():
    """jacobi(a, p) = +1 iff a is a QR mod p, for every odd prime p < 1000."""
    primes = [n for n in range(3, 1000) if all(n % d for d in range(2, n))]
    for p in primes:
        for a in range(1, p):
            # Euler's criterion: a^((p-1)/2) = 1 mod p exactly for a residue
            assert (jacobi(a, p) == 1) == (pow(a, (p - 1) // 2, p) == 1), (a, p)


def jacobi_by_halving(a: int, n: int) -> int:
    """(a/n) as `jacobi` computed it before it stripped the factors of two in
    one shift: halve a, flipping the sign for each halving at n = 3, 5 mod 8."""
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@settings(max_examples=300)
@given(
    n=(st.integers(1, 2**10) | st.integers(1, 2**1023 - 1)).map(lambda k: 2 * k + 1),
    a=st.integers() | st.integers(-(2**1100), 2**1100),
    twos=st.integers(0, 80),
)
def test_jacobi_matches_the_halving_loop(n, a, twos):
    """Odd n from 3 to 2^1024 - 1, composite or prime; any a, with extra
    factors of two so that runs of both parities are stripped."""
    assert jacobi(a << twos, n) == jacobi_by_halving(a << twos, n)


def test_discrete_log_bounded_fixtures():
    assert discrete_log_bounded(UnitGroup(101), 2, 14, 100) == 10
    assert discrete_log_bounded(UnitGroup(23), 5, 1, 10) == 0
    assert discrete_log_bounded(UnitGroup(101), 2, 3, 4) is None


def test_discrete_log_bounded_returns_smallest_exponent():
    # 2 has order 3 mod 7, so 1 = 2^0 = 2^3 = ...; the answer must be 0
    assert discrete_log_bounded(UnitGroup(7), 2, 1, 10) == 0
    assert discrete_log_bounded(UnitGroup(7), 2, 2, 10) == 1


def test_discrete_log_bounded_roundtrip_small_group():
    # 2 is a primitive root mod 101
    for m in range(101):
        assert discrete_log_bounded(UnitGroup(101), 2, pow(2, m, 101), 100) == m % 100


def test_discrete_log_bounded_roundtrip_larger_group(rng):
    # 3 is a primitive root mod the Fermat prime 65537
    p, g = 65537, 3
    for _ in range(25):
        m = rng.randrange(0, p - 1)
        assert discrete_log_bounded(UnitGroup(p), g, pow(g, m, p), p - 2) == m


def test_discrete_log_bounded_requires_unit_base():
    with pytest.raises(MathDomainError):
        discrete_log_bounded(UnitGroup(9), 6, 3, 5)
    with pytest.raises(MathDomainError):
        baby_steps(UnitGroup(9), 6, 5)


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.sampled_from([7, 101, 65537, 2**31 - 1, 1143713]),
    base=st.integers(2, 2**40),
    exponent=st.integers(0, 2**20),
    target=st.integers(0, 2**40),
    bound=st.integers(1, 5000),
)
def test_discrete_log_bounded_with_a_kept_table_matches_without(
    modulus, base, exponent, target, bound
):
    assume(math.gcd(base, modulus) == 1)
    table = baby_steps(UnitGroup(modulus), base, bound)
    for t in (pow(base, exponent, modulus), target, target * modulus):
        expected = discrete_log_bounded(UnitGroup(modulus), base, t, bound)
        assert discrete_log_bounded(UnitGroup(modulus), base, t, bound, table) == expected


@settings(max_examples=200, deadline=None)
@given(
    base_k=st.integers(0, 18),
    target_k=st.integers(0, 18),
    bound=st.integers(1, 60),
)
def test_curve_discrete_log_with_a_kept_table_matches_iterated_op(
    base_k, target_k, bound
):
    """On the 19-point toy17 group: the smallest m <= bound found by walking
    base^0, base^1, ... with `op`, or None."""
    group = get_curve("toy17")
    base = scalar_mul(base_k, group.g, group)
    target = scalar_mul(target_k, group.g, group)
    expected, power = None, group.identity
    for m in range(bound + 1):
        if power == target:
            expected = m
            break
        power = group.op(power, base)
    table = baby_steps(group, base, bound)
    assert discrete_log_bounded(group, base, target, bound, table) == expected
    assert discrete_log_bounded(group, base, target, bound) == expected


def smallest_log(group, base, target, bound):
    """The smallest m <= bound with base^m = target, by walking base^0,
    base^1, ... with `op`, or None."""
    power = group.identity
    for m in range(bound + 1):
        if power == target:
            return m
        power = group.op(power, base)
    return None


def keys_are_distinct(group, base, table):
    """Whether the table's steps base^j, j < step, have distinct keys: the
    table is keyed by `group.key` exactly then, else by whole elements."""
    step = table[1]
    return len({group.key(group.exp(base, j)) for j in range(step)}) == step


# 2^127 - 1 is prime and its p - 1 has the small factors 2, 3^3, 7^2, 19, 43,
# 73 and 127, so it has bases of small order whose elements are far wider
# than their 60-bit keys. The elements of order 127 are powers of 2, single
# bits, so most of their keys are 0: a true collision
MERSENNE_127 = (1 << 127) - 1


@settings(max_examples=200, deadline=None)
@given(modulus=st.sampled_from([7, 11, 13, 101, 257]), data=st.data())
def test_keyed_discrete_log_is_the_smallest_exponent_for_every_base(modulus, data):
    """Every base of a small Z*_p, so every order: a base whose order is
    below the step repeats an element among the baby steps, and its table
    falls back to whole elements."""
    group = UnitGroup(modulus)
    base = data.draw(st.integers(1, modulus - 1))
    bound = data.draw(st.integers(1, 3 * modulus))
    table = baby_steps(group, base, bound)
    assert (table[3] == group.key) == keys_are_distinct(group, base, table)
    # below 2^60 a key is the whole element: steps repeat one exactly when
    # the base's order is below the step
    order = next(k for k in range(1, modulus) if pow(base, k, modulus) == 1)
    assert keys_are_distinct(group, base, table) == (order >= table[1])
    for target in range(modulus):
        expected = smallest_log(group, base, target, bound)
        assert discrete_log_bounded(group, base, target, bound, table) == expected


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([1, 2, 3, 7, 9, 19, 27, 43, 49, 73, 127, MERSENNE_127 - 1]),
    exponents=st.lists(st.integers(0, 400), min_size=1, max_size=4),
    bound=st.integers(1, 300),
)
def test_keyed_discrete_log_steps_past_elements_that_only_share_a_key(
    order, exponents, bound
):
    """In Z*_(2^127 - 1) a key is the low 60 of 127 bits. Each target is a
    power of the base or that power with bit 80 flipped, which shares its
    key and, for a base of small order, is not a power at all."""
    group = UnitGroup(MERSENNE_127)
    base = pow(3, (MERSENNE_127 - 1) // order, MERSENNE_127)
    table = baby_steps(group, base, bound)
    assert (table[3] == group.key) == keys_are_distinct(group, base, table)
    for k in exponents:
        power = pow(base, k, MERSENNE_127)
        twin = power ^ (1 << 80)
        assert group.key(twin) == group.key(power)
        for target in (power, twin):
            expected = smallest_log(group, base, target, bound)
            assert discrete_log_bounded(group, base, target, bound, table) == expected
            assert discrete_log_bounded(group, base, target, bound) == expected


@settings(max_examples=200, deadline=None)
@given(base_k=st.integers(0, 18), target_k=st.integers(0, 18), bound=st.integers(1, 200))
def test_keyed_curve_discrete_log_is_the_smallest_exponent(base_k, target_k, bound):
    """On toy17, P and -P share a key. With fewer than 10 steps no two baby
    steps are negatives, so a giant element -base^j must be stepped past;
    from 10 steps the table falls back to whole points."""
    group = get_curve("toy17")
    base = scalar_mul(base_k, group.g, group)
    table = baby_steps(group, base, bound)
    assert (table[3] == group.key) == keys_are_distinct(group, base, table)
    negative = point_neg(scalar_mul(target_k, base, group), group)
    for target in (scalar_mul(target_k, group.g, group), negative):
        expected = smallest_log(group, base, target, bound)
        assert discrete_log_bounded(group, base, target, bound, table) == expected


def test_a_point_and_its_negative_share_a_key_but_not_a_log():
    curve = get_curve("secp160r1")
    table = baby_steps(curve, curve.g, 4096)
    for j in (1, 5, 64):
        point = scalar_mul(j, curve.g, curve)
        assert curve.key(point) == curve.key(point_neg(point, curve))
        assert discrete_log_bounded(curve, curve.g, point, 4096, table) == j
        # -jG is (order - j)G, far past the bound
        negative = point_neg(point, curve)
        assert discrete_log_bounded(curve, curve.g, negative, 4096, table) is None
    # no x & KEY_MASK is negative
    assert curve.key(curve.identity) < 0 <= curve.key(curve.g)


def test_a_forced_key_collision_keys_the_table_by_whole_elements(monkeypatch):
    """Every element keyed alike: each table falls back to whole elements
    and every log stays the smallest."""
    monkeypatch.setattr(UnitGroup, "key", lambda self, a: 0)
    monkeypatch.setattr(CurveParams, "key", lambda self, point: 0)
    toy17 = get_curve("toy17")
    cases = [
        (UnitGroup(101), 2, 100, range(101)),
        (UnitGroup(65537), 3, 5000,
         [pow(3, m, 65537) for m in (0, 1, 70, 71, 4999, 5000, 5001)]),
        (UnitGroup(MERSENNE_127), 3, 900,
         [pow(3, m, MERSENNE_127) for m in (0, 29, 30, 899, 901)]),
        (toy17, toy17.g, 60, [scalar_mul(k, toy17.g, toy17) for k in range(19)]),
    ]
    for group, base, bound, targets in cases:
        table = baby_steps(group, base, bound)
        assert set(table[0]) == {group.exp(base, j) for j in range(table[1])}
        assert table[3] != group.key
        for target in targets:
            expected = smallest_log(group, base, target, bound)
            assert discrete_log_bounded(group, base, target, bound, table) == expected
            assert discrete_log_bounded(group, base, target, bound) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bits=st.integers(16, 96), data=st.data())
def test_fixed_base_pow_matches_builtin_pow(seed, bits, data):
    """BGMW from a fixed-base table against builtin pow, over the group of a
    random toy ElGamal key: edge exponents, random ones and ones past the
    table's width (which fall back to pow)."""
    p, _ = gen_group_prime(bits, 8, RandomSource(seed))
    g = data.draw(st.integers(2, p - 1))
    power = UnitGroup(p).fixed_base(g, p.bit_length())
    width, entries = fixed_base_table(UnitGroup(p), g, p.bit_length())
    covered = width * len(entries)
    assert covered >= p.bit_length()
    exponents = [0, 1, 2, p - 2, p - 1, 2**covered - 1, 2**covered, p**2]
    exponents += data.draw(st.lists(st.integers(0, p), min_size=1, max_size=8))
    for k in exponents:
        assert power(k) == pow(g, k, p), k


# odd bases, with 15 and 21 among those that have a prime factor <= digits
odd_bases = st.one_of(
    st.sampled_from([3, 5, 9, 15, 21, 105]), st.integers(1, 400).map(lambda v: 2 * v + 1)
)


@settings(max_examples=300, deadline=None)
@given(base=odd_bases, digits=st.integers(1, 5), z=st.integers(0, 2**40), data=st.data())
def test_binomial_log_inverts_binomial_pow(base, digits, z, data):
    """(1 + base*z)^i by its first digits+1 binomial terms is builtin pow
    modulo base^(digits+1), and binomial_log reads i mod base^digits back."""
    modulus = base ** (digits + 1)
    i = data.draw(st.integers(0, base ** (digits + 2)))
    assert binomial_pow(base * z, i, digits + 1, modulus) == pow(1 + base * z, i, modulus)
    assert binomial_log(binomial_pow(base, i, digits + 1, modulus), base, digits) == (
        i % base**digits
    )


def comb_binomial_log(a: int, base: int, digits: int) -> int:
    """binomial_log with each C(i, k) from `math.comb`: the oracle for the
    incremental binomials."""
    i = 0
    for j in range(1, digits + 1):
        base_j = base**j
        t = (a % (base_j * base) - 1) // base
        for k in range(2, j + 1):
            t -= math.comb(i, k) * base ** (k - 1)
        i = t % base_j
    return i


@settings(max_examples=200, deadline=None)
@given(base=odd_bases | st.sampled_from([65537, 2**61 - 1]), digits=st.integers(1, 11),
       data=st.data())
def test_binomial_log_matches_its_math_comb_form(base, digits, data):
    """C(i, k) built from C(i, k-1) is the same integer as math.comb, so any
    residue, a power of 1+base or not, reads to the same digits."""
    a = data.draw(st.integers(0, base ** (digits + 1) - 1))
    assert binomial_log(a, base, digits) == comb_binomial_log(a, base, digits)


@pytest.mark.parametrize(
    "base, digits", [(3, 1), (3, 4), (5, 3), (9, 2), (15, 2), (15, 3), (21, 2), (35, 2)]
)
def test_binomial_log_matches_a_brute_force_log(base, digits):
    """1+base has order base^digits modulo base^(digits+1); every power of it
    gives back its exponent."""
    modulus = base ** (digits + 1)
    logs: dict[int, int] = {}
    x = 1
    for i in range(base**digits):
        logs.setdefault(x, i)
        x = x * (1 + base) % modulus
    assert x == 1 and len(logs) == base**digits
    assert all(binomial_log(a, base, digits) == i for a, i in logs.items())


def test_random_coprime_below_postcondition(rng):
    for n in (35, 97, 221):
        for _ in range(50):
            r = random_coprime_below(n, rng)
            assert 2 <= r <= n - 1
            assert math.gcd(r, n) == 1
    with pytest.raises(MathDomainError):
        random_coprime_below(2, rng)


def test_random_coprime_below_roughly_uniform():
    """Chi-square over the units of Z/35 stays under the 0.1% critical value."""
    n = 35
    # the draw range is [2, n-1], so the unit 1 is never produced
    units = [u for u in range(2, n) if math.gcd(u, n) == 1]
    draws = 1000
    rng = RandomSource(20260817)
    counts = {u: 0 for u in units}
    for _ in range(draws):
        counts[random_coprime_below(n, rng)] += 1
    expected = draws / len(counts)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # df = 22, critical value at p = 0.001 is 48.27
    assert chi2 < 48.27, chi2


def test_random_source_seeded_reproducibility():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.getrandbits(64) for _ in range(10)] == [
        b.getrandbits(64) for _ in range(10)
    ]
