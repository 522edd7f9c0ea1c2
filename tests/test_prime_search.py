"""Key generation's prime searches against a 40-round Miller-Rabin oracle.

Every search confirms its candidates with `is_probable_prime`, Baillie-PSW,
so a seeded search with the oracle in its place must find the same primes
with the same draws. Naccache-Stern's search, which trial-divides both of
its numbers before either is tested, is checked against the `gen_prime`
search it replaced.
"""

import pytest

from conftest import forty_round_miller_rabin
import phekit.numtheory as numtheory
import phekit.schemes.naccache_stern as naccache_stern
from phekit import RandomSource, parse_key, serialize_key
from phekit.errors import KeygenExhaustedError
from phekit.schemes import SCHEME_CLASSES, generate_keys

PRIME_SEARCH_SCHEMES = sorted(set(SCHEME_CLASSES) - {"ec-elgamal"})



@pytest.mark.parametrize("algorithm", PRIME_SEARCH_SCHEMES)
def test_seeded_keygen_matches_the_40_round_oracle(algorithm, monkeypatch):
    """The seeded key, and the draw after it, are the ones made with the
    40-round oracle patched in for `is_probable_prime`."""
    bits = 256 if algorithm in ("benaloh", "naccache-stern") else 384
    fast_rng = RandomSource(11)
    fast = serialize_key(generate_keys(algorithm, bits, None, fast_rng))
    confirmed = []

    def oracle(n):
        verdict = forty_round_miller_rabin(n)
        if verdict:
            confirmed.append(n)
        return verdict

    monkeypatch.setattr(numtheory, "is_probable_prime", oracle)
    monkeypatch.setattr(naccache_stern, "is_probable_prime", oracle)
    slow_rng = RandomSource(11)
    slow = serialize_key(generate_keys(algorithm, bits, None, slow_rng))
    # the oracle confirmed primes past 2^64, where trial division and the
    # base-2 test alone do not decide
    assert max(confirmed) > 2**64
    assert fast == slow
    assert fast_rng.getrandbits(64) == slow_rng.getrandbits(64)


@pytest.mark.parametrize("algorithm", ["benaloh", "naccache-stern"])
def test_key_files_and_message_primes_never_reach_the_base_2_test(algorithm, monkeypatch):
    """`parse_key` and `message_primes` test only numbers below 2^32, which
    trial division decides alone."""
    text = serialize_key(generate_keys(algorithm, 256, None, RandomSource(5)))
    tested = []
    original = numtheory.is_probable_prime

    def recording(n):
        tested.append(n)
        return original(n)

    def refuse(n):
        raise AssertionError(f"{n} reached the base-2 test")

    monkeypatch.setattr(naccache_stern, "is_probable_prime", recording)
    monkeypatch.setattr(numtheory, "_strong_base_2", refuse)
    parse_key(text)
    naccache_stern.message_primes(40)
    assert tested and max(tested) < 2**32


def gen_prime_factor_with(cofactor, bits, aux_bits, budget, rng):
    """Naccache-Stern's search as it was before it ran the cheap tests first:
    `gen_prime` proves each auxiliary, one retry each, then the pair is
    tested. The oracle for `naccache_stern._factor_with`."""
    for _ in budget:
        aux = numtheory.gen_prime(aux_bits, rng)
        candidate = 2 * aux * cofactor + 1
        if candidate.bit_length() == bits and numtheory.is_probable_prime(candidate):
            return candidate, aux
    raise KeygenExhaustedError(
        "naccache-stern: no prime with the required smooth part within the retry budget"
    )


def naccache_stern_outcome(bits, seed):
    """The serialized key or the exhaustion message, and the next draw."""
    rng = RandomSource(seed)
    try:
        outcome = serialize_key(generate_keys("naccache-stern", bits, None, rng))
    except KeygenExhaustedError as exc:
        outcome = str(exc)
    return outcome, rng.getrandbits(64)


@pytest.mark.parametrize("bits, seeds", [(128, range(6)), (256, range(3))])
def test_naccache_stern_search_matches_the_gen_prime_search(bits, seeds, monkeypatch):
    fast = [naccache_stern_outcome(bits, seed) for seed in seeds]
    monkeypatch.setattr(naccache_stern, "_factor_with", gen_prime_factor_with)
    assert fast == [naccache_stern_outcome(bits, seed) for seed in seeds]


@pytest.mark.parametrize("seed", [3, 4])
def test_naccache_stern_budget_counts_auxiliary_primes_exactly(seed, monkeypatch):
    """At 128 bits the auxiliaries are past 2^32, so trial division leaves
    them pending. For every budget up to a few past the smallest that makes
    the key, the search makes the same key or runs out with the same
    message, and leaves the same next draw, as the `gen_prime` search."""
    checks = []  # (retries left, pending auxiliaries) at each check
    fast_factor_with, has_left = naccache_stern._factor_with, naccache_stern._Budget.has_left

    def recording(budget):
        checks.append((budget.left, len(budget.pending)))
        return has_left(budget)

    def outcome(factor_with, budget):
        monkeypatch.setattr(naccache_stern, "_factor_with", factor_with)
        monkeypatch.setattr(naccache_stern, "RETRY_BUDGET", budget)
        return naccache_stern_outcome(128, seed)

    smallest = 0
    while not outcome(gen_prime_factor_with, smallest)[0].startswith("{"):
        smallest += 1
    budgets = range(smallest + 4)
    slow = [outcome(gen_prime_factor_with, budget) for budget in budgets]
    monkeypatch.setattr(naccache_stern._Budget, "has_left", recording)
    assert [outcome(fast_factor_with, budget) for budget in budgets] == slow
    # the pending auxiliaries were proven because the budget could run out
    assert any(0 < pending >= left for left, pending in checks)
