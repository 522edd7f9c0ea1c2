"""Key generation's prime searches against the 40-round slow path.

The searches that draw their own candidates confirm them with
`search_rounds(bits)` Miller-Rabin rounds; every other caller keeps 40.
Bases come from the candidate itself, so a prime gets the same verdict at
any count, and a seeded search finds the same primes with the same draws
unless a composite passes all of the first rounds' bases.
"""

import pytest

import phekit.numtheory as numtheory
import phekit.schemes.naccache_stern as naccache_stern
from phekit import RandomSource, parse_key, serialize_key
from phekit.schemes import SCHEME_CLASSES, generate_keys

PRIME_SEARCH_SCHEMES = sorted(set(SCHEME_CLASSES) - {"ec-elgamal"})



@pytest.mark.parametrize("algorithm", PRIME_SEARCH_SCHEMES)
def test_seeded_keygen_matches_the_40_round_search(algorithm, monkeypatch):
    fast_rng = RandomSource(11)
    fast = serialize_key(generate_keys(algorithm, 384, None, fast_rng))
    widths = []

    def forty_rounds(bits):
        widths.append(bits)
        return 40

    monkeypatch.setattr(numtheory, "search_rounds", forty_rounds)
    monkeypatch.setattr(naccache_stern, "search_rounds", forty_rounds)
    slow_rng = RandomSource(11)
    slow = serialize_key(generate_keys(algorithm, 384, None, slow_rng))
    # the fast run used fewer rounds: its searches reached the table
    assert max(widths) >= 100
    assert fast == slow
    assert fast_rng.getrandbits(64) == slow_rng.getrandbits(64)


@pytest.mark.parametrize("algorithm", ["benaloh", "naccache-stern"])
def test_key_files_are_checked_at_the_default_rounds(algorithm, monkeypatch):
    """`parse_key` and `message_primes` leave `is_probable_prime` at its
    default round count."""
    text = serialize_key(generate_keys(algorithm, 256, None, RandomSource(5)))
    calls = []
    original = numtheory.is_probable_prime

    def recording(n, *rounds):
        calls.append(rounds)
        return original(n, *rounds)

    monkeypatch.setattr(naccache_stern, "is_probable_prime", recording)
    parse_key(text)
    naccache_stern.message_primes(40)
    assert calls and set(calls) == {()}
