import json
import math
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phekit.ec as ec_module
import phekit.numtheory as numtheory_module
import phekit.schemes.elgamal as elgamal_module
import phekit.schemes.naccache_stern as naccache_stern_module
from conftest import EXPECTED_MATRIX, TOY_KEYGEN
from phekit import PHE, Ciphertext, ParseError, RandomSource, parse_key, serialize_key
from phekit.ec import IDENTITY, CurvePoint, get_curve, is_on_curve, scalar_mul
from phekit.errors import (
    BitLengthError,
    CapabilityError,
    DecryptionBoundError,
    KeygenExhaustedError,
    MathDomainError,
    MissingPrivateKeyError,
    PayloadTypeError,
    PlaintextRangeError,
)
from phekit.numtheory import (
    baby_steps,
    discrete_log_bounded,
    is_probable_prime,
    jacobi,
    random_coprime_below,
)
from phekit.schemes import (
    SCHEME_CLASSES,
    KeyPair,
    generate_keys,
    scheme_class,
    scheme_for,
)
from phekit.schemes.base import ModulusScheme


class FixedRandom:
    """Stand-in random source that returns a scripted value from randrange."""

    def __init__(self, value: int):
        self.value = value

    def randrange(self, start: int, stop: int) -> int:
        assert start <= self.value < stop
        return self.value

    def getrandbits(self, k: int) -> int:
        return self.value


# hand-verified toy key material; see the matching frozen ciphertexts below
RSA_TOY = KeyPair("rsa", 12, {"n": 3233, "e": 17}, {"p": 61, "q": 53, "d": 413})
ELGAMAL_TOY = KeyPair("elgamal", 5, {"p": 23, "g": 5, "h": 8}, {"x": 6})
PAILLIER_TOY = KeyPair("paillier", 4, {"n": 15, "g": 16}, {"p": 3, "q": 5})
GM_TOY = KeyPair("goldwasser-micali", 7, {"n": 77, "x": 6}, {"p": 7, "q": 11})
DJ_TOY = KeyPair(
    "damgard-jurik", 4, {"n": 15, "g": 16}, {"p": 3, "q": 5}, {"s": 2}
)
OU_TOY = KeyPair(
    "okamoto-uchiyama",
    8,
    {"n": 245, "g": 2, "h": 67},
    {"p": 7, "q": 5},
    {"plaintext_bits": 2},
)
BENALOH_TOY = KeyPair(
    "benaloh", 10, {"n": 721, "y": 2, "r": 17}, {"p": 103, "q": 7},
    {"block_size": 17},
)
NS_TOY = KeyPair(
    "naccache-stern",
    21,
    {"n": 1143713, "g": 3, "sigma": 1155},
    {"p": 571, "q": 2003},
    {"prime_count": 4},
)


def toy_keys(algorithm: str, rng: RandomSource) -> KeyPair:
    bits, params = TOY_KEYGEN[algorithm]
    return generate_keys(algorithm, bits, params=params, rng=rng)


# ---------------------------------------------------------------- fixtures


def test_rsa_frozen_vector():
    # encryption is deterministic: the one scheme with no random key
    rsa = scheme_for(RSA_TOY)
    assert rsa.encrypt(65, RandomSource()) == 2790
    assert rsa.decrypt(2790) == 65


def test_elgamal_frozen_vector():
    elgamal = scheme_for(ELGAMAL_TOY)
    c = elgamal.encrypt(10, FixedRandom(3))
    assert c == (10, 14)
    assert elgamal.decrypt((10, 14)) == 10


def test_paillier_frozen_vector():
    paillier = scheme_for(PAILLIER_TOY)
    c = paillier.encrypt(7, FixedRandom(2))
    assert c == 83
    assert paillier.decrypt(83) == 7


def test_goldwasser_micali_frozen_vector():
    gm = scheme_for(GM_TOY)
    # one bit, r = 2: residue is r^2 * x = 4 * 6 = 24 mod 77
    c = gm.encrypt(1, FixedRandom(2))
    assert c == [24]
    assert gm.decrypt([24]) == 1
    # bit 0 omits the non-residue factor
    assert gm.encrypt(0, FixedRandom(2)) == [4]
    assert gm.decrypt([4]) == 0


def test_damgard_jurik_frozen_vector():
    dj = scheme_for(DJ_TOY)
    # oracle: 16^7 * 2^225 mod 3375 = 3242
    c = dj.encrypt(7, FixedRandom(2))
    assert c == 3242
    assert dj.decrypt(3242) == 7


def test_damgard_jurik_digit_extraction():
    # c = (1+n)^208 mod n^3 exercises both base-15 digits of m = 13*15 + 13
    assert scheme_for(DJ_TOY).decrypt(421) == 208


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [2, 3])
def test_damgard_jurik_decrypts_under_any_generator(a, s):
    # g = (n+1)^a * b^(n^s) mod n^(s+1) generates for any unit a mod n; the
    # decryption constant L_s(g^lambda)^-1 undoes the factor a
    rng = RandomSource(10 * a + s)
    keys = generate_keys("damgard-jurik", 64, params={"s": s}, rng=rng)
    n = keys.public["n"]
    modulus = n ** (s + 1)
    b = random_coprime_below(n, rng)
    g = pow(n + 1, a, modulus) * pow(b, n**s, modulus) % modulus
    scheme = scheme_for(keys.replace(public={"n": n, "g": g}))
    for m in (0, 1, 1234, n**s - 1, rng.randrange(0, n**s)):
        assert scheme.decrypt(scheme.encrypt(m, rng)) == m


def test_okamoto_uchiyama_frozen_vector():
    ou = scheme_for(OU_TOY)
    # oracle: 2^3 * 67^2 mod 245 = 142
    c = ou.encrypt(3, FixedRandom(2))
    assert c == 142
    assert ou.decrypt(142) == 3


def test_benaloh_frozen_vector():
    benaloh = scheme_for(BENALOH_TOY)
    # oracle: 2^5 * 2^17 mod 721 = 247
    c = benaloh.encrypt(5, FixedRandom(2))
    assert c == 247
    assert benaloh.decrypt(247) == 5


def test_naccache_stern_frozen_vector():
    ns = scheme_for(NS_TOY)
    # oracle: 3^1000 * 2^1155 mod 1143713 = 973473; residues (1, 0, 6, 10)
    c = ns.encrypt(1000, FixedRandom(2))
    assert c == 973473
    assert ns.decrypt(973473) == 1000


# ------------------------------------------------------- raw operation laws


def test_paillier_raw_add_fixtures(rng):
    paillier = scheme_for(PAILLIER_TOY)
    c = paillier.add(paillier.encrypt(3, rng), paillier.encrypt(4, rng))
    assert paillier.decrypt(c) == 7
    c = paillier.add(paillier.encrypt(9, rng), paillier.encrypt(0, rng))
    assert paillier.decrypt(c) == 9


def test_ec_elgamal_raw_add_toy17(rng):
    scheme = scheme_for(toy_keys("ec-elgamal", rng))
    c = scheme.add(scheme.encrypt(2, rng), scheme.encrypt(3, rng))
    assert scheme.decrypt(c) == 5


def test_rsa_raw_mul_fixtures(rng):
    rsa = scheme_for(RSA_TOY)
    c = rsa.mul(rsa.encrypt(6, rng), rsa.encrypt(7, rng))
    assert rsa.decrypt(c) == 42
    c = rsa.mul(rsa.encrypt(65, rng), rsa.encrypt(1, rng))
    assert rsa.decrypt(c) == 65


def test_elgamal_raw_mul_fixture(rng):
    elgamal = scheme_for(ELGAMAL_TOY)
    c = elgamal.mul(elgamal.encrypt(3, rng), elgamal.encrypt(5, rng))
    assert elgamal.decrypt(c) == 15


def test_gm_raw_xor_fixture(rng):
    gm = scheme_for(GM_TOY)
    c1 = gm.encrypt(0b1010, rng)
    c2 = gm.encrypt(0b0110, rng, bits=4)
    assert gm.decrypt(gm.xor(c1, c2)) == 0b1100
    zero = gm.encrypt(0, rng)
    # xor with an all-zero word of the right width is the identity
    padded_zero = gm.encrypt(0, rng, bits=4)
    assert gm.decrypt(gm.xor(c1, padded_zero)) == 0b1010
    assert len(zero) == 1


def test_gm_xor_width_mismatch(rng):
    gm = scheme_for(GM_TOY)
    c4 = gm.encrypt(0b1010, rng)
    c5 = gm.encrypt(0b10110, rng)
    with pytest.raises(BitLengthError):
        gm.xor(c4, c5)


def test_gm_explicit_width(rng):
    scheme = scheme_for(GM_TOY)
    c = scheme.encrypt(5, rng, bits=8)
    assert len(c) == 8
    assert scheme.decrypt(c) == 5
    with pytest.raises(PlaintextRangeError):
        scheme.encrypt(5, rng, bits=2)


def test_paillier_raw_scalar_fixtures(rng):
    paillier = scheme_for(PAILLIER_TOY)
    c = paillier.scalar(paillier.encrypt(3, rng), 4)
    assert paillier.decrypt(c) == 12
    c = paillier.encrypt(11, rng)
    assert paillier.decrypt(paillier.scalar(c, 1)) == 11
    assert paillier.decrypt(paillier.scalar(c, 0)) == 0
    with pytest.raises(MathDomainError):
        paillier.scalar(c, -2)


def test_regeneration_law_paillier(rng):
    paillier = scheme_for(PAILLIER_TOY)
    c = paillier.encrypt(7, rng)
    c2 = paillier.regenerate(c, rng)
    assert c2 != c
    assert paillier.decrypt(c2) == 7
    c3 = paillier.regenerate(c2, rng)
    assert paillier.decrypt(c3) == 7


def test_regeneration_rejected_for_rsa(rng):
    rsa = scheme_for(RSA_TOY)
    c = rsa.encrypt(5, rng)
    with pytest.raises(CapabilityError, match="^RSA does not support ciphertext regeneration$"):
        rsa.regenerate(c, rng)


def test_additive_results_wrap_at_the_plaintext_modulus(rng):
    # benaloh wraps mod its block, naccache-stern mod sigma
    benaloh = scheme_for(BENALOH_TOY)
    c = benaloh.add(benaloh.encrypt(15, rng), benaloh.encrypt(9, rng))
    assert benaloh.decrypt(c) == (15 + 9) % 17
    ns = scheme_for(NS_TOY)
    c = ns.add(ns.encrypt(1000, rng), ns.encrypt(500, rng))
    assert ns.decrypt(c) == (1000 + 500) % 1155


# ------------------------------------------------------------- roundtrips


@pytest.mark.parametrize("algorithm", sorted(SCHEME_CLASSES))
def test_toy_roundtrip_random_plaintexts(algorithm, rng):
    scheme = scheme_for(toy_keys(algorithm, rng))
    bound = scheme.plaintext_bound()
    top = min(1 << 18, bound) if bound is not None else 1 << 18
    for _ in range(20):
        m = rng.randrange(0, top)
        assert scheme.decrypt(scheme.encrypt(m, rng)) == m


@pytest.mark.parametrize("algorithm", sorted(SCHEME_CLASSES))
def test_zero_roundtrip(algorithm, rng):
    scheme = scheme_for(toy_keys(algorithm, rng))
    assert scheme.decrypt(scheme.encrypt(0, rng)) == 0


@pytest.mark.parametrize("algorithm", sorted(set(SCHEME_CLASSES) - {"rsa"}))
def test_probabilistic_encryption(algorithm, rng):
    scheme = scheme_for(toy_keys(algorithm, rng))
    assert scheme.encrypt(1, rng) != scheme.encrypt(1, rng)


def test_rsa_encryption_is_deterministic(rng):
    rsa = scheme_for(toy_keys("rsa", rng))
    assert rsa.encrypt(99, rng) == rsa.encrypt(99, rng)


# ------------------------------------------------------------ key generation


def test_generate_paillier_1024_structure(rng):
    keys = generate_keys("paillier", 1024, rng=rng)
    n = keys.public["n"]
    assert n.bit_length() == 1024
    assert keys.public["g"] == n + 1
    assert keys.security_bits == 1024


def test_generate_ec_160_structure(rng):
    keys = generate_keys("ec-elgamal", 160, rng=rng)
    curve = get_curve(keys.params["curve"])
    assert curve.p.bit_length() == 160
    q_point = CurvePoint(keys.public["qx"], keys.public["qy"])
    assert is_on_curve(q_point, curve)


def test_generate_rsa_32_consistency():
    keys = generate_keys("rsa", 32, rng=RandomSource(5))
    again = generate_keys("rsa", 32, rng=RandomSource(5))
    assert keys == again  # reproducible under a fixed seed
    p, q = keys.private["p"], keys.private["q"]
    phi = (p - 1) * (q - 1)
    e, d = keys.public["e"], keys.private["d"]
    assert math.gcd(e, phi) == 1
    assert e * d % phi == 1
    assert keys.public["n"] == p * q


def test_generate_okamoto_uchiyama_structure(rng):
    keys = generate_keys("okamoto-uchiyama", 48, rng=rng)
    p, q = keys.private["p"], keys.private["q"]
    n = keys.public["n"]
    assert n == p * p * q
    assert n.bit_length() == 48
    assert is_probable_prime(p) and is_probable_prime(q)
    # g must have multiplicative order p modulo p^2
    assert pow(keys.public["g"], p - 1, p * p) != 1
    assert keys.public["h"] == pow(keys.public["g"], n, n)


def test_generate_benaloh_structure(rng):
    keys = generate_keys("benaloh", 48, params={"block_size": 17}, rng=rng)
    p, q = keys.private["p"], keys.private["q"]
    r = keys.public["r"]
    assert r == 17
    assert (p - 1) % r == 0
    assert ((p - 1) // r) % r != 0
    assert (q - 1) % r != 0
    phi = (p - 1) * (q - 1)
    assert pow(keys.public["y"], phi // r, keys.public["n"]) != 1


def test_generate_naccache_stern_structure(rng):
    keys = generate_keys("naccache-stern", 48, params={"prime_count": 4}, rng=rng)
    p, q = keys.private["p"], keys.private["q"]
    sigma = keys.public["sigma"]
    assert sigma == 3 * 5 * 7 * 11
    assert keys.public["n"] == p * q
    phi = (p - 1) * (q - 1)
    assert phi % sigma == 0
    for prime in (3, 5, 7, 11):
        assert pow(keys.public["g"], phi // prime, keys.public["n"]) != 1


def test_generate_elgamal_consistency(rng):
    keys = generate_keys("elgamal", 64, rng=rng)
    p, g, h = keys.public["p"], keys.public["g"], keys.public["h"]
    assert p.bit_length() == 64
    assert is_probable_prime(p)
    assert pow(g, keys.private["x"], p) == h


@pytest.mark.parametrize("algorithm", sorted(SCHEME_CLASSES))
def test_key_fields_are_declared_once(algorithm, rng):
    cls = scheme_class(algorithm)
    keys = toy_keys(algorithm, rng)
    assert sorted(keys.public) == sorted(cls.public_fields)
    assert sorted(keys.private) == sorted(cls.private_fields)
    private = scheme_for(keys)
    public = scheme_for(keys.public_only())
    for name in cls.public_fields:
        assert getattr(private, name) == getattr(public, name) == keys.public[name]
    for name in cls.private_fields:
        assert getattr(private, name) == keys.private[name]
        assert getattr(public, name) is None


def test_benaloh_rejects_composite_block(rng):
    with pytest.raises(MathDomainError):
        generate_keys("benaloh", 48, params={"block_size": 15}, rng=rng)


def test_benaloh_rejects_block_too_large_for_keysize(rng):
    with pytest.raises(MathDomainError):
        generate_keys("benaloh", 32, params={"block_size": 65521}, rng=rng)


def test_benaloh_budget_exhaustion(rng, monkeypatch):
    monkeypatch.setattr(naccache_stern_module, "RETRY_BUDGET", 0)
    with pytest.raises(KeygenExhaustedError):
        generate_keys("benaloh", 48, params={"block_size": 17}, rng=rng)


def test_naccache_stern_spends_one_retry_budget(monkeypatch):
    """Both prime searches and the generator search draw from one budget: the
    smallest budget that makes the seeded key makes the same key as the full
    one, and one retry less runs out in the generator search, the last."""
    def keygen(budget):
        monkeypatch.setattr(naccache_stern_module, "RETRY_BUDGET", budget)
        return generate_keys("naccache-stern", 48, params={"prime_count": 4},
                             rng=RandomSource(5))

    full = naccache_stern_module.RETRY_BUDGET
    expected = keygen(full)
    low, high = 0, full  # keygen(low) runs out, keygen(high) does not
    while high - low > 1:
        mid = (low + high) // 2
        try:
            keygen(mid)
            high = mid
        except KeygenExhaustedError:
            low = mid
    assert keygen(high) == expected
    with pytest.raises(KeygenExhaustedError, match="no generator within the budget"):
        keygen(high - 1)
    with pytest.raises(KeygenExhaustedError, match="smooth part"):
        keygen(0)


def test_naccache_stern_rejects_too_few_primes_or_too_small_a_key(rng):
    with pytest.raises(MathDomainError, match="at least two message primes"):
        generate_keys("naccache-stern", 256, params={"prime_count": 1}, rng=rng)
    with pytest.raises(MathDomainError, match="32 too small for 8 message primes"):
        generate_keys("naccache-stern", 32, rng=rng)


def test_ec_keygen_at_an_unregistered_size_lists_the_sizes(rng):
    with pytest.raises(MathDomainError, match=r"\(sizes: 160, 224, 256, 384\)"):
        generate_keys("ec-elgamal", 200, rng=rng)


def test_damgard_jurik_rejects_bad_s(rng):
    with pytest.raises(MathDomainError):
        generate_keys("damgard-jurik", 64, params={"s": 0}, rng=rng)


@pytest.mark.parametrize("algorithm, name, value", [
    ("damgard-jurik", "s", "2"), ("damgard-jurik", "s", True), ("damgard-jurik", "s", 2.0),
    ("naccache-stern", "prime_count", "3"), ("benaloh", "block_size", 5.0),
    ("exp-elgamal", "dlp_bound", "5"), ("exp-elgamal", "dlp_bound", 0),
    ("exp-elgamal", "dlp_bound", -3), ("ec-elgamal", "dlp_bound", 0),
])
def test_integer_params_are_positive_integers_at_keygen(algorithm, name, value):
    """Checked before the search, by the rule `parse_key` applies to key files:
    a string, float or bool would fail later or write a file that does not
    parse, and a dlp_bound below 1 makes a key that refuses every plaintext."""
    params = {name: value, **({"curve": "toy17"} if algorithm == "ec-elgamal" else {})}
    with pytest.raises(MathDomainError, match=f"parameter {name} must be a positive integer"):
        generate_keys(algorithm, 64, params=params, rng=RandomSource(1))


def test_damgard_jurik_keygen_refuses_s_past_its_primes():
    """16-bit moduli have 8-bit primes; parse_key refuses s >= p, q, so key
    generation does too."""
    with pytest.raises(MathDomainError, match="s must be below both primes"):
        generate_keys("damgard-jurik", 16, params={"s": 300}, rng=RandomSource(1))


def test_keygen_holds_s_and_dlp_bound_to_their_cost_bounds():
    """The rules parse_key applies: s <= 16 with (s+1) * bits(n) <= 23040,
    and dlp_bound <= 2^32."""
    for bits, s in ((64, 17), (1024, 17), (2048, 11)):
        with pytest.raises(MathDomainError, match="parameter s must be at most 16"):
            generate_keys("damgard-jurik", bits, params={"s": s}, rng=RandomSource(1))
    for algorithm, params in (("exp-elgamal", {}), ("ec-elgamal", {"curve": "toy17"})):
        with pytest.raises(MathDomainError, match="parameter dlp_bound must be at most"):
            generate_keys(algorithm, 64, params=dict(params, dlp_bound=2**32 + 1),
                          rng=RandomSource(1))
    keys = generate_keys("exp-elgamal", 64, params={"dlp_bound": 2**32}, rng=RandomSource(1))
    assert parse_key(serialize_key(keys)) == keys


def test_the_largest_benaloh_block_encrypts_and_decrypts():
    """r = 2^32 - 5, the largest prime below 2^32, at 256 bits: 2^16 baby steps."""
    keys = generate_keys("benaloh", 256, params={"block_size": 4294967291},
                         rng=RandomSource(1))
    scheme = scheme_for(parse_key(serialize_key(keys)))
    rng = RandomSource(2)
    for m in (0, 1, 4294967290):
        assert scheme.decrypt(scheme.encrypt(m, rng)) == m


def test_a_refused_damgard_jurik_s_costs_no_draw():
    """What the requested size alone refuses is refused before the modulus is
    drawn: the cost bound, with n exactly that wide, and an s that no prime
    of half that width exceeds; so is a Benaloh block past 2^32, by the rule
    parse_key applies. The source is left where a fresh one starts."""
    for algorithm, bits, params, reason in (
            ("damgard-jurik", 2048, {"s": 11}, "s must be at most 16"),
            ("damgard-jurik", 16, {"s": 300}, "s must be below both primes"),
            ("benaloh", 256, {"block_size": 2**32 + 15}, "block_size must be at most"),
            ("benaloh", 256, {"block_size": 2**61 - 1}, "block_size must be at most")):
        rng = RandomSource(1)
        with pytest.raises(MathDomainError, match=f"parameter {reason}"):
            generate_keys(algorithm, bits, params=params, rng=rng)
        assert rng.getrandbits(64) == RandomSource(1).getrandbits(64)


def test_unknown_param_rejected(rng):
    with pytest.raises(MathDomainError):
        generate_keys("paillier", 64, params={"wat": 1}, rng=rng)


def test_unknown_algorithm_rejected(rng):
    with pytest.raises(CapabilityError):
        generate_keys("vigenere", 64, rng=rng)
    with pytest.raises(CapabilityError):
        scheme_class("vigenere")


# ------------------------------------------------------------- error paths


def test_plaintext_range_error_names_the_bound(rng):
    with pytest.raises(PlaintextRangeError, match="17"):
        scheme_for(BENALOH_TOY).encrypt(17, rng)
    with pytest.raises(PlaintextRangeError):
        scheme_for(PAILLIER_TOY).encrypt(-1, rng)
    with pytest.raises(PlaintextRangeError):
        scheme_for(RSA_TOY).encrypt(3233, rng)
    with pytest.raises(PlaintextRangeError):
        scheme_for(PAILLIER_TOY).encrypt(True, rng)


def test_no_refusal_formats_an_integer_past_the_digit_limit(int_digit_limit):
    """A refusal names an integer past its bound by its bit length, so it
    reads the same under every int/str digit limit, and never trips over
    that limit into a bare ValueError."""
    messages = {}
    for limit in (0, 640, 4300):
        int_digit_limit(limit)
        with pytest.raises(PlaintextRangeError, match="plaintext a 16610-bit integer") as big_m:
            PHE("paillier", 256, rng=RandomSource(1)).encrypt(10**5000)
        with pytest.raises(MathDomainError, match="got a 16610-bit integer") as big_s:
            generate_keys("damgard-jurik", 64, params={"s": 10**5000}, rng=RandomSource(1))
        with pytest.raises(MathDomainError, match="must be a positive integer") as negative:
            generate_keys("exp-elgamal", 64, params={"dlp_bound": -10**5000},
                          rng=RandomSource(1))
        messages[limit] = [str(e.value) for e in (big_m, big_s, negative)]
    assert messages[0] == messages[640] == messages[4300]


def test_a_damgard_jurik_bound_past_the_digit_limit_is_named_by_its_bits(int_digit_limit):
    """n^16 of a 1024-bit n has more than 4900 digits: the plaintext bound a
    refusal names is past the default limit, and past 640."""
    int_digit_limit(640)
    scheme = scheme_for(generate_keys("damgard-jurik", 1024, params={"s": 16},
                                      rng=RandomSource(1)))
    bits = scheme.plaintext_bound().bit_length()
    assert bits > 16300
    with pytest.raises(PlaintextRangeError, match=f"must be below a {bits}-bit integer"):
        scheme.encrypt(scheme.plaintext_bound(), RandomSource(2))


def test_okamoto_uchiyama_bound_is_p_sized(rng):
    keys = generate_keys("okamoto-uchiyama", 48, rng=rng)
    bound = 1 << keys.params["plaintext_bits"]
    scheme = scheme_for(keys)
    assert scheme.decrypt(scheme.encrypt(bound - 1, rng)) == bound - 1
    with pytest.raises(PlaintextRangeError):
        scheme.encrypt(bound, rng)


def test_okamoto_uchiyama_plaintext_bits_is_derived_not_given():
    with pytest.raises(MathDomainError, match="plaintext_bits"):
        generate_keys("okamoto-uchiyama", 48, {"plaintext_bits": 3}, RandomSource(1))
    keys = generate_keys("okamoto-uchiyama", 48, rng=RandomSource(1))
    assert keys.params == {"plaintext_bits": 15}
    # key files still carry it, so public-only copies know the bound
    doc = json.loads(serialize_key(keys))
    del doc["params"]["plaintext_bits"]
    with pytest.raises(ParseError, match="params.plaintext_bits"):
        parse_key(json.dumps(doc))


def test_exp_elgamal_decryption_bound(rng):
    keys = generate_keys("exp-elgamal", 48, params={"dlp_bound": 1000}, rng=rng)
    scheme = scheme_for(keys)
    c = scheme.add(scheme.encrypt(600, rng), scheme.encrypt(600, rng))
    with pytest.raises(DecryptionBoundError, match="dlp_bound"):
        scheme.decrypt(c)


def test_ec_elgamal_decryption_bound(rng):
    keys = generate_keys(
        "ec-elgamal", 0, params={"curve": "toy17", "dlp_bound": 5}, rng=rng
    )
    scheme = scheme_for(keys)
    c = scheme.add(scheme.encrypt(4, rng), scheme.encrypt(4, rng))
    with pytest.raises(DecryptionBoundError):
        scheme.decrypt(c)


def test_payload_variant_mismatch():
    paillier = scheme_for(PAILLIER_TOY)
    with pytest.raises(PayloadTypeError):
        paillier.check_payload((1, 2))
    with pytest.raises(PayloadTypeError):
        scheme_for(ELGAMAL_TOY).check_payload(7)
    with pytest.raises(PayloadTypeError):
        scheme_for(GM_TOY).check_payload(7)
    with pytest.raises(PayloadTypeError):
        paillier.check_payload([1, 2])


def test_decrypt_requires_private_key(rng):
    public = PAILLIER_TOY.public_only()
    assert not public.has_private
    scheme = scheme_for(public)
    c = scheme.encrypt(7, rng)  # encryption works with the public part
    with pytest.raises(MissingPrivateKeyError):
        scheme.decrypt(c)


def test_scheme_key_mismatch():
    with pytest.raises(Exception) as excinfo:
        scheme_class("rsa")(PAILLIER_TOY)
    assert "rsa" in str(excinfo.value)


def test_capability_gate_on_raw_ops(rng):
    paillier = scheme_for(PAILLIER_TOY)
    c1 = paillier.encrypt(2, rng)
    c2 = paillier.encrypt(3, rng)
    with pytest.raises(
        CapabilityError,
        match="^Paillier is not homomorphic with respect to the multiplication$",
    ):
        paillier.mul(c1, c2)


# ------------------------------------ private-key fast paths vs slow paths

# schemes whose private-key powers run modulo the prime-power factors
CRT_SCHEMES = ("rsa", "okamoto-uchiyama", "paillier", "damgard-jurik")
seeds = st.integers(0, 2**32 - 1)
fast_path_settings = settings(max_examples=40, deadline=None)


def crt_keys(algorithm: str, seed: int, s: int) -> KeyPair:
    """Toy keys from `seed`; Damgard-Jurik with ciphertexts modulo n^(s+1)."""
    bits, params = TOY_KEYGEN[algorithm]
    if algorithm == "damgard-jurik":
        params = {"s": s}
    return generate_keys(algorithm, bits, params=params, rng=RandomSource(seed))


def awkward_inputs(scheme, k: int) -> list[int]:
    """0, multiples of p and of q, and values at or beyond the modulus."""
    p, q = scheme.keys.private["p"], scheme.keys.private["q"]
    modulus = scheme.modulus
    return [0, 1, p, p * k, q * k, p * q, modulus, modulus + k, modulus * k + 1, k]


def group_exponent(scheme) -> int:
    """Carmichael's lambda of `modulus`: x^it = 1 for every unit x."""
    p, q = scheme.keys.private["p"], scheme.keys.private["q"]
    lam = math.lcm(p - 1, q - 1)
    if scheme.algorithm == "paillier":
        return scheme.n * lam
    if scheme.algorithm == "damgard-jurik":
        return scheme.n**scheme.s * lam
    if scheme.algorithm == "okamoto-uchiyama":
        return math.lcm(p * (p - 1), q - 1)
    return lam


def damgard_jurik_log(a: int, n: int, s: int) -> int:
    """i from a = (1+n)^i mod n^(s+1): Damgard and Jurik's textbook
    extraction, with k! inverted modulo n^j (so every prime of n exceeds s)."""
    i = 0
    for j in range(1, s + 1):
        n_j = n**j
        t1 = (a % (n_j * n) - 1) // n
        t2 = i
        for k in range(2, j + 1):
            i -= 1
            t2 = t2 * i % n_j
            t1 = (t1 - t2 * n ** (k - 1) * pow(math.factorial(k), -1, n_j)) % n_j
        i = t1
    return i


def slow_decrypt(scheme, c: int) -> int:
    """Each CRT scheme's decryption formula with builtin pow modulo `modulus`;
    Paillier and Damgard-Jurik raise c to lambda = lcm(p - 1, q - 1) and scale
    by mu = log(g^lambda)^-1 mod n^s, both computed here from p, q and g;
    Okamoto-Uchiyama scales L(c^(p-1) mod p^2) by L(g^(p-1) mod p^2)^-1 mod p."""
    p, q = scheme.keys.private["p"], scheme.keys.private["q"]
    if scheme.algorithm == "rsa":
        return pow(c, scheme.keys.private["d"], scheme.n)
    if scheme.algorithm in ("paillier", "damgard-jurik"):
        n, s, modulus = scheme.n, scheme.s, scheme.modulus
        lam = math.lcm(p - 1, q - 1)
        mu = pow(damgard_jurik_log(pow(scheme.g, lam, modulus), n, s), -1, n**s)
        return damgard_jurik_log(pow(c, lam, modulus), n, s) * mu % n**s
    h_p = pow((pow(scheme.g, p - 1, p * p) - 1) // p, -1, p)
    return (pow(c, p - 1, p * p) - 1) // p * h_p % p


@fast_path_settings
@given(
    algorithm=st.sampled_from(CRT_SCHEMES),
    key_seed=seeds,
    s=st.integers(1, 4),
    enc_seed=seeds,
    data=st.data(),
)
def test_private_and_public_encryption_agree(algorithm, key_seed, s, enc_seed, data):
    private = PHE(keys=crt_keys(algorithm, key_seed, s), rng=RandomSource(enc_seed))
    public = private.public_copy()
    public.rng = RandomSource(enc_seed)
    m = data.draw(st.integers(0, private.scheme.plaintext_bound() - 1))
    c = private.encrypt(m)
    assert c.payload == public.encrypt(m).payload
    assert private.decrypt(c) == m


@fast_path_settings
@given(
    algorithm=st.sampled_from(("paillier", "damgard-jurik", "okamoto-uchiyama")),
    key_seed=seeds,
    s=st.integers(1, 3),
    at_q=st.booleans(),
    k=st.none() | st.integers(1, 2**64),
    square=st.booleans(),
)
def test_the_p_squared_check_of_a_g_of_1_mod_p_matches_the_power(
    algorithm, key_seed, s, at_q, k, square
):
    """`key_fault` decides g^(p-1) = 1 (mod p^2) without a power when g = 1
    (mod p): the verdict matches pow's for g = 1 + k p (or 1 + k p^2) at
    either prime, and for the generated g = n+1 (k None)."""
    keys = crt_keys(algorithm, key_seed, s)
    scheme = scheme_for(keys)
    n, p, q = scheme.n, scheme.p, scheme.q
    prime = q if at_q else p
    g = scheme.g if k is None else (1 + k * prime ** (2 if square else 1)) % scheme.modulus
    assume(g > 1 and math.gcd(g, n) == 1)
    public = dict(keys.public, g=g, **({"h": pow(g, n, n)} if "h" in keys.public else {}))
    expected = any(
        a * scheme.modulus_power > 1 and pow(g, r - 1, r * r) == 1
        for r, a in zip((p, q), scheme.n_exponents)
    )
    fault = type(scheme).key_fault(keys.replace(public=public))
    assert fault in (None, ("public.g", "its (p-1)-th power is 1 modulo p^2 for a private prime p"))
    assert (fault is not None) == expected
    if k is None:
        assert g == n + 1 or algorithm == "okamoto-uchiyama"


@fast_path_settings
@given(
    algorithm=st.sampled_from(CRT_SCHEMES + ("benaloh", "naccache-stern")),
    key_seed=seeds,
    s=st.integers(1, 4),
    k=st.integers(1, 2**128),
    e=st.integers(0, 2**512),
)
def test_private_pow_matches_builtin_pow(algorithm, key_seed, s, k, e):
    scheme = scheme_for(crt_keys(algorithm, key_seed, s))
    order = group_exponent(scheme)
    for x in awkward_inputs(scheme, k):
        for exponent in (e, 0, 1, scheme.modulus, order, order * k + 1):
            assert scheme._private_pow(x, exponent) == pow(x, exponent, scheme.modulus)


@fast_path_settings
@given(
    algorithm=st.sampled_from(CRT_SCHEMES),
    key_seed=seeds,
    s=st.integers(1, 4),
    k=st.integers(1, 2**128),
)
def test_decrypt_matches_the_pow_formula(algorithm, key_seed, s, k):
    """RSA and Okamoto-Uchiyama agree on every awkward input. Paillier and
    Damgard-Jurik decrypt per prime, which is defined on ciphertexts, the
    units below the modulus; `PHE.bind` refuses the other awkward inputs."""
    keys = crt_keys(algorithm, key_seed, s)
    scheme = scheme_for(keys)
    inputs = awkward_inputs(scheme, k)
    if algorithm in ("paillier", "damgard-jurik"):
        phe = PHE(keys=keys)
        units = [x for x in inputs if scheme._is_member(x)]
        for x in set(inputs) - set(units):
            with pytest.raises(PayloadTypeError):
                phe.bind(Ciphertext(algorithm, x, phe.fingerprint))
        inputs = units + [1, scheme.n - 1, scheme.modulus - 1]
    for c in inputs + [scheme.encrypt(k % scheme.plaintext_bound(), RandomSource(k))]:
        assert scheme.decrypt(c) == slow_decrypt(scheme, c)


@fast_path_settings
@given(
    algorithm=st.sampled_from(["paillier", "damgard-jurik"]),
    key_seed=seeds,
    s=st.integers(1, 4),
    r_seed=seeds,
)
def test_nonce_lift_matches_builtin_pow(algorithm, key_seed, s, r_seed):
    """r^(n^s) by the per-prime lift against builtin pow modulo n^(s+1)."""
    scheme = scheme_for(crt_keys(algorithm, key_seed, s))
    n, s = scheme.n, scheme.s
    nonces = [1, n - 1, random_coprime_below(n, RandomSource(r_seed))]
    for r in nonces:
        assert scheme._nonce_pow(r) == pow(r, n**s, n ** (s + 1))


@pytest.mark.parametrize("s", range(1, 6))
def test_nonce_power_and_decryption_with_a_prime_at_most_s(s):
    """n = 15: p = 3 <= s from s = 3 on, which no toy keygen reaches. The
    per-prime nonce power matches builtin pow on every unit r, and every
    message decrypts."""
    n = 15
    scheme = scheme_for(DJ_TOY.replace(params={"s": s}))
    for r in range(1, n):
        if math.gcd(r, n) == 1:
            assert scheme._nonce_pow(r) == pow(r, n**s, n ** (s + 1))
    for m in range(0, n**s, max(1, n**s // 300)):
        assert scheme.decrypt(scheme.encrypt(m, RandomSource(m))) == m


@fast_path_settings
@given(
    algorithm=st.sampled_from(["elgamal", "exp-elgamal", "ec-elgamal"]),
    key_seed=seeds,
    enc_seed=seeds,
    data=st.data(),
)
def test_fixed_base_encryption_matches_plain_powers(algorithm, key_seed, enc_seed, data):
    """Each ElGamal-family ciphertext equals (g^r, encode(m) * h^r) with the
    same nonce r, the powers taken by `group.exp`."""
    if algorithm == "ec-elgamal":
        params = {"curve": data.draw(st.sampled_from(["toy17", "secp160r1"]))}
        keys = generate_keys(algorithm, 0, params=params, rng=RandomSource(key_seed))
    else:
        keys = crt_keys(algorithm, key_seed, 1)
    scheme = scheme_for(keys)
    group = scheme.group
    m = data.draw(st.integers(0, min(scheme.plaintext_bound(), 2**16) - 1))
    c1, c2 = scheme.encrypt(m, RandomSource(enc_seed))
    r = RandomSource(enc_seed).randrange(*scheme._nonce_range)
    encoded = m if algorithm == "elgamal" else group.exp(scheme.g, m)
    assert c1 == group.exp(scheme.g, r)
    assert c2 == group.op(encoded, group.exp(scheme.h, r))


@pytest.mark.parametrize("algorithm", sorted(SCHEME_CLASSES))
def test_constructing_a_scheme_builds_no_fixed_base_table(algorithm, rng):
    """Tables wait for the first encryption, so a scheme rebuilt per call
    pays for none of them; a public-only copy builds no per-prime table."""
    keys = toy_keys(algorithm, rng)
    for copy in (keys, keys.public_only()):
        scheme = scheme_for(copy)
        assert "_fixed_bases" not in vars(scheme)
    assert "_primes" not in vars(scheme_for(keys.public_only()))
    scheme = scheme_for(keys)
    assert ("_primes" in vars(scheme)) == isinstance(scheme, ModulusScheme)
    scheme.encrypt(1, rng)
    assert ("_fixed_bases" in vars(scheme)) == ("elgamal" in algorithm)


def test_importing_phekit_builds_no_table():
    """No fixed-base table and no trial-division sieve at import."""
    code = (
        "import sys\n"
        "built = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name in (\n"
        "            'fixed_base_table', '_trial_division'):\n"
        "        built.append(frame.f_code.co_name)\n"
        "sys.setprofile(watch)\n"
        "import phekit, phekit.ec, phekit.cli, phekit.bench\n"
        "sys.setprofile(None)\n"
        "assert not built, built\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@fast_path_settings
@given(key_seed=st.none() | seeds, k=st.integers(0, 2**128), j=st.integers(1, 2**16))
def test_okamoto_uchiyama_h_table_matches_builtin_pow(key_seed, k, j):
    """h^k from the private key's fixed-base tables, one per factor with the
    exponent reduced by that factor's group order, against builtin pow modulo
    n, the plain power a public-only key still takes. `key_seed` None is the
    hand-checked key with p = 7."""
    keys = OU_TOY if key_seed is None else crt_keys("okamoto-uchiyama", key_seed, 1)
    scheme = scheme_for(keys)
    n, h = scheme.n, scheme.h
    p, q = keys.private["p"], keys.private["q"]
    orders = (p * (p - 1), q - 1)
    exponents = [0, 1, n - 1, n, 2 * n, k, k % n, *orders]
    exponents += [order * j + d for order in orders for d in (-1, 0, 1)]
    for e in exponents:
        assert scheme._h_pow(e) == pow(h, e, n), e


@pytest.mark.parametrize("algorithm", sorted(SCHEME_CLASSES))
def test_scheme_for_and_parse_key_build_no_table_before_the_first_encryption(
    algorithm, rng, monkeypatch
):
    """Reading a key file and building its scheme build no fixed-base table;
    the first encryption builds one per base (Okamoto-Uchiyama's h: one per
    prime-power factor with the private key, none without), and the second
    reuses them."""
    built, table = [], numtheory_module.fixed_base_table

    def counted(group, base, bits):
        built.append(bits)
        return table(group, base, bits)

    monkeypatch.setattr(numtheory_module, "fixed_base_table", counted)
    monkeypatch.setattr(ec_module, "fixed_base_table", counted)
    keys = toy_keys(algorithm, rng)
    for copy in (keys, keys.public_only()):
        scheme = scheme_for(parse_key(serialize_key(copy)))
        assert built == []
        scheme.encrypt(1, rng)
        scheme.encrypt(0, rng)
        if algorithm == "okamoto-uchiyama":
            assert len(built) == (2 if copy.has_private else 0)
        else:
            assert len(built) == (2 if "elgamal" in algorithm else 0)
        built.clear()


@fast_path_settings
@given(algorithm=st.sampled_from(["benaloh", "naccache-stern"]), key_seed=seeds, c_seed=seeds)
def test_message_prime_decryption_matches_one_power_per_prime(algorithm, key_seed, c_seed):
    """Decryption's one private power c^(phi/sigma), raised to each small
    sigma/p_i, against the slow path: c^(phi/p_i) by builtin pow for each
    message prime, its log to the base g^(phi/p_i) found by trying every
    residue. Every unit below n decrypts to the one m below sigma with each
    of those residues."""
    scheme = scheme_for(crt_keys(algorithm, key_seed, 1))
    n, g = scheme.n, scheme.g
    phi = (scheme.p - 1) * (scheme.q - 1)
    c = random_coprime_below(n, RandomSource(c_seed))
    primes = scheme._message_primes()
    residues = []
    for prime in primes:
        target, base = pow(c, phi // prime, n), pow(g, phi // prime, n)
        residues.append(next(m for m in range(prime) if pow(base, m, n) == target))
    assert scheme._parts == [(prime, pow(g, phi // prime, n)) for prime in primes]
    m = scheme.decrypt(c)
    assert 0 <= m < scheme.sigma
    assert [m % prime for prime in primes] == residues


@fast_path_settings
@given(key_seed=seeds, s=st.integers(1, 4), enc_seed=seeds, data=st.data())
def test_damgard_jurik_lambda_decryption_matches_the_d_exponent(
    key_seed, s, enc_seed, data
):
    # the textbook exponent d = 1 mod n^s, 0 mod lambda reads m out directly
    scheme = scheme_for(crt_keys("damgard-jurik", key_seed, s))
    p, q = scheme.keys.private["p"], scheme.keys.private["q"]
    lam = math.lcm(p - 1, q - 1)
    d = lam * pow(lam, -1, scheme.n**s)
    m = data.draw(st.integers(0, scheme.n**s - 1))
    c = scheme.encrypt(m, RandomSource(enc_seed))
    assert scheme.decrypt(c) == damgard_jurik_log(pow(c, d, scheme.modulus), scheme.n, s) == m


@fast_path_settings
@given(key_seed=seeds, enc_seed=seeds, k=st.integers(1, 2**128), data=st.data())
def test_damgard_jurik_s1_decrypts_paillier_ciphertexts(key_seed, enc_seed, k, data):
    keys = crt_keys("paillier", key_seed, 1)
    paillier = scheme_for(keys)
    dj = scheme_for(KeyPair("damgard-jurik", keys.security_bits, keys.public,
                            keys.private, {"s": 1}))
    m = data.draw(st.integers(0, paillier.n - 1))
    c = paillier.encrypt(m, RandomSource(enc_seed))
    assert dj.decrypt(c) == paillier.decrypt(c) == m
    for x in awkward_inputs(paillier, k):
        assert dj.decrypt(x) == paillier.decrypt(x)


@fast_path_settings
@given(key_seed=seeds, enc_seed=seeds, m=st.integers(0, 2**24), data=st.data())
def test_gm_legendre_decryption_matches_euler_criterion(key_seed, enc_seed, m, data):
    scheme = scheme_for(crt_keys("goldwasser-micali", key_seed, 1))
    p = scheme.keys.private["p"]
    c = scheme.encrypt(m, RandomSource(enc_seed))
    c += data.draw(st.lists(st.integers(1, 2**64).filter(lambda v: v % p), max_size=4))
    euler = 0
    for value in c:
        # Euler's criterion: a non-residue's (p-1)/2-th power is not 1
        euler = (euler << 1) | (pow(value, (p - 1) // 2, p) != 1)
    assert scheme.decrypt(c) == euler
    assert euler >> (len(c) - max(1, m.bit_length())) == m


def test_gm_decrypt_rejects_a_value_divisible_by_p():
    with pytest.raises(MathDomainError, match="divisible"):
        scheme_for(GM_TOY).decrypt([4, 7 * 3])


# params that put the discrete-log bound below the group order
BOUNDED_DLOG = {
    "exp-elgamal": {"dlp_bound": 4096},
    "ec-elgamal": {"curve": "secp160r1", "dlp_bound": 4096},
}


@pytest.mark.parametrize(
    "algorithm, module",
    [
        ("exp-elgamal", elgamal_module),
        # EC-ElGamal decrypts through exponential ElGamal
        ("ec-elgamal", elgamal_module),
        # Benaloh decrypts through Naccache-Stern
        ("benaloh", naccache_stern_module),
        ("naccache-stern", naccache_stern_module),
    ],
)
def test_cached_baby_steps_agree_with_a_fresh_search(algorithm, module, monkeypatch):
    """Every log the scheme solves with its kept table, solved again without."""
    rng = RandomSource(2024)
    bits, params = TOY_KEYGEN[algorithm]
    params = BOUNDED_DLOG.get(algorithm, params)
    scheme = scheme_for(generate_keys(algorithm, bits, params=params, rng=rng))
    tables = []

    def checked(group, base, target, bound, table=None):
        assert table is not None
        tables.append(table)
        fast = discrete_log_bounded(group, base, target, bound, table)
        assert fast == discrete_log_bounded(group, base, target, bound)
        return fast

    monkeypatch.setattr(module, "discrete_log_bounded", checked)
    bound = scheme.plaintext_bound()
    for m in (0, 1, bound // 2, bound - 1):
        assert scheme.decrypt(scheme.encrypt(m, rng)) == m
    assert tables
    per_decrypt = len(tables) // 4
    # the second and later decrypts reuse the first one's tables
    assert [id(t) for t in tables[per_decrypt:]] == [
        id(t) for t in tables[:per_decrypt]
    ] * 3
    if algorithm in BOUNDED_DLOG:
        over = scheme.add(scheme.encrypt(bound - 1, rng), scheme.encrypt(2, rng))
        with pytest.raises(DecryptionBoundError):
            scheme.decrypt(over)


@pytest.mark.parametrize(
    "algorithm, bits, params",
    [("exp-elgamal", 1024, None), ("ec-elgamal", 0, {"curve": "secp160r1"})],
)
def test_a_baby_step_table_at_the_default_bound_holds_keys_not_elements(
    algorithm, bits, params
):
    """A fresh table of g at dlp_bound 2^20 (1025 steps) keys each step by 60
    bits: about 92 KB in either group, where whole elements took 225 KB at
    1024 bits and 204 KB on secp160r1."""
    scheme = scheme_for(generate_keys(algorithm, bits, params=params, rng=RandomSource(1)))
    group, base = scheme.group, scheme.g
    assert scheme.dlp_bound == elgamal_module.DEFAULT_DLP_BOUND
    tracemalloc.start()
    try:
        table = baby_steps(group, base, scheme.dlp_bound)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table[1] == 1025 and table[3] == group.key
    assert size < 120 * 1024


# ------------------------------------------ homomorphic laws over random keys

# additive schemes whose decryption does not reduce modulo the plaintext bound
# (a bounded discrete log, or Okamoto-Uchiyama's bound below p): their
# results must stay below it
BOUNDED_SUMS = ("exp-elgamal", "ec-elgamal", "okamoto-uchiyama")


@pytest.mark.parametrize("algorithm", sorted(SCHEME_CLASSES))
@fast_path_settings
@given(key_seed=seeds, s=st.integers(1, 4), enc_seed=seeds, data=st.data())
def test_homomorphic_laws_over_random_keys(algorithm, key_seed, s, enc_seed, data):
    """decrypt(op(Enc a, Enc b)) is op's law on a and b modulo the plaintext
    bound; scalar and regenerate keep it where the capability row allows."""
    scheme = scheme_for(crt_keys(algorithm, key_seed, s))
    rng = RandomSource(enc_seed)
    mul, add, scalar, xor, regen = EXPECTED_MATRIX[algorithm]
    bound, options = scheme.plaintext_bound(), {}
    if xor:  # Goldwasser-Micali: bit lists of one common width
        width = data.draw(st.integers(1, 24))
        bound, options = 1 << width, {"bits": width}
    bounded = algorithm in BOUNDED_SUMS
    top = bound // 2 if bounded else bound
    a, b = data.draw(st.integers(0, top - 1)), data.draw(st.integers(0, top - 1))
    ca, cb = scheme.encrypt(a, rng, **options), scheme.encrypt(b, rng, **options)
    if mul:
        c, law = scheme.mul(ca, cb), a * b % bound
    elif add:
        c, law = scheme.add(ca, cb), (a + b) % bound
    else:
        c, law = scheme.xor(ca, cb), a ^ b
    assert scheme.decrypt(c) == law
    minted = [ca, cb, c, scheme.encrypt(0, rng, **options)]
    if scalar:
        k = data.draw(st.integers(0, (bound - 1) // max(law, 1) if bounded else 2**64))
        minted += [scheme.scalar(c, k), scheme.scalar(c, 0)]
        assert scheme.decrypt(minted[-2]) == k * law % bound
    if regen:
        minted.append(scheme.regenerate(c, rng))
        assert scheme.decrypt(minted[-1]) == law
    # the boundary check accepts everything the key pair produces
    for payload in minted:
        scheme.check_payload(payload)


# ------------------------------------- payload membership at the PHE boundary


def unbound(phe: PHE, payload) -> Ciphertext:
    """A ciphertext of `phe`'s algorithm and key pair that no PHE has bound,
    as `parse_ciphertext` returns one, carrying `payload`."""
    return phe.encrypt(1).replace(payload=payload, keys=None)


def assert_rejected(phe: PHE, payload) -> None:
    c = unbound(phe, payload)
    with pytest.raises(PayloadTypeError, match="not a ciphertext"):
        phe.decrypt(c)
    with pytest.raises(PayloadTypeError, match="not a ciphertext"):
        phe.bind(c)


@pytest.mark.parametrize(
    "algorithm",
    ["paillier", "damgard-jurik", "okamoto-uchiyama", "benaloh", "naccache-stern"],
)
def test_modulus_schemes_reject_a_non_unit_payload(algorithm):
    phe = PHE(keys=toy_keys(algorithm, RandomSource(5)))
    for payload in (0, phe.scheme.modulus, phe.keys.private["p"]):
        assert_rejected(phe, payload)
    c = unbound(phe, phe.encrypt(3).payload)
    assert phe.decrypt(c) == phe.decrypt(phe.bind(c)) == 3


def test_rsa_accepts_every_residue_below_n():
    # textbook RSA maps m = 0 to 0 and m = p to a multiple of p
    phe = PHE(keys=toy_keys("rsa", RandomSource(5)))
    p, n = phe.keys.private["p"], phe.scheme.n
    assert phe.encrypt(0).payload == 0
    assert phe.encrypt(p).payload % p == 0
    for m in (0, p):
        c = unbound(phe, phe.encrypt(m).payload)
        assert phe.decrypt(c) == phe.decrypt(phe.bind(c)) == m
    for payload in (n, n + 1, -1):
        assert_rejected(phe, payload)


def test_elgamal_rejects_c1_zero_and_values_beyond_p(rng):
    for algorithm in ("elgamal", "exp-elgamal"):
        phe = PHE(keys=toy_keys(algorithm, rng), rng=rng)
        c1, c2 = phe.encrypt(5).payload
        p = phe.scheme.p
        for payload in ((0, c2), (p, c2), (c1, p), (c1 + p, c2)):
            assert_rejected(phe, payload)
        if algorithm == "exp-elgamal":
            # c2 = g^m * h^r is a unit, so no exp-ElGamal key encrypts to 0
            assert_rejected(phe, (c1, 0))
    # classic ElGamal encrypts 0 to c2 = 0
    phe = PHE(keys=toy_keys("elgamal", rng), rng=rng)
    zero = unbound(phe, phe.encrypt(0).payload)
    assert zero.payload[1] == 0
    assert phe.decrypt(zero) == 0


def test_gm_rejects_a_bit_value_with_jacobi_symbol_minus_one(rng):
    phe = PHE(keys=toy_keys("goldwasser-micali", rng), rng=rng)
    n = phe.scheme.n
    bits = phe.encrypt(0b101).payload
    odd = next(v for v in range(2, n) if jacobi(v, n) == -1)
    for value in (odd, 0, n, bits[0] + n):
        assert_rejected(phe, bits[:1] + [value] + bits[2:])


def test_ec_c1_off_the_curve_never_meets_the_private_scalar(monkeypatch):
    """An invalid-curve c1 is refused before decryption multiplies it by x."""
    phe = PHE("ec-elgamal", 0, params={"curve": "secp160r1"}, rng=RandomSource(7))
    x = phe.keys.private["x"]
    c1, c2 = phe.encrypt(5).payload
    scalars = []

    def recording(k, point, curve):
        scalars.append(k)
        return scalar_mul(k, point, curve)

    monkeypatch.setattr(ec_module, "scalar_mul", recording)
    p = phe.scheme.group.p
    for bad in (CurvePoint(c1.x, c1.y + 1), CurvePoint(c1.x, c1.y + p)):
        assert_rejected(phe, (bad, c2))
        assert_rejected(phe, (c1, bad))
    assert x not in scalars
    # control: the recording sees the private scalar of a valid decrypt
    assert phe.decrypt(unbound(phe, (c1, c2))) == 5
    assert x in scalars
    # the identity is a ciphertext point: c2 of m = 0 under scalar 0
    assert phe.decrypt(unbound(phe, (c1, scalar_mul(x, c1, phe.scheme.group)))) == 0
    assert phe.decrypt(unbound(phe, (IDENTITY, IDENTITY))) == 0


def test_ec_elgamal_accepts_a_c1_identity_that_its_key_pair_produces():
    """c1 = identity means nonce 0, the curve form of exp-ElGamal's c1 = 1
    and not of its refused c1 = 0: a sum whose nonces add up to the group
    order makes (identity, m*G), about one toy17 sum in 19, and scalar 0
    makes (identity, identity). Both come back from a file and decrypt."""
    phe = PHE("ec-elgamal", 0, params={"curve": "toy17"}, rng=RandomSource(3))
    sums = (phe.encrypt(1) + phe.encrypt(2) for _ in range(400))
    total = next(c for c in sums if c.payload[0] == IDENTITY)
    assert total.payload[1] != IDENTITY
    zero = phe.scalar(0, phe.encrypt(5))
    assert zero.payload == (IDENTITY, IDENTITY)
    for c, m in ((total, 3), (zero, 0)):
        assert phe.decrypt(phe.bind(unbound(phe, c.payload))) == m
