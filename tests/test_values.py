"""The contracts of the nine value classes: immutable fields, equality and
hashing over the declared fields, a repr without key material, and copies
through `replace`."""

import copy
import pickle

import pytest

from phekit import (
    PHE,
    Ciphertext,
    RandomSource,
    generate_keys,
    parse_ciphertext,
    serialize_ciphertext,
)
from phekit.bench import BenchPlan, BenchRecord
from phekit.capabilities import ALGORITHMS, capabilities
from phekit.ec import IDENTITY, CurvePoint, JacobianCurve, get_curve
from phekit.errors import MathDomainError, PayloadTypeError
from phekit.numtheory import UnitGroup
from phekit.schemes import KeyPair
from phekit.schemes.base import variant_of


def _paillier() -> PHE:
    return PHE("paillier", 64, rng=RandomSource(21))


# one builder per value class, each called afresh for every test
VALUES = {
    "Capability": lambda: capabilities("paillier"),
    "CurvePoint": lambda: get_curve("toy17").g,
    "CurveParams": lambda: get_curve("toy17"),
    "JacobianCurve": lambda: JacobianCurve(get_curve("toy17")),
    "UnitGroup": lambda: UnitGroup(23),
    "KeyPair": lambda: KeyPair("rsa", 12, {"n": 3233, "e": 17}, {"p": 61, "q": 53, "d": 413}),
    "Ciphertext": lambda: _paillier().encrypt(5),
    "BenchPlan": lambda: BenchPlan(),
    "BenchRecord": lambda: BenchRecord("rsa", 80, 1024, "keygen", 1, 0.5),
}


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    assert value.__slots__
    for field in value.__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.undeclared = 1


@pytest.mark.parametrize("name", VALUES)
def test_equal_builds_compare_equal(name):
    assert VALUES[name]() == VALUES[name]()


@pytest.mark.parametrize("name", VALUES)
def test_copies_and_pickles_are_equal_values(name):
    value = VALUES[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert all(getattr(twin, field) == getattr(value, field) for field in value.__slots__)


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"KeyPair"}))
def test_equal_builds_hash_equal(name):
    assert hash(VALUES[name]()) == hash(VALUES[name]())


def test_a_key_pair_is_unhashable():
    # its fields are dicts
    with pytest.raises(TypeError):
        hash(VALUES["KeyPair"]())


def test_ciphertexts_with_different_keys_compare_and_hash_equal():
    phe = _paillier()
    c = phe.encrypt(5)
    other = c.replace(keys=_paillier().keys)
    unbound = c.replace(keys=None)
    assert other.keys is not c.keys and unbound.keys is None
    assert c == other == unbound
    assert hash(c) == hash(other) == hash(unbound)
    assert len({c, other, unbound}) == 1
    assert c != c.replace(scale_denominator=2)
    assert c != c.replace(payload=c.payload + 1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_ciphertext_repr_prints_no_key_material(algorithm):
    keys = generate_keys(algorithm, 160 if algorithm == "ec-elgamal" else 128,
                         rng=RandomSource(5))
    c = PHE(keys=keys, rng=RandomSource(6)).encrypt(1)
    text = repr(c)
    assert text == repr(c.replace(keys=None))
    assert "keys" not in text and "private" not in text
    for name, secret in keys.private.items():
        digits = str(secret)
        # long enough that a match could not be chance
        assert len(digits) >= 12, name
        assert digits not in text, name


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_ciphertext_its_unbound_copy_and_its_parsed_copy_hash_equal(algorithm):
    """A Goldwasser-Micali payload is a list, which does not hash: the
    ciphertext hashes it as a tuple, so every algorithm's ciphertexts go in
    sets and dict keys."""
    keys = generate_keys(algorithm, 160 if algorithm == "ec-elgamal" else 128,
                         rng=RandomSource(5))
    c = PHE(keys=keys, rng=RandomSource(6)).encrypt(1)
    unbound, parsed = c.replace(keys=None), parse_ciphertext(serialize_ciphertext(c))
    assert hash(c) == hash(unbound) == hash(parsed)
    assert len({c, unbound, parsed}) == 1


def _reference_repr(value) -> str:
    """A value's repr as `Frozen` wrote it with `repr` alone, which the
    int/str digit limit stops: the text to expect, with the limit off."""
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._compared)
    return f"{type(value).__name__}({fields})"


def _wide_key_pair() -> KeyPair:
    # n has 2200 bits, 662 digits; a repr checks no key rule, so the factors
    # need not be prime
    p, q = (1 << 1099) + 15, (1 << 1100) + 21
    return KeyPair("paillier", 2200, {"n": p * q, "g": p * q + 1}, {"p": p, "q": q})


def _wide_ciphertext() -> Ciphertext:
    # a 1024-bit key at s = 13: payloads past the default limit of 4300 digits
    keys = generate_keys("damgard-jurik", 1024, params={"s": 13}, rng=RandomSource(5))
    c = PHE(keys=keys, rng=RandomSource(6)).encrypt(1)
    assert c.payload > 10**4300
    return c


WIDE_VALUES = {
    "KeyPair": _wide_key_pair,
    "UnitGroup": lambda: UnitGroup(10**700 + 1),
    "Ciphertext": _wide_ciphertext,
    # no wide integer, but a 1-tuple field, written "(80,)"
    "BenchPlan": BenchPlan,
}


@pytest.mark.parametrize("name", WIDE_VALUES)
def test_a_repr_is_the_same_under_any_digit_limit(name, int_digit_limit):
    """Every integer of a value's repr is written in full, also inside a
    tuple, list or dict field, under any int/str digit limit, with the text
    `repr` alone gives where the limit allows it."""
    value = WIDE_VALUES[name]()
    texts = set()
    for limit in (0, 640, 4300):
        int_digit_limit(limit)
        texts.add(repr(value))
    (text,) = texts
    int_digit_limit(0)
    assert text == _reference_repr(value)


def test_a_curve_point_is_not_a_pair_payload():
    point = get_curve("toy17").g
    assert not isinstance(point, tuple)
    assert not isinstance(IDENTITY, tuple)
    with pytest.raises(PayloadTypeError):
        variant_of(point)
    assert variant_of((point, point)) == "point_pair"
    assert variant_of((point.x, point.y)) == "pair"


def test_an_unrecognized_payload_is_named_by_its_type_and_length(int_digit_limit):
    """Not by its repr, which could hold an integer past the int/str digit
    limit or a string of any length."""
    int_digit_limit(640)
    for payload, named in (((10**700, 1, 2), "a tuple of length 3"),
                           (("x" * 10**6, 1), "a tuple of length 2"),
                           ("x" * 10**6, "a str of length 1000000"), (1.5, "a float")):
        with pytest.raises(PayloadTypeError) as excinfo:
            variant_of(payload)
        assert str(excinfo.value) == f"unrecognized ciphertext payload: {named}"


def test_curve_points_key_dicts_by_their_coordinates():
    table = {CurvePoint(5, 1): "g", IDENTITY: "O"}
    assert table[CurvePoint(5, 1)] == "g"
    assert table[CurvePoint(None, None)] == "O"
    assert repr(CurvePoint(5, 1)) == "CurvePoint(5, 1)"
    assert repr(IDENTITY) == "CurvePoint(identity)"


def test_key_pairs_built_without_params_share_no_mapping():
    first = KeyPair("paillier", 4, {"n": 15, "g": 16})
    second = KeyPair("paillier", 4, {"n": 15, "g": 16})
    assert first.params == {} and second.params == {}
    assert first.params is not second.params


def test_replace_copies_with_the_named_fields_changed():
    keys = VALUES["KeyPair"]()
    public = keys.public_only()
    assert public.private is None and not public.has_private
    assert public.public is keys.public and public.params is keys.params
    assert keys.private is not None  # the original is untouched
    changed = keys.replace(security_bits=13, params={"x": 1})
    assert (changed.security_bits, changed.params) == (13, {"x": 1})
    assert changed.public is keys.public and changed.private is keys.private
    with pytest.raises(TypeError):
        keys.replace(modulus=1)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(MathDomainError, match="repetitions"):
        BenchPlan().replace(repetitions=0)
