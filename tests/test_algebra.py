import json
from fractions import Fraction

import pytest

from conftest import DISPLAY, EXPECTED_MATRIX, expected_denial
from phekit import (
    PHE,
    Ciphertext,
    InexactResultError,
    MathDomainError,
    OperandMismatchError,
    ParseError,
    RandomSource,
    parse_ciphertext,
    serialize_ciphertext,
    to_rational,
)
from phekit.capabilities import ALGORITHMS, DISPLAY_NAMES, capabilities, ensure_supported
from phekit.errors import CapabilityError

OPERATIONS = ("mul", "add", "scalar", "xor", "regen")


@pytest.fixture(scope="module")
def paillier() -> PHE:
    return PHE("paillier", 64, rng=RandomSource(11))


@pytest.fixture(scope="module")
def rsa() -> PHE:
    return PHE("rsa", 64, rng=RandomSource(12))


@pytest.fixture(scope="module")
def gm() -> PHE:
    return PHE("goldwasser-micali", 48, rng=RandomSource(13))


# ----------------------------------------------------------- rational scalars


def test_to_rational_accepts_common_spellings():
    assert to_rational("1.05") == Fraction(21, 20)
    assert to_rational(1.05) == Fraction(21, 20)
    assert to_rational(3) == Fraction(3)
    assert to_rational("2/7") == Fraction(2, 7)
    assert to_rational(Fraction(5, 4)) == Fraction(5, 4)
    assert to_rational(0.1) == Fraction(1, 10)  # decimal spelling, not the float


@pytest.mark.parametrize("bad", [True, -1, "-0.5", "abc", "1/0", None, [1],
                                 float("nan"), float("inf"), float("-inf")])
def test_to_rational_rejects(bad):
    with pytest.raises(MathDomainError):
        to_rational(bad)


def test_to_rational_bounds_the_exponent_by_the_digit_limit(int_digit_limit):
    int_digit_limit(640)
    for bad in ("1e700", "1e-700", "1E640", "1.5e-639", "1e" + "9" * 700):
        with pytest.raises(MathDomainError, match="not a valid scalar"):
            to_rational(bad)
    # 10**639 and 10**-639 have 640 digits, which the limit allows
    assert to_rational("1e639") == 10**639
    assert to_rational("1e-639") == Fraction(1, 10**639)


# ------------------------------------------------------- capability matrix


def test_matrix_table_is_complete():
    assert set(EXPECTED_MATRIX) == set(ALGORITHMS)
    assert len(ALGORITHMS) == 10


def test_algorithms_and_display_names_keep_their_order():
    assert ALGORITHMS == tuple(EXPECTED_MATRIX)
    assert type(DISPLAY_NAMES) is dict
    assert list(DISPLAY_NAMES.items()) == list(DISPLAY.items())
    with pytest.raises(CapabilityError, match="^unknown algorithm: vigenere$"):
        capabilities("vigenere")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_capability_flags(algorithm):
    cap = capabilities(algorithm)
    mul, add, scalar, xor, regen = EXPECTED_MATRIX[algorithm]
    assert cap.hom_mul is mul
    assert cap.hom_add is add
    assert cap.scalar_mul is scalar
    assert cap.hom_xor is xor
    assert cap.regeneration is regen


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("operation", OPERATIONS)
def test_capability_gate_messages(algorithm, operation):
    allowed = dict(zip(OPERATIONS, EXPECTED_MATRIX[algorithm]))[operation]
    if allowed:
        ensure_supported(algorithm, operation)
        return
    with pytest.raises(ValueError) as excinfo:  # CapabilityError is a ValueError
        ensure_supported(algorithm, operation)
    assert isinstance(excinfo.value, CapabilityError)
    assert str(excinfo.value) == expected_denial(algorithm, operation)


def test_unknown_operation_rejected():
    with pytest.raises(CapabilityError):
        ensure_supported("paillier", "divide")
    with pytest.raises(CapabilityError):
        capabilities("rot13")


# ----------------------------------------------------------- operator sugar


def test_add_and_scalar_operators(paillier):
    c1 = paillier.encrypt(10000)
    c2 = paillier.encrypt(500)
    assert paillier.decrypt(c1 + c2) == 10500
    assert paillier.decrypt(3 * c1) == 30000
    assert paillier.decrypt(c1 * 3) == 30000


def test_rational_scalar_scales_the_ciphertext(paillier):
    c = paillier.encrypt(10000)
    scaled = "1.05" * c
    assert scaled.scale_denominator == 20
    assert paillier.decrypt(scaled) == 10500


def test_inexact_scale_needs_rational_mode(paillier):
    c = paillier.encrypt(10)
    scaled = paillier.scalar(Fraction(1, 7), c)
    assert scaled.scale_denominator == 7
    with pytest.raises(InexactResultError):
        paillier.decrypt(scaled)
    assert paillier.decrypt(scaled, rational=True) == Fraction(10, 7)


def test_mixed_scales_do_not_combine(paillier):
    c1 = paillier.encrypt(4)
    c2 = paillier.encrypt(5)
    with pytest.raises(OperandMismatchError, match="scales"):
        ("1.05" * c1) + c2
    both = ("1.5" * c1) + ("1.5" * c2)
    assert paillier.decrypt(both, rational=True) == Fraction(27, 2)


def test_mul_operator(rsa):
    c = rsa.encrypt(6) * rsa.encrypt(7)
    assert rsa.decrypt(c) == 42


def test_xor_operator(gm):
    c = gm.encrypt(0b1010) ^ gm.encrypt(0b0110, bits=4)
    assert gm.decrypt(c) == 0b1100


def test_operators_reject_foreign_types(paillier):
    c = paillier.encrypt(1)
    with pytest.raises(TypeError):
        c + 5
    with pytest.raises(TypeError):
        c ^ 3


def test_capability_errors_surface_through_operators(paillier, rsa):
    with pytest.raises(ValueError) as excinfo:
        paillier.encrypt(2) * paillier.encrypt(3)
    assert str(excinfo.value) == expected_denial("paillier", "mul")
    with pytest.raises(ValueError) as excinfo:
        rsa.encrypt(2) + rsa.encrypt(3)
    assert str(excinfo.value) == expected_denial("rsa", "add")
    with pytest.raises(ValueError) as excinfo:
        2 * rsa.encrypt(2)
    assert str(excinfo.value) == expected_denial("rsa", "scalar")
    with pytest.raises(ValueError) as excinfo:
        rsa.regenerate(rsa.encrypt(2))
    assert str(excinfo.value) == expected_denial("rsa", "regen")


# ------------------------------------------------------- operand mismatches


def test_cross_algorithm_operands_rejected(paillier, rsa):
    with pytest.raises(OperandMismatchError, match="cannot combine"):
        paillier.encrypt(1) + rsa.encrypt(1)
    foreign = rsa.encrypt(1)
    for use in (paillier.decrypt, lambda c: paillier.scalar(2, c), paillier.regenerate):
        with pytest.raises(OperandMismatchError,
                           match="keys are for paillier, ciphertext is rsa"):
            use(foreign)


def test_foreign_key_pair_rejected(paillier):
    other = PHE("paillier", 64, rng=RandomSource(99))
    with pytest.raises(OperandMismatchError, match="different key pair"):
        paillier.add(other.encrypt(1), other.encrypt(2))
    with pytest.raises(OperandMismatchError, match="different key pair"):
        paillier.decrypt(other.encrypt(1))
    with pytest.raises(OperandMismatchError, match="different key pair"):
        paillier.scalar(2, other.encrypt(1))
    with pytest.raises(OperandMismatchError, match="different key pair"):
        paillier.regenerate(other.encrypt(1))


def test_unbound_ciphertext_cannot_use_operators(paillier):
    doc = serialize_ciphertext(paillier.encrypt(3))
    loose = parse_ciphertext(doc)  # no keys supplied
    with pytest.raises(OperandMismatchError, match="not bound"):
        loose + loose
    bound = paillier.bind(loose)
    assert paillier.decrypt(bound + bound) == 6


def test_regeneration_changes_payload_not_value(paillier):
    c = paillier.encrypt(7)
    c2 = paillier.regenerate(c)
    assert c2.payload != c.payload
    assert c2.key_fingerprint == c.key_fingerprint
    assert paillier.decrypt(c2) == 7


def test_public_copy_can_compute_but_not_decrypt(paillier):
    public = paillier.public_copy()
    assert not public.keys.has_private
    assert public.fingerprint == paillier.fingerprint
    c = public.encrypt(21) + public.encrypt(21)
    assert paillier.decrypt(c) == 42
    with pytest.raises(Exception, match="private"):
        public.decrypt(c)


def test_phe_constructor_needs_keys_or_algorithm():
    with pytest.raises(MathDomainError):
        PHE()


def test_bits_argument_is_gm_only(paillier, gm):
    with pytest.raises(MathDomainError, match="goldwasser-micali"):
        paillier.encrypt(3, bits=8)
    assert gm.decrypt(gm.encrypt(3, bits=8)) == 3


# --------------------------------------------------- ciphertext documents


def test_ciphertext_roundtrip_compares_equal(paillier):
    c = "1.05" * paillier.encrypt(10000)
    doc = serialize_ciphertext(c)
    back = paillier.bind(parse_ciphertext(doc))
    assert back == c  # keys are excluded from equality
    assert serialize_ciphertext(back) == doc
    assert paillier.decrypt(back) == 10500


def test_ciphertext_document_shape(paillier):
    doc = json.loads(serialize_ciphertext(paillier.encrypt(5)))
    assert doc["format_version"] == 1
    assert doc["algorithm"] == "paillier"
    assert doc["payload"]["kind"] == "single"
    assert doc["scale_denominator"] == "1"
    assert isinstance(doc["payload"]["data"], str)


def test_tampered_fingerprint_rejected_at_first_use(paillier):
    doc = json.loads(serialize_ciphertext(paillier.encrypt(5)))
    doc["key_fingerprint"] = "0" * 64
    tampered = paillier.bind(parse_ciphertext(json.dumps(doc)))
    # parsing succeeds; any use against the real keys must fail
    with pytest.raises(OperandMismatchError, match="different key pair"):
        tampered + tampered
    with pytest.raises(OperandMismatchError, match="different key pair"):
        paillier.decrypt(tampered)


def test_parse_rejects_wrong_payload_kind(paillier):
    doc = json.loads(serialize_ciphertext(paillier.encrypt(5)))
    doc["payload"] = {"kind": "pair", "data": ["1", "2"]}
    with pytest.raises(ParseError, match="payload.kind"):
        parse_ciphertext(json.dumps(doc))


def test_parse_rejects_bad_documents(paillier):
    good = json.loads(serialize_ciphertext(paillier.encrypt(5)))

    def corrupt(**changes):
        doc = dict(good, **changes)
        with pytest.raises(ParseError):
            parse_ciphertext(json.dumps(doc))

    corrupt(format_version=2)
    corrupt(algorithm="rot13")
    corrupt(key_fingerprint="")
    corrupt(scale_denominator="0")
    corrupt(scale_denominator="-3")
    corrupt(payload={"kind": "single", "data": "12x"})
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_ciphertext("{nope")
    with pytest.raises(ParseError):
        parse_ciphertext("[1,2]")


def test_scale_survives_serialization(paillier):
    c = "0.25" * paillier.encrypt(8)
    back = paillier.bind(parse_ciphertext(serialize_ciphertext(c)))
    assert back.scale_denominator == 4
    assert paillier.decrypt(back) == 2


def test_ciphertext_is_immutable(paillier):
    c = paillier.encrypt(1)
    with pytest.raises(Exception):
        c.payload = 0
    assert isinstance(c, Ciphertext)
