import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DISPLAY, EXPECTED_MATRIX, TOY_KEYGEN, expected_denial
from phekit import (
    PHE,
    Ciphertext,
    InexactResultError,
    MathDomainError,
    OperandMismatchError,
    ParseError,
    PayloadTypeError,
    RandomSource,
    parse_ciphertext,
    serialize_ciphertext,
    to_rational,
)
from phekit.capabilities import ALGORITHMS, DISPLAY_NAMES, capabilities, ensure_supported
from phekit.errors import CapabilityError, NotInvertibleError
from phekit.frozen import to_decimal
from phekit.schemes import KeyPair
from phekit.schemes.base import MAX_BITS
from phekit.serialization import MAX_DIGITS

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


def test_to_rational_bounds_each_part_by_a_document_integer(int_digit_limit):
    """A part's digits with its exponent are at most MAX_DIGITS, and its value
    at most MAX_BITS bits, under every int/str digit limit: the limit decides
    no scalar. 10**6935 has 23039 bits; 9 * 10**6935 has 23042."""
    for limit in (640, 4300, 0):
        int_digit_limit(limit)
        assert to_rational("1e700") == 10**700
        assert to_rational("1e-700") == Fraction(1, 10**700)
        assert to_rational("1e6935") == 10**6935
        assert to_rational("1e-6935") == Fraction(1, 10**6935)
        for bad in ("1e6936", "1e-6936", "0e6936", "1E6936", "1.5e-6935"):
            with pytest.raises(MathDomainError, match=rf"not a valid scalar: .* past {MAX_DIGITS}"):
                to_rational(bad)
        for bad in ("1e" + "9" * 700, "1e" + "9" * 5000, "1e10000000000000000000"):
            with pytest.raises(MathDomainError, match="not a valid scalar"):
                to_rational(bad)
        with pytest.raises(MathDomainError, match=f"more than {MAX_BITS} bits"):
            to_rational("9e6935")


def test_to_rational_bounds_every_scalar_by_max_bits_when_the_limit_is_off(int_digit_limit):
    """With the limit at 0 a short spelling still cannot build a part past
    MAX_BITS bits, and an int or a Fraction is held to the same bound."""
    int_digit_limit(0)
    with pytest.raises(MathDomainError, match="not a valid scalar"):
        to_rational("1e10000000")
    assert to_rational(1 << MAX_BITS - 1) == 1 << MAX_BITS - 1
    assert to_rational(Fraction(3, 1 << MAX_BITS - 1)).denominator == 1 << MAX_BITS - 1
    for bad in (1 << MAX_BITS, Fraction(1, 1 << MAX_BITS), Fraction((1 << MAX_BITS) + 1, 3),
                "1/" + str(1 << MAX_BITS)):
        with pytest.raises(MathDomainError, match=f"^scalar has a numerator or denominator "
                                                  f"of more than {MAX_BITS} bits$"):
            to_rational(bad)


@pytest.mark.parametrize("text", [
    "1e2/3", "1.5/2", "1/-2", "1/+2", "10e0/3", "1./3", "1/2.", "1/2/3", "1 / 2e0", "1__0",
    "_1", "1_", "1_.5", "1e_5", "1/_2", "Infinity", "-inf/2", "1/NaN", "\u00b2", "1.d",
    "1_000/3", " 1 / 2 ", "+1/2", "\u20031/2\n", "1e1_0", "1.5_5", "1.e5", ".5", "+.5e-3",
    "-0", "\u0661/\u0662", "1/0", "0/00"])
def test_to_rational_takes_exactly_the_spellings_fraction_takes(text):
    """`decimal` reads more than `Fraction` does (any underscores, a sign or
    an exponent on either side of a slash, infinities); a scalar is a
    spelling Python 3.10's `Fraction` takes, with its value, on every
    interpreter."""
    try:
        expected = fraction_310(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(MathDomainError, match="not a valid scalar"):
            to_rational(text)
        return
    if expected < 0:
        with pytest.raises(MathDomainError, match="non-negative"):
            to_rational(text)
    else:
        assert to_rational(text) == expected


def fraction_310(text: str) -> Fraction:
    """Fraction's value, on a spelling with no underscore and no whitespace
    at the slash: Python 3.10's grammar, which Python 3.11 widens by
    underscores and 3.12 by whitespace at the slash."""
    if "_" in text or re.search(r"\s/|/\s", text):
        raise ValueError(f"not a Python 3.10 Fraction spelling: {text!r}")
    return Fraction(text)


def spelled_digits(part: str) -> int:
    """A decimal part's coefficient digits, without leading zeros, plus its
    exponent's size: the digits of its unreduced numerator or denominator.
    Read under limit 0."""
    match = re.fullmatch(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*",
                         part.replace("_", ""))
    whole, fraction, exponent = match[1], match[2] or "", int(match[3] or 0)
    return len(str(int(whole + fraction or "0"))) + abs(exponent - len(fraction))


@contextmanager
def digit_limit(limit: int):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def outcome(k) -> tuple:
    try:
        return ("value", to_rational(k))
    except MathDomainError as exc:
        return ("refused", str(exc))


# a digit string of up to a few past MAX_DIGITS digits, mostly zeros
long_digits = st.builds(lambda head, zeros, tail: head + "0" * zeros + tail,
                        st.sampled_from(["1", "9", "12", "0"]),
                        st.integers(0, MAX_DIGITS + 3) | st.integers(0, 40),
                        st.text("0123456789", max_size=3))
short_digits = st.text("0123456789", min_size=1, max_size=4)
scalar_texts = (
    st.text("0123456789_./eE+- \u0661\u2003", max_size=10)
    | long_digits
    | st.builds("{}{}/{}{}".format, long_digits | short_digits, st.sampled_from(["", " "]),
                st.sampled_from(["", " "]), long_digits | short_digits)
    | st.builds("{}e{}".format, st.sampled_from(["1", "1.5", "0.25", "9", "12.", ".5", "0", "7_0"]),
                st.integers(-MAX_DIGITS - 3, MAX_DIGITS + 3)
                | st.integers(-MAX_DIGITS - 3, -MAX_DIGITS + 3)
                | st.integers(MAX_DIGITS - 3, MAX_DIGITS + 3))
)
# a part of MAX_BITS bits, give or take two, or a small one
near_max_bits = st.integers(MAX_BITS - 2, MAX_BITS + 2).flatmap(
    lambda bits: st.integers(1 << bits - 1, (1 << bits) - 1)) | st.integers(0, 1000)


@settings(max_examples=300, deadline=None)
@given(k=scalar_texts | st.floats() | st.builds(Fraction, near_max_bits,
                                                 near_max_bits.filter(bool)))
def test_a_scalar_reads_the_same_under_every_digit_limit(k):
    """The same value or the same refusal under limits 640, 4300 and 0; and
    where the spelling is within the bound (each part's digits with its
    exponent at most MAX_DIGITS, and its value's numerator and denominator
    at most MAX_BITS bits, not negative), the value is Fraction's under
    limit 0, and a refusal only where Python 3.10's Fraction refuses or the
    bound does: the accepted spellings neither widen nor narrow."""
    outcomes = []
    for limit in (640, 4300, 0):
        with digit_limit(limit):
            outcomes.append(outcome(k))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    with digit_limit(0):
        text = str(k)
        try:
            expected = fraction_310(text) if isinstance(k, (str, float)) else k
        except (ValueError, ZeroDivisionError):
            assert outcomes[0][0] == "refused"
            return
        within = (expected >= 0 and max(expected.numerator.bit_length(),
                                        expected.denominator.bit_length()) <= MAX_BITS
                  and (not isinstance(k, (str, float))
                       or max(map(spelled_digits, text.split("/"))) <= MAX_DIGITS))
    assert outcomes[0] == ("value", expected) if within else outcomes[0][0] == "refused"


def test_a_scale_past_max_bits_is_refused_before_the_power(paillier, monkeypatch):
    """Two scalars of 1/2^20000 would leave a 40,001-bit scale, which no
    document holds: the second is refused, naming the scale by its bits,
    before the scheme's power, and the first still serializes."""
    c = paillier.scalar(Fraction(1, 1 << 20000), paillier.encrypt(5))
    assert parse_ciphertext(serialize_ciphertext(c)) == c
    monkeypatch.setattr(type(paillier.scheme), "scalar", None)  # any call would fail
    with pytest.raises(MathDomainError, match=f"^the scale would be a 40001-bit integer, "
                                              f"past {MAX_BITS} bits$"):
        paillier.scalar(Fraction(1, 1 << 20000), c)
    with pytest.raises(MathDomainError, match="scale would be"):
        Fraction(1, 1 << 20000) * c


scalars_of_any_width = st.builds(
    Fraction, st.integers(0, 1 << 64) | st.integers(0, 1 << MAX_BITS),
    st.integers(1, 1 << 64) | st.integers(1, 1 << 8000) | st.integers(1, 1 << MAX_BITS))


@settings(max_examples=40, deadline=None)
@given(scalars=st.lists(scalars_of_any_width, min_size=1, max_size=6),
       as_text=st.lists(st.booleans(), min_size=6, max_size=6))
def test_every_ciphertext_a_phe_returns_serializes(paillier, scalars, as_text):
    """A chain of scalars, each given as a Fraction or as its a/b text: every
    ciphertext a PHE method returns (scalar, add, regenerate) serializes and
    parses back equal. A scalar is refused, leaving the chain where it was,
    in the documented order: a part past MAX_BITS bits (the strategy draws
    up to 2^MAX_BITS inclusive) by `to_rational`, then a scale past
    MAX_BITS bits by the scalar itself."""
    c = paillier.encrypt(3)
    for value, text in zip(scalars, as_text):
        k = f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}" if text else value
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_BITS:
            with pytest.raises(MathDomainError, match=f"more than {MAX_BITS} bits"):
                paillier.scalar(k, c)
            continue
        if (c.scale_denominator * value.denominator).bit_length() > MAX_BITS:
            with pytest.raises(MathDomainError, match="scale would be"):
                paillier.scalar(k, c)
            continue
        c = paillier.scalar(k, c)
        for result in (c, paillier.add(c, c), paillier.regenerate(c)):
            assert parse_ciphertext(serialize_ciphertext(result)) == result
            assert result.scale_denominator.bit_length() <= MAX_BITS


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
def test_phe_capabilities_are_its_algorithms_row(algorithm):
    """`PHE.capabilities` reads the table row of the key pair's algorithm,
    with or without the private key."""
    bits, params = TOY_KEYGEN[algorithm]
    phe = PHE(algorithm, bits, params=params, rng=RandomSource(5))
    assert phe.capabilities() == capabilities(algorithm)
    assert phe.public_copy().capabilities() == capabilities(algorithm)


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


def test_an_inexact_value_past_the_digit_limit_is_refused_by_its_bits(int_digit_limit):
    """7 * 10^660 has 661 digits, past a limit of 640, and a 256-bit
    Damgard-Jurik key at s = 9 holds it: the integer-mode refusal names it by
    its bit length, and rational mode returns it."""
    int_digit_limit(640)
    phe = PHE("damgard-jurik", 256, params={"s": 9}, rng=RandomSource(3))
    c = phe.scalar("1/3", phe.scalar("1e60", phe.scalar("1e600", phe.encrypt(7))))
    bits = (7 * 10**660).bit_length()
    with pytest.raises(InexactResultError, match=f"scaled value a {bits}-bit integer/3 is not"):
        phe.decrypt(c)
    assert phe.decrypt(c, rational=True) == Fraction(7 * 10**660, 3)


def test_an_inverse_past_the_digit_limit_fails_as_not_invertible(int_digit_limit):
    """An ElGamal key whose p = 2^2200 + 1 has the factor 2^440 + 1, and a
    c1 that shares it: decrypt's inverse names its wide operands by their
    bit length, under a limit of 640 as with none."""
    p, factor = 2**2200 + 1, 2**440 + 1
    keys = KeyPair("elgamal", 2200, {"p": p, "g": 3, "h": pow(3, 5, p)}, {"x": 5})
    phe = PHE(keys=keys)
    c = Ciphertext("elgamal", (factor, 1), phe.fingerprint)
    messages = set()
    for limit in (0, 640):
        int_digit_limit(limit)
        with pytest.raises(NotInvertibleError, match="not invertible mod a 2201-bit integer") as exc:
            phe.decrypt(c)
        messages.add(str(exc.value))
    assert len(messages) == 1


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


def test_a_replaced_payload_is_checked_where_it_is_next_used(paillier):
    """A copy with a new payload is unbound unless keys are passed, so a
    payload from outside is checked against the key pair, as a parsed one
    is; PHE's own results stay bound."""
    c = paillier.encrypt(1)
    for payload in (0, paillier.keys.public["n"], -5):
        forged = c.replace(payload=payload)
        assert forged.keys is None
        with pytest.raises(PayloadTypeError, match="not a ciphertext under this key pair"):
            paillier.decrypt(forged)
    assert c.replace(scale_denominator=2).keys is paillier.keys
    assert paillier.decrypt(c.replace(payload=paillier.encrypt(7).payload)) == 7
    for result in (c + c, 3 * c, paillier.regenerate(c)):
        assert result.keys is paillier.keys


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


@pytest.mark.parametrize("fingerprint", [
    "", "a" * 63, "a" * 65, "A" * 64, "0" * 63 + "g", "a" * 2**20, 7, None,
], ids=["empty", "63-digits", "65-digits", "upper-case", "non-hex", "1-MB", "number", "null"])
def test_a_fingerprint_not_a_sha256_hexdigest_is_refused_where_it_is_read(paillier, fingerprint):
    doc = json.loads(serialize_ciphertext(paillier.encrypt(5)))
    doc["key_fingerprint"] = fingerprint
    with pytest.raises(ParseError, match=r"^field 'key_fingerprint': expected 64 lowercase hex"):
        parse_ciphertext(json.dumps(doc))


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


def test_the_readme_library_example_runs():
    """README's "Library use" block as written, at its 1024-bit key size."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
