import ast
import hashlib
import json
import math
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phekit
import phekit.schemes.naccache_stern as naccache_stern
from conftest import forty_round_miller_rabin, run_isolated
from phekit import (
    PHE,
    ParseError,
    PayloadTypeError,
    RandomSource,
    key_fingerprint,
    parse_ciphertext,
    parse_key,
    serialize_ciphertext,
    serialize_key,
)
from phekit.ec import IDENTITY, CurvePoint, get_curve
from phekit.numtheory import jacobi
from phekit.errors import MathDomainError
from phekit.schemes import SCHEME_CLASSES, KeyPair, generate_keys, scheme_for
from phekit.schemes.base import INT_PARAM_CAPS, INT_PARAMS
from phekit.serialization import (
    FORMAT_VERSION,
    MAX_DIGITS,
    canonical_json,
    payload_from_doc,
    payload_to_doc,
    to_decimal,
)

def test_no_phekit_module_imports_another_modules_private_name():
    """A leading-underscore name stays inside its module: the document
    codec's helpers (`_decimal`, `_parse_natural`, `_require`, ...) are
    called only in `serialization`, so a change to the codec touches that
    module alone."""
    package = Path(phekit.__file__).parent
    imported = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "phekit"):
                imported += [f"{path.relative_to(package)}: {'.' * node.level}"
                             f"{node.module or ''} import {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []


KEYGEN_FOR_TESTS = {
    "rsa": (64, None),
    "goldwasser-micali": (48, None),
    "elgamal": (64, None),
    "exp-elgamal": (64, {"dlp_bound": 4096}),
    "benaloh": (48, {"block_size": 17}),
    "ec-elgamal": (0, {"curve": "toy17"}),
    "naccache-stern": (48, {"prime_count": 4}),
    "okamoto-uchiyama": (48, None),
    "paillier": (64, None),
    "damgard-jurik": (64, {"s": 3}),
}


@pytest.fixture(scope="module")
def all_keys() -> dict[str, KeyPair]:
    rng = RandomSource(2024)
    return {
        name: generate_keys(name, bits, params=params, rng=rng)
        for name, (bits, params) in KEYGEN_FOR_TESTS.items()
    }


@pytest.mark.parametrize("algorithm", sorted(KEYGEN_FOR_TESTS))
def test_key_roundtrip(algorithm, all_keys):
    keys = all_keys[algorithm]
    back = parse_key(serialize_key(keys))
    assert back == keys


@pytest.mark.parametrize("algorithm", sorted(KEYGEN_FOR_TESTS))
def test_reserialization_is_byte_identical(algorithm, all_keys):
    text = serialize_key(all_keys[algorithm])
    assert serialize_key(parse_key(text)) == text


def test_canonical_form_properties(all_keys):
    text = serialize_key(all_keys["paillier"])
    assert text.endswith("\n")
    assert "\n" not in text[:-1]
    assert ": " not in text  # no insignificant whitespace
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    # every numeric leaf travels as a decimal string
    assert all(isinstance(v, str) for v in doc["public"].values())
    assert all(isinstance(v, str) for v in doc["private"].values())


def test_canonical_json_is_deterministic():
    assert canonical_json({"b": "2", "a": "1"}) == '{"a":"1","b":"2"}\n'


def test_public_only_serialization(all_keys):
    keys = all_keys["paillier"]
    text = serialize_key(keys, include_private=False)
    assert "private" not in json.loads(text)
    public = parse_key(text)
    assert not public.has_private
    assert public.public == keys.public


def test_fingerprint_ignores_the_private_half(all_keys):
    keys = all_keys["paillier"]
    assert key_fingerprint(keys) == key_fingerprint(keys.public_only())
    assert len(key_fingerprint(keys)) == 64
    int(key_fingerprint(keys), 16)  # hex digest


def test_fingerprint_is_the_same_digest_without_the_builtin_hash(all_keys):
    """An interpreter built without `_sha2` and `_sha256` fingerprints keys
    through `hashlib`, to the same digests."""
    texts = [serialize_key(keys) for keys in all_keys.values()]
    fallback = json.loads(run_isolated(
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from phekit import key_fingerprint, parse_key, serialization\n"
        "assert serialization.sha256 is hashlib.sha256\n"
        "print(json.dumps([key_fingerprint(parse_key(t)) for t in json.load(sys.stdin)]))\n",
        stdin=json.dumps(texts),
    ))
    expected = [
        hashlib.sha256(serialize_key(keys, include_private=False).encode()).hexdigest()
        for keys in all_keys.values()
    ]
    assert [key_fingerprint(keys) for keys in all_keys.values()] == expected
    assert fallback == expected


def test_fingerprint_distinguishes_keys(all_keys):
    prints = {key_fingerprint(keys) for keys in all_keys.values()}
    assert len(prints) == len(all_keys)


def test_params_roundtrip(all_keys):
    dj = parse_key(serialize_key(all_keys["damgard-jurik"]))
    assert dj.params["s"] == 3
    ec = parse_key(serialize_key(all_keys["ec-elgamal"]))
    assert ec.params["curve"] == "toy17"
    assert isinstance(ec.params["dlp_bound"], int)


def test_parsed_keys_are_usable(all_keys):
    scheme = scheme_for(parse_key(serialize_key(all_keys["paillier"])))
    rng = RandomSource(7)
    assert scheme.decrypt(scheme.encrypt(123, rng)) == 123


def test_parse_key_rejects_bad_documents(all_keys):
    def corrupt(message, source="paillier", **changes):
        doc = dict(json.loads(serialize_key(all_keys[source])), **changes)
        with pytest.raises(ParseError, match=message):
            parse_key(json.dumps(doc))

    corrupt("format_version", format_version=99)
    corrupt("algorithm", algorithm="rot13")
    corrupt("security_bits", security_bits="1024")
    corrupt("security_bits", security_bits=True)
    corrupt("public", public=["n"])
    corrupt("public.n", public={"n": "12x"})
    corrupt("private.p", private={"p": "0x12"})
    corrupt("params.s", params={"s": "two"})
    corrupt("params.s", source="damgard-jurik", params={})
    corrupt("params.curve", source="ec-elgamal", params={"dlp_bound": "5"})
    corrupt("security_bits", security_bits=-1)
    n = all_keys["paillier"].public["n"]
    corrupt("public.g", public={"n": str(n)})
    corrupt("private.d", source="rsa", private={"p": "3", "q": "5"})

    def public(source, **fields):
        return {k: str(v) for k, v in dict(all_keys[source].public, **fields).items()}

    # Naccache-Stern's sigma must be the product of the first prime_count odd
    # primes (3 * 5 * 7 * 11 = 1155 here), Benaloh's r an odd prime
    ns, benaloh = all_keys["naccache-stern"].public, all_keys["benaloh"].public
    corrupt("public.sigma", "naccache-stern", public=public("naccache-stern", sigma=1155 // 7))
    for count in ("0", "1", "11", "3000"):
        corrupt("params.prime_count", "naccache-stern", params={"prime_count": count})
    for r in (9, 2, 1, 0):
        corrupt("public.r", "benaloh", public=public("benaloh", r=r))
    # with the private key: 13 divides neither key's phi, 5^2 divides
    # Benaloh's, and a generator raised to sigma (or r) has a phi/p_i-th
    # power of 1
    corrupt("'private': message prime 13", "naccache-stern", params={"prime_count": "5"},
            public=public("naccache-stern", sigma=1155 * 13))
    for r in (13, 5):
        corrupt(f"'private': message prime {r}", "benaloh", params={"block_size": str(r)},
                public=public("benaloh", r=r))
    # broken twice, a base of 1 at the message prime 3 and the prime 13 not
    # dividing phi: every prime is checked against phi before any base
    corrupt("'private': message prime 13", "naccache-stern", params={"prime_count": "5"},
            public=public("naccache-stern", sigma=1155 * 13, g=pow(ns["g"], 3, ns["n"])))
    corrupt("public.g", "naccache-stern",
            public=public("naccache-stern", g=pow(ns["g"], 1155, ns["n"])))
    corrupt("public.y", "benaloh",
            public=public("benaloh", y=pow(benaloh["y"], 17, benaloh["n"])))
    # Benaloh's params repeat its block r
    corrupt("'params.block_size': must be the block public.r = 17", "benaloh",
            params={"block_size": "257"})
    # RSA's e: odd, 3 <= e < n
    for e in (1, 2, 65536, all_keys["rsa"].public["n"], all_keys["rsa"].public["n"] + 2):
        corrupt("public.e", "rsa", public=public("rsa", e=e))
    # the ElGamal family's g and h: 2..p-2
    for source in ("elgamal", "exp-elgamal"):
        p = all_keys[source].public["p"]
        for name in ("g", "h"):
            for bad in (0, 1, p - 1, p):
                corrupt(f"public.{name}", source, public=public(source, **{name: bad}))
    # Goldwasser-Micali: an odd n, then x below n with Jacobi symbol +1, then,
    # with the private key, x a non-residue modulo both primes
    gm = all_keys["goldwasser-micali"].public
    corrupt("public.n", "goldwasser-micali", public=public("goldwasser-micali", n=gm["n"] + 1))
    minus_one = next(a for a in range(2, gm["n"]) if jacobi(a, gm["n"]) == -1)
    for x in (0, minus_one, gm["x"] + gm["n"]):
        corrupt("'public.x': must lie below n", "goldwasser-micali",
                public=public("goldwasser-micali", x=x))
    corrupt("'public.x': is a quadratic residue", "goldwasser-micali",
            public=public("goldwasser-micali", x=4))
    # a modulus scheme's generators: units other than 1 below the modulus
    # (5p is Naccache-Stern's non-unit g, n^(s+1) + 1 a 1 in disguise)
    for source, name in [("paillier", "g"), ("damgard-jurik", "g"), ("naccache-stern", "g"),
                         ("okamoto-uchiyama", "g"), ("okamoto-uchiyama", "h"), ("benaloh", "y")]:
        modulus = scheme_for(all_keys[source]).modulus
        for bad in (0, 1, 5 * all_keys[source].private["p"], modulus, modulus + 1):
            corrupt(f"'public.{name}': must be a unit", source, public=public(source, **{name: bad}))
    # Okamoto-Uchiyama's h is g^n mod n
    ou = all_keys["okamoto-uchiyama"].public
    corrupt("'public.h': is not g\\^n", "okamoto-uchiyama",
            public=public("okamoto-uchiyama", h=ou["h"] * ou["g"] % ou["n"]))
    # with the private key, g^(p-1) = 1 mod p^2 leaves the log decryption no
    # h_p: -1 modulo the modulus is such a g (with h = g^n for Okamoto-Uchiyama)
    for source in ("paillier", "damgard-jurik", "okamoto-uchiyama"):
        g = scheme_for(all_keys[source]).modulus - 1
        fields = {"g": g, "h": g} if source == "okamoto-uchiyama" else {"g": g}
        corrupt("'public.g': its \\(p-1\\)-th power is 1", source, public=public(source, **fields))
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_key("{nope")
    with pytest.raises(ParseError, match="document"):
        parse_key("[]")


def test_a_benaloh_block_past_n_is_refused_before_its_primality_test(all_keys, monkeypatch):
    """r divides p-1, so a public.r at or past n is refused without a
    primality test, here on its copy params.block_size, which is past 2^32:
    the Mersenne prime 2^4423 - 1 as block took 40-round Miller-Rabin and
    then parsed."""
    keys = all_keys["benaloh"]
    doc = json.loads(serialize_key(keys, False))
    monkeypatch.setattr(naccache_stern, "is_probable_prime", None)  # never called
    for r in (2**4423 - 1, keys.public["n"]):
        doc["public"]["r"] = doc["params"]["block_size"] = to_decimal(r)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="'params.block_size': must be at most"):
            parse_key(json.dumps(doc))
        assert time.perf_counter() - start < 0.5


def test_parse_key_refuses_params_its_scheme_does_not_take(all_keys):
    """A key file carries exactly its scheme's params. Paillier runs
    Damgard-Jurik's code, so a stray `s` in a Paillier file would otherwise
    be carried along, or read as its s. `public` and `private` hold exactly
    the scheme's fields the same way: a stray public name would change the
    fingerprint, and RSA's d under `public` would be written into every
    public-only copy."""
    for algorithm, keys in all_keys.items():
        cls = SCHEME_CLASSES[algorithm]
        stray = {"public": set(cls.private_fields) | {"zzz"},
                 "private": set(cls.public_fields) | {"zzz"}}
        for include_private in (True, False):
            doc = json.loads(serialize_key(keys, include_private))
            for name in {"s", "dlp_bound", "wat"} - set(keys.params):
                with pytest.raises(ParseError, match=f"'params.{name}': {algorithm} takes"):
                    parse_key(json.dumps(dict(doc, params=dict(doc["params"], **{name: "7"}))))
            for part in ("public", "private") if include_private else ("public",):
                for name in stray[part] - set(doc[part]):
                    with pytest.raises(ParseError, match=f"'{part}.{name}': {algorithm} takes"):
                        parse_key(json.dumps(dict(doc, **{part: dict(doc[part], **{name: "7"})})))


def test_parse_key_refuses_an_integer_param_of_zero(all_keys):
    """Integer params are positive integers: an exp-elgamal dlp_bound of 0
    would make a key that refuses every plaintext."""
    checked = set()
    for algorithm, keys in all_keys.items():
        for name in (n for n, value in keys.params.items() if isinstance(value, int)):
            for include_private in (True, False):
                doc = json.loads(serialize_key(keys, include_private))
                doc["params"][name] = "0"
                with pytest.raises(ParseError,
                                   match=f"'params.{name}': must be a positive integer"):
                    parse_key(json.dumps(doc))
            checked.add(name)
    assert checked == {"s", "dlp_bound", "block_size", "prime_count", "plaintext_bits"}


def test_an_integer_param_is_refused_for_one_reason_at_both_doors(all_keys):
    """Key generation and key files hold an integer param to one rule,
    `int_param_fault`: 0 and one past a cap are refused with the same reason
    at both doors, as is a 4000-digit value where a cap or Damgard-Jurik's
    own rule on s decides it. Naccache-Stern's prime_count and
    Okamoto-Uchiyama's plaintext_bits have no cap: key generation refuses
    such a value by the key size, a key file by its own sigma or p. No
    reason formats the value, and at key generation no bool, string,
    negative or 5000-digit value passes either."""
    huge = 10**4000 - 1
    for algorithm, keys in all_keys.items():
        extra = {"curve": "toy17"} if algorithm == "ec-elgamal" else {}
        for name in INT_PARAMS.intersection(keys.params):
            cap = INT_PARAM_CAPS.get(name)
            for value in (0, huge) + (() if cap is None else (cap + 1,)):
                with pytest.raises(MathDomainError) as at_keygen:
                    generate_keys(algorithm, 64, params=dict(extra, **{name: value}),
                                  rng=RandomSource(1))
                doc = json.loads(serialize_key(keys))
                doc["params"][name] = to_decimal(value)
                with pytest.raises(ParseError, match=f"^field 'params.{name}': ") as in_file:
                    parse_key(json.dumps(doc))
                reason = str(in_file.value).split(": ", 1)[1]
                assert len(reason) < 100
                if value != huge or cap is not None or name == "s":
                    assert str(at_keygen.value) == f"{algorithm} parameter {name} {reason}"
            for value in (True, "5", -1, 10**5000, -10**5000):
                with pytest.raises(MathDomainError, match=f"parameter {name} ") as at_keygen:
                    generate_keys(algorithm, 64, params=dict(extra, **{name: value}),
                                  rng=RandomSource(1))
                assert len(str(at_keygen.value)) < 120


def test_a_json_number_past_the_digit_limit_is_a_parse_error(all_keys, int_digit_limit):
    """The JSON reader converts numbers with `int`, which refuses one past
    the interpreter's int/str digit limit: that is a ParseError too."""
    int_digit_limit(640)
    text = serialize_key(all_keys["paillier"])
    c = PHE(keys=all_keys["paillier"], rng=RandomSource(3)).encrypt(5)
    for document, parse in ((text, parse_key), (serialize_ciphertext(c), parse_ciphertext)):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse(document.replace('"format_version":1', '"format_version":' + "1" * 700))


def test_okamoto_uchiyama_plaintext_bits_stay_below_p(all_keys):
    """Decryption reads m modulo p: 2^plaintext_bits may not pass p. With
    the private key the bound is p's bit length, without it what key
    generation writes for n's size."""
    keys = all_keys["okamoto-uchiyama"]
    p = keys.private["p"]
    assert keys.params["plaintext_bits"] == p.bit_length() - 1
    for include_private in (True, False):
        doc = json.loads(serialize_key(keys, include_private))
        for bits in (p.bit_length(), p.bit_length() + 1, 60):
            doc["params"]["plaintext_bits"] = str(bits)
            with pytest.raises(ParseError, match="'params.plaintext_bits'"):
                parse_key(json.dumps(doc))
        doc["params"]["plaintext_bits"] = str(p.bit_length() - 2)
        assert parse_key(json.dumps(doc)).params["plaintext_bits"] == p.bit_length() - 2


@pytest.mark.parametrize("algorithm", ["benaloh", "naccache-stern"])
def test_keys_with_message_primes_parse_for_every_seed(algorithm):
    bits, params = KEYGEN_FOR_TESTS[algorithm]
    for seed in range(20):
        keys = generate_keys(algorithm, bits, params=params, rng=RandomSource(seed))
        assert parse_key(serialize_key(keys)) == keys


@pytest.mark.parametrize(
    "algorithm", sorted(a for a, cls in SCHEME_CLASSES.items() if cls.n_exponents)
)
def test_parse_key_rejects_private_factors_that_miss_the_modulus(all_keys, algorithm):
    keys = all_keys[algorithm]
    p, q = keys.private["p"], keys.private["q"]
    n = keys.public["n"]
    doc = json.loads(serialize_key(keys))
    bad = [(p, q + 2), (p, p), (1, n), (n, 1)]
    if algorithm == "okamoto-uchiyama":
        bad.append((q, p))  # n = p^2 * q is not q^2 * p
    for bad_p, bad_q in bad:
        doc["private"].update(p=str(bad_p), q=str(bad_q))
        with pytest.raises(ParseError, match="'private'"):
            parse_key(json.dumps(doc))
    doc["private"].update(p=str(p), q=str(q))
    assert parse_key(json.dumps(doc)) == keys


def _refused_in_milliseconds(doc: dict, field: str) -> None:
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"'{field}': must be at most"):
        parse_key(json.dumps(doc))
    assert time.perf_counter() - start < 0.5


def test_a_damgard_jurik_s_past_its_cost_bound_is_refused(all_keys):
    """s <= 16 and (s+1) * bits(n) <= 23040, public-only keys included: a
    64-bit file with s = 100000 would raise r to n^100000 on its first
    encrypt."""
    for include_private in (True, False):
        doc = json.loads(serialize_key(all_keys["damgard-jurik"], include_private))
        for s in (17, 100000):
            doc["params"]["s"] = str(s)
            _refused_in_milliseconds(doc, "params.s")
    # the last s each modulus size admits; n = 2^(bits-1) + 1 and g = n+1 pass
    # every other public check
    for bits, s in ((7680, 2), (3072, 6), (2048, 10), (1024, 16), (64, 16)):
        n = 2 ** (bits - 1) + 1
        pair = KeyPair("damgard-jurik", bits, {"n": n, "g": n + 1}, None, {"s": s})
        assert parse_key(serialize_key(pair)) == pair
        _refused_in_milliseconds(json.loads(serialize_key(pair.replace(params={"s": s + 1}))),
                                 "params.s")
    # Paillier carries no s, and its modulus size is the caller's choice
    n = 2**12000 + 1
    pair = KeyPair("paillier", 12001, {"n": n, "g": n + 1})
    assert parse_key(serialize_key(pair)) == pair


def test_a_dlp_bound_past_2_to_the_32_is_refused(all_keys):
    """The first decrypt builds isqrt(dlp_bound) + 1 baby steps; EC-ElGamal
    caps the bound at the group order only, some 2^75 steps on secp160r1.
    A Benaloh block r takes isqrt(r - 1) + 1: 2^61 - 1, a prime, would take
    some 1.5 billion."""
    ec_keys = generate_keys("ec-elgamal", 0, params={"curve": "secp160r1"},
                            rng=RandomSource(7))
    for keys, name in ((ec_keys, "dlp_bound"), (all_keys["exp-elgamal"], "dlp_bound"),
                       (all_keys["benaloh"], "block_size")):
        for include_private in (True, False):
            doc = json.loads(serialize_key(keys, include_private))
            for bound in (2**32 + 1, 2**61 - 1, 2**150):
                doc["params"][name] = str(bound)
                _refused_in_milliseconds(doc, f"params.{name}")
            if name == "dlp_bound":
                doc["params"][name] = str(2**32)
                assert parse_key(json.dumps(doc)).params[name] == 2**32


def test_a_benaloh_r_past_2_to_the_32_is_refused_before_its_primality_test(all_keys,
                                                                          monkeypatch):
    """r is the block, so it has the block's cap, checked before any
    primality test: with params.block_size left valid and n widened past it,
    the Mersenne prime 2^4423 - 1 as public.r took 40-round Miller-Rabin
    before its mismatch with the block refused it."""
    doc = json.loads(serialize_key(all_keys["benaloh"], False))
    doc["public"]["n"] = to_decimal(2**4500 + 1)
    monkeypatch.setattr(naccache_stern, "is_probable_prime", None)  # never called
    for r in (2**32 + 15, 2**4423 - 1):
        doc["public"]["r"] = to_decimal(r)
        _refused_in_milliseconds(doc, "public.r")


def test_a_benaloh_block_at_or_past_a_small_n_is_refused_by_comparison(monkeypatch):
    """Below the 2^32 cap only a key of at most 32 bits has r >= n in reach:
    its r is compared with n before any primality test."""
    keys = generate_keys("benaloh", 32, params={"block_size": 17}, rng=RandomSource(1))
    doc = json.loads(serialize_key(keys, False))
    monkeypatch.setattr(naccache_stern, "is_probable_prime", None)  # never called
    for r in (keys.public["n"], 2**32 - 5):
        doc["public"]["r"] = doc["params"]["block_size"] = str(r)
        with pytest.raises(ParseError, match="'public.r': must be below public.n"):
            parse_key(json.dumps(doc))


def test_a_goldwasser_micali_x_square_modulo_composite_factors_is_refused():
    """Decryption reads each bit from x's Jacobi symbol modulo p. x = 4 is a
    square, symbol +1 modulo any p, yet Euler's criterion modulo the
    composite 15 calls it a non-residue (4^7 = 4 mod 15): such a file once
    parsed and decrypted every plaintext to 0. Its factors are now refused
    as composite, before x's symbol modulo p is read."""
    for p, q in ((15, 77), (21, 55)):
        keys = KeyPair("goldwasser-micali", 8, {"n": p * q, "x": 4}, {"p": p, "q": q})
        with pytest.raises(ParseError, match="'private': p and q must be primes"):
            parse_key(serialize_key(keys))


def composite_of(bits: int, drawn: list[int]) -> st.SearchStrategy[int]:
    """Odd composites of exactly `bits` bits, in the top fifth of the range
    so that p^2 * q keeps the width Okamoto-Uchiyama asks for, none a square
    (a square p leaves Goldwasser-Micali's key generation no x of symbol -1
    modulo p) and none `drawn` before, as p must differ from q."""
    return st.integers((4 << bits) // 5, (1 << bits) - 1).map(lambda c: c | 1).filter(
        lambda c: c not in drawn and math.isqrt(c) ** 2 != c
        and not forty_round_miller_rabin(c))


@settings(max_examples=60, deadline=None)
@given(algorithm=st.sampled_from(
           ["rsa", "goldwasser-micali", "okamoto-uchiyama", "paillier", "damgard-jurik"]),
       bits=st.integers(40, 64), seed=st.integers(0, 2**32), data=st.data())
def test_a_key_generated_from_composite_factors_is_refused_or_decrypts(algorithm, bits,
                                                                      seed, data):
    """Key generation run as it is, with `gen_prime` drawing composites of
    the width it asks for, so the search's own conditions hold and every
    other field is computed from coprime composites p and q as it would be
    from primes: `parse_key` refuses the file, or it decrypts every tested
    m. The other two factoring schemes shape their primes by hand
    (`test_cli.py` refuses a pseudoprime factor for them)."""
    drawn: list[int] = []

    def draw(width: int, rng: RandomSource) -> int:
        drawn.append(data.draw(composite_of(width, drawn)))
        return drawn[-1]

    # generate_modulus calls the module global; Okamoto-Uchiyama its own import
    with mock.patch("phekit.numtheory.gen_prime", draw), \
            mock.patch("phekit.schemes.okamoto_uchiyama.gen_prime", draw):
        keys = generate_keys(algorithm, bits, rng=RandomSource(seed))
    p, q = keys.private["p"], keys.private["q"]
    assume(math.gcd(p, q) == 1)
    assert not (forty_round_miller_rabin(p) or forty_round_miller_rabin(q))
    try:
        scheme = scheme_for(parse_key(serialize_key(keys)))
    except ParseError as error:
        assert "'private': p and q must be primes" in str(error)
        return
    rng = RandomSource(seed)
    bound = scheme.plaintext_bound() or 1 << 8
    for m in (0, 1, 2, bound - 1, rng.randrange(bound)):
        assert scheme.decrypt(scheme.encrypt(m, rng)) == m


def test_parse_key_rejects_an_ec_point_off_its_curve():
    keys = generate_keys("ec-elgamal", 0, params={"curve": "secp160r1"},
                         rng=RandomSource(7))
    p = get_curve("secp160r1").p
    qx, qy = keys.public["qx"], keys.public["qy"]
    for include_private in (True, False):
        doc = json.loads(serialize_key(keys, include_private))
        # off the curve, then on it but with a coordinate not reduced mod p
        for bad_x, bad_y in ((qx, qy + 1), (qx + 1, qy), (qx, qy + p), (qx + p, qy)):
            doc["public"].update(qx=str(bad_x), qy=str(bad_y))
            with pytest.raises(ParseError, match="'public'"):
                parse_key(json.dumps(doc))
        doc["public"].update(qx=str(qx), qy=str(qy))
        assert parse_key(json.dumps(doc)) == (
            keys if include_private else keys.public_only()
        )
    doc["params"]["curve"] = "secp161r1"
    with pytest.raises(ParseError, match="'params.curve'"):
        parse_key(json.dumps(doc))


@pytest.mark.parametrize(
    "algorithm, field",
    [("rsa", "d"), ("elgamal", "x"), ("exp-elgamal", "x"), ("ec-elgamal", "x")],
)
def test_parse_key_rejects_a_private_half_that_does_not_match(all_keys, algorithm, field):
    """RSA needs e*d = 1 mod lcm(p-1, q-1), the ElGamal family g^x = h: an
    RSA d of 0 decrypts everything to 1, an ElGamal x off by one to noise."""
    keys = all_keys[algorithm]
    doc = json.loads(serialize_key(keys))
    good = doc["private"][field]
    for bad in ("0", str(int(good) + 1)):
        doc["private"][field] = bad
        with pytest.raises(ParseError, match="'private'"):
            parse_key(json.dumps(doc))
    doc["private"][field] = good
    assert parse_key(json.dumps(doc)) == keys


KEY_INTEGERS = sorted(
    (algorithm, half, name)
    for algorithm, cls in SCHEME_CLASSES.items()
    for half, names in (("public", cls.public_fields), ("private", cls.private_fields))
    for name in names
)


@pytest.mark.parametrize("algorithm, half, name", KEY_INTEGERS)
def test_a_key_with_one_integer_replaced_is_refused_or_decrypts(all_keys, algorithm, half,
                                                               name):
    """One public or private integer of a full key pair replaced by 0, 1, 2,
    its value + 1, the modulus - 1 or a random value below the modulus:
    `parse_key` refuses the result, or it decrypts what it encrypts."""
    keys = all_keys[algorithm]
    scheme = scheme_for(keys)
    if algorithm == "ec-elgamal":
        modulus = scheme.group.p
    else:  # the ciphertext modulus, else n, else ElGamal's p
        modulus = getattr(scheme, "modulus", None) or keys.public.get("n") or scheme.p
    draws = random.Random(f"{algorithm}.{half}.{name}")
    value = getattr(keys, half)[name]
    doc = json.loads(serialize_key(keys))
    for bad in {0, 1, 2, value + 1, modulus - 1, *(draws.randrange(modulus) for _ in range(8))}:
        doc[half][name] = str(bad)
        try:
            tampered = scheme_for(parse_key(json.dumps(doc)))
        except ParseError:
            continue
        rng = RandomSource(bad)
        bound = tampered.plaintext_bound() or 1 << 8
        for m in (0, 1, bound - 1, rng.randrange(bound)):
            assert tampered.decrypt(tampered.encrypt(m, rng)) == m, (bad, m)


def test_parse_key_refuses_public_keys_that_encrypt_in_the_clear(all_keys):
    """A server that holds only the public key must not publish plaintexts:
    RSA's e = 1 leaves m as it is, ElGamal's h = 1 leaves m in c2,
    exponential ElGamal's g = h = 1 encrypts every m to (1, 1), and a
    Goldwasser-Micali x with Jacobi symbol -1 gives each bit away in the
    symbol of its ciphertext value."""
    def refused(source, field, **values):
        public_only = all_keys[source].public_only()
        text = serialize_key(public_only.replace(public=dict(public_only.public, **values)))
        with pytest.raises(ParseError, match=f"'public.{field}'"):
            parse_key(text)

    n = all_keys["rsa"].public["n"]
    for e in (1, 2, n, n + 2):
        refused("rsa", "e", e=e)
    p = all_keys["elgamal"].public["p"]
    for h in (1, p - 1):
        refused("elgamal", "h", h=h)
    refused("exp-elgamal", "g", g=1, h=1)
    n = all_keys["goldwasser-micali"].public["n"]
    refused("goldwasser-micali", "x", x=next(a for a in range(2, n) if jacobi(a, n) == -1))


def test_documents_are_the_same_under_any_digit_limit(int_digit_limit):
    """Keys of any admitted size write and read their documents whatever the
    interpreter's int/str digit limit: a 256-bit n with s = 8 makes
    ciphertexts of about 694 digits, past a limit of 640, and they are the
    same bytes as with the limit off."""
    keys = generate_keys("damgard-jurik", 256, params={"s": 8}, rng=RandomSource(1))
    phe = PHE(keys=keys, rng=RandomSource(2))
    c = phe.encrypt(5)
    documents = {}
    for limit in (0, 640):
        int_digit_limit(limit)
        total = c + c
        assert phe.decrypt(total) == 10
        for value in (total, total.replace(scale_denominator=3**1500)):
            text = serialize_ciphertext(value)
            assert parse_ciphertext(text) == value
            documents.setdefault(limit, []).append(text)
        documents[limit].append(serialize_key(keys))
        assert parse_key(documents[limit][-1]) == keys
    assert documents[0] == documents[640]
    assert len(json.loads(documents[640][0])["payload"]["data"]) > 640


def test_an_integer_past_the_document_bound_is_refused_where_it_is_written(
    all_keys, int_digit_limit,
):
    """A document integer has at most MAX_DIGITS = 6936 digits, those of any
    value below 2^23040, Damgard-Jurik's largest ciphertext modulus: one
    more is refused where it is written, naming its field, so that every
    document written is one that is read; a far wider value is refused
    before it is converted."""
    int_digit_limit(640)
    assert MAX_DIGITS == len(to_decimal(1 << 23040))
    c = PHE(keys=all_keys["paillier"], rng=RandomSource(3)).encrypt(5)
    largest = 10**MAX_DIGITS - 1
    text = serialize_ciphertext(c.replace(scale_denominator=largest))
    assert parse_ciphertext(text).scale_denominator == largest
    for past in (largest + 1, 1 << 10**7):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="'scale_denominator'"):
            serialize_ciphertext(c.replace(scale_denominator=past))
        with pytest.raises(ParseError, match=r"'payload.data'"):
            serialize_ciphertext(c.replace(payload=past))
        with pytest.raises(ParseError, match="'public.n'"):
            serialize_key(KeyPair("paillier", 2200, {"n": past, "g": past + 1}, None, {}))
        assert time.perf_counter() - start < 0.5


def test_a_document_integer_past_the_document_bound_is_refused_before_it_is_read(
    all_keys, int_digit_limit,
):
    """6936 digits read under any limit; 6937, or ten million, are refused
    naming the field before any conversion."""
    int_digit_limit(640)
    c = PHE(keys=all_keys["paillier"], rng=RandomSource(3)).encrypt(5)
    doc = json.loads(serialize_ciphertext(c))
    doc["scale_denominator"] = "7" * MAX_DIGITS
    assert parse_ciphertext(json.dumps(doc)).scale_denominator == 10**MAX_DIGITS // 9 * 7
    for digits in ("1" * (MAX_DIGITS + 1), "1" * 10**7):
        start = time.perf_counter()
        doc["scale_denominator"] = digits
        with pytest.raises(ParseError, match="'scale_denominator': has more than the 6936 digits"):
            parse_ciphertext(json.dumps(doc))
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "algorithm, field",
    sorted((a, f) for a, cls in SCHEME_CLASSES.items()
           for f in {"n", "p"}.intersection(cls.public_fields)),
)
def test_parse_key_rejects_a_degenerate_modulus(all_keys, algorithm, field):
    for include_private in (True, False):
        doc = json.loads(serialize_key(all_keys[algorithm], include_private))
        for bad in ("0", "1", "4"):
            doc["public"][field] = bad
            with pytest.raises(ParseError, match=f"'public.{field}'"):
                parse_key(json.dumps(doc))


def test_only_canonical_decimal_strings_parse(all_keys):
    """Non-ASCII digits and leading zeros would not re-serialize as read."""
    key_doc = json.loads(serialize_key(all_keys["paillier"]))
    c = PHE(keys=all_keys["paillier"], rng=RandomSource(3)).encrypt(5)
    cipher_doc = json.loads(serialize_ciphertext(c))
    for bad in ("\u00b2", "\u0663", "07", "00", "+7", " 7", "", "1" * (MAX_DIGITS + 1)):
        with pytest.raises(ParseError, match="'public.g'"):
            parse_key(json.dumps(dict(key_doc, public=dict(key_doc["public"], g=bad))))
        with pytest.raises(ParseError, match="'scale_denominator'"):
            parse_ciphertext(json.dumps(dict(cipher_doc, scale_denominator=bad)))
        with pytest.raises(ParseError, match="'payload.data'"):
            parse_ciphertext(json.dumps(
                dict(cipher_doc, payload={"kind": "single", "data": bad})))
    for text in ("[" * 100_000, '{"a":' * 100_000):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_key(text)
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_ciphertext(text)
    for version in (True, 1.0, "1"):
        with pytest.raises(ParseError, match="'format_version'"):
            parse_key(json.dumps(dict(key_doc, format_version=version)))
        with pytest.raises(ParseError, match="'format_version'"):
            parse_ciphertext(json.dumps(dict(cipher_doc, format_version=version)))


# SHA-256 of serialize_key(keys) and of serialize_ciphertext(Enc(5)) for the
# KEYGEN_FOR_TESTS sizes under RandomSource(31337). Any change to what key
# generation or encryption draws, or in which order, moves these digests.
SEEDED_DIGESTS = {
    "rsa": (
        "43b6c80789abca31c2cc3e8116c11917c60c3ca008548a8930eb57785bc49824",
        "c9ab8dc6d74fba06c9c8ce0fadb1f69ac5a2ae8aab43c5ddf6fd64b70ebc2895",
    ),
    "goldwasser-micali": (
        "9aa4e253bee72a9709caa4d8da6ca23cac1492efd70e4bd1f3c23fdcf2c59756",
        "048370f92ce309452b423b7b509d40780174f704fa73d60330dae3225af3cd17",
    ),
    "elgamal": (
        "a9cf9c9eb59d2daccf13dbd170e6528f37507d85a5ea97fdf44d2c5941c921c6",
        "f0b124ced42b5b8f27dd4ef72bb091a402f75dc72395315597312908fc070fc9",
    ),
    "exp-elgamal": (
        "ef00e80199b07a9300de56bb9ff5252b3e3a388e9b67a7492397ee2d4191f57c",
        "df047aa72aedda7110eaf034872ecc47c2ec7431baaf0d0855e2ad5368016216",
    ),
    "benaloh": (
        "0eac11d952e1f32dd9be51c94dd6f8e83245f967d2b387eceb0844cdfe7916ce",
        "ead6ce2234130123def2b5b28a91764376723d209ad1d629e74ac3864b746884",
    ),
    "ec-elgamal": (
        "fc6d4be35dee419735714aefbf0f028b4b57f5a5a8c4553cc42536dfec8bd173",
        "abc850b3b5d17a28cb6283849b65f5f798f9909fe2624975b4c7084f3d90cade",
    ),
    "naccache-stern": (
        "318dcda5f4b3bd64c36961b28acec632b344565d0c947b3dd8a8c7258a67fbc0",
        "ca36af72fb52754deba234614806145d94992f86abc03c0600d4594ae78bb947",
    ),
    "okamoto-uchiyama": (
        "925447f7fdd56f618c7e639ea06403ebbe990ce201a6283099803d8bd2da740c",
        "e630f5e889060dcded1ac6a29b530afdd55974be694c03643228475487b23d83",
    ),
    "paillier": (
        "185abaa95f6de2f79faf98554499517c9aef5fe74ea4e1007cbc93fc6a5fb53c",
        "28b59ba63bd79b485b6cd5c29f8e069c04bd91b093e83b7cbfadebbc607f4da6",
    ),
    "damgard-jurik": (
        "46677ebf8d897e76e542c33be468a4b5c50445709e2bb84b693f730971df95f9",
        "d5892ef510b105c1585a3ac821d6659f7f77fe42bd020d52af83f6588eb80536",
    ),
}


def test_seeded_output_is_pinned():
    got = {}
    for name, (bits, params) in KEYGEN_FOR_TESTS.items():
        phe = PHE(name, bits, params=params, rng=RandomSource(31337))
        got[name] = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (serialize_key(phe.keys), serialize_ciphertext(phe.encrypt(5)))
        )
    assert got == SEEDED_DIGESTS


# -------------------------------------------------------- payload variants


def test_single_payload_doc():
    doc = payload_to_doc(12345)
    assert doc == {"kind": "single", "data": "12345"}
    assert payload_from_doc(doc, "paillier") == 12345


def test_pair_payload_doc():
    doc = payload_to_doc((3, 4))
    assert doc == {"kind": "pair", "data": ["3", "4"]}
    assert payload_from_doc(doc, "elgamal") == (3, 4)


def test_bits_payload_doc():
    doc = payload_to_doc([5, 6, 7])
    assert doc == {"kind": "bits", "data": ["5", "6", "7"]}
    assert payload_from_doc(doc, "goldwasser-micali") == [5, 6, 7]


def test_point_pair_payload_doc():
    payload = (CurvePoint(5, 1), CurvePoint(6, 3))
    doc = payload_to_doc(payload)
    assert doc == {"kind": "point_pair", "data": [["5", "1"], ["6", "3"]]}
    assert payload_from_doc(doc, "ec-elgamal") == payload


def test_identity_point_serializes_as_null():
    payload = (IDENTITY, CurvePoint(6, 3))
    doc = payload_to_doc(payload)
    assert doc["data"][0] is None
    back = payload_from_doc(doc, "ec-elgamal")
    assert back[0].is_identity
    assert back[1] == CurvePoint(6, 3)


def test_payload_to_doc_rejects_what_variant_of_rejects():
    for payload in ([], (1, CurvePoint(5, 1))):
        with pytest.raises(PayloadTypeError):
            payload_to_doc(payload)


def test_payload_kind_enforced_per_algorithm():
    pair = payload_to_doc((3, 4))
    single = payload_to_doc(7)
    for algorithm, wrong in [
        ("paillier", pair),
        ("elgamal", single),
        ("goldwasser-micali", single),
        ("ec-elgamal", pair),
    ]:
        with pytest.raises(ParseError, match="payload.kind"):
            payload_from_doc(wrong, algorithm)


def test_payload_data_validation():
    with pytest.raises(ParseError):
        payload_from_doc({"kind": "single", "data": "1.5"}, "rsa")
    with pytest.raises(ParseError):
        payload_from_doc({"kind": "bits", "data": []}, "goldwasser-micali")
    with pytest.raises(ParseError):
        payload_from_doc({"kind": "pair", "data": ["1"]}, "elgamal")
    with pytest.raises(ParseError):
        payload_from_doc(
            {"kind": "point_pair", "data": [["1"], ["2", "3"]]}, "ec-elgamal"
        )
    with pytest.raises(ParseError):
        payload_from_doc("7", "rsa")
    for kind, algorithm in (("pair", "elgamal"), ("bits", "goldwasser-micali"),
                            ("point_pair", "ec-elgamal")):
        for data in (5, None, {}, "12"):
            with pytest.raises(ParseError, match="'payload.data'"):
                payload_from_doc({"kind": kind, "data": data}, algorithm)


def test_every_payload_variant_is_covered():
    variants = {cls.payload_variant for cls in SCHEME_CLASSES.values()}
    assert variants == {"single", "pair", "bits", "point_pair"}
    assert FORMAT_VERSION == 1


# ------------------------------------------------------------- parse fuzz

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# near misses of a decimal string: non-ASCII digits, signs, leading zeros
numeric_text = st.text(alphabet="0123456789\u00b2\u0663+- x.", max_size=6)


@pytest.fixture(scope="module")
def documents(all_keys) -> list[tuple[str, str]]:
    """Canonical key (private and public-only) and ciphertext documents."""
    docs = []
    for keys in all_keys.values():
        docs.append(("key", serialize_key(keys)))
        docs.append(("key", serialize_key(keys, include_private=False)))
        c = PHE(keys=keys, rng=RandomSource(3)).encrypt(1)
        docs.append(("ciphertext", serialize_ciphertext(c)))
    return docs


PARSERS = {
    "key": (parse_key, serialize_key),
    "ciphertext": (parse_ciphertext, serialize_ciphertext),
}


def paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=json_values | numeric_text)
def test_a_canonical_document_parses_to_itself_or_not_at_all(documents, data, value):
    """Any one value of a canonical document replaced: the parser raises
    ParseError or gives back a value that serializes to the same bytes.
    (Fields are replaced, never dropped: an absent optional field takes its
    default, which does serialize.)"""
    kind, text = data.draw(st.sampled_from(documents))
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(paths(doc))))
    mutated = canonical_json(replaced(doc, path, value))
    parse, serialize = PARSERS[kind]
    try:
        parsed = parse(mutated)
    except ParseError:
        return
    assert serialize(parsed) == mutated


@settings(max_examples=200, deadline=None)
@given(text=st.text() | json_values.map(json.dumps), kind=st.sampled_from(sorted(PARSERS)))
def test_arbitrary_text_parses_stably_or_raises_parse_error(text, kind):
    parse, serialize = PARSERS[kind]
    try:
        parsed = parse(text)
    except ParseError:
        return
    again = serialize(parsed)
    assert serialize(parse(again)) == again


# ------------------------------------------------------------- params at both doors

# Integers stay small: a Damgard-Jurik s or an exp-elgamal dlp_bound sets how
# long encryption and decryption take (a dlp_bound of 2^70 means 2^35 baby
# steps), and these tests encrypt and decrypt with what they make.
param_values = (st.integers(-3, 40) | st.booleans() | st.floats(-3, 40) | st.text(max_size=3)
                | st.sampled_from(["2", "toy17", "secp160r1"]))
param_texts = (st.integers(0, 40).map(str) | numeric_text | st.sampled_from(["toy17", "secp160r1"])
               | st.none() | st.booleans() | st.integers(-3, 40))


def decrypts_what_it_encrypts(keys: KeyPair) -> None:
    scheme = scheme_for(keys)
    rng = RandomSource(9)
    bound = scheme.plaintext_bound() or 1 << 8
    for m in {0, bound // 2, bound - 1}:
        assert scheme.decrypt(scheme.encrypt(m, rng)) == m, m


@pytest.mark.parametrize("algorithm", sorted(KEYGEN_FOR_TESTS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_keygen_refuses_a_param_or_makes_a_key_that_round_trips(algorithm, data):
    """One param of a toy key drawn from each declared name and an unknown
    one: key generation raises a ValueError, or its key serializes, parses
    back to the same bytes and decrypts what it encrypts."""
    bits, params = KEYGEN_FOR_TESTS[algorithm]
    name = data.draw(st.sampled_from(sorted(SCHEME_CLASSES[algorithm].default_params) + ["wat"]))
    params = dict(params or {}, **{name: data.draw(param_values)})
    try:
        keys = generate_keys(algorithm, bits, params=params, rng=RandomSource(5))
    except ValueError:
        return
    text = serialize_key(keys)
    assert parse_key(text) == keys
    assert serialize_key(parse_key(text)) == text
    decrypts_what_it_encrypts(keys)


@pytest.mark.parametrize("algorithm", sorted(KEYGEN_FOR_TESTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_key_file_with_one_param_changed_is_refused_or_decrypts(all_keys, algorithm, data):
    """One params entry of a toy key file added, dropped or replaced:
    `parse_key` refuses the file naming a field, or the key decrypts what it
    encrypts. An added or dropped entry is refused under its own name; a
    replaced one under its name or the public field it is checked against
    (Naccache-Stern's sigma, EC-ElGamal's point)."""
    doc = json.loads(serialize_key(all_keys[algorithm]))
    declared = sorted(doc["params"])
    action = data.draw(st.sampled_from(["add", "drop", "replace"] if declared else ["add"]))
    if action == "add":
        name = data.draw(st.sampled_from(
            sorted({"s", "dlp_bound", "block_size", "curve", "wat"} - set(declared))))
    else:
        name = data.draw(st.sampled_from(declared))
    if action == "drop":
        del doc["params"][name]
    else:
        doc["params"][name] = data.draw(param_texts)
    try:
        keys = parse_key(json.dumps(doc))
    except ParseError as exc:
        fields = [f"'params.{name}'"] + (["'public"] if action == "replace" else [])
        assert any(field in str(exc) for field in fields), str(exc)
        return
    assert action == "replace"
    decrypts_what_it_encrypts(keys)
