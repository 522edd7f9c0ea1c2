"""End-to-end acceptance suite.

One test per numbered criterion; each registers a pass/fail line that the
terminal-summary hook in conftest prints after the run. Production key
material (1024-bit moduli, 160-bit curve) is generated once per module and
shared across criteria; the per-criterion time limits are asserted inside the
tests themselves.
"""

import time
from fractions import Fraction

import pytest

from conftest import EXPECTED_MATRIX, criterion, expected_denial
from phekit import PHE, RandomSource
from phekit.bench import (
    LEVEL_TO_CURVE_BITS,
    LEVEL_TO_MODULUS_BITS,
    BenchPlan,
    emit_csv,
    parse_csv,
    run_bench,
)
from phekit.cli import TEST_SEED_ENV, run
from phekit.ec import CURVE_BY_ECC_BITS, CurvePoint, get_curve, scalar_mul
from phekit.schemes import KeyPair, generate_keys, scheme_for

ADDITIVE = tuple(a for a, flags in EXPECTED_MATRIX.items() if flags[1])
SCALAR_CAPABLE = tuple(a for a, flags in EXPECTED_MATRIX.items() if flags[2])
REGENERATING = tuple(a for a, flags in EXPECTED_MATRIX.items() if flags[4])

PROD_SIZES = {name: 1024 for name in EXPECTED_MATRIX} | {"ec-elgamal": 160}

TOY_SIZES = {
    "rsa": (64, None),
    "goldwasser-micali": (48, None),
    "elgamal": (64, None),
    "exp-elgamal": (64, None),
    "benaloh": (48, {"block_size": 17}),
    "ec-elgamal": (0, {"curve": "toy17"}),
    "naccache-stern": (48, {"prime_count": 4}),
    "okamoto-uchiyama": (48, None),
    "paillier": (64, None),
    "damgard-jurik": (64, None),
}


class FixedRandom:
    def __init__(self, value: int):
        self.value = value

    def randrange(self, start: int, stop: int) -> int:
        assert start <= self.value < stop
        return self.value


@pytest.fixture(scope="module")
def prod_keys() -> dict[str, KeyPair]:
    rng = RandomSource(0xACCE97)
    return {
        name: generate_keys(name, bits, rng=rng)
        for name, bits in PROD_SIZES.items()
    }


@pytest.fixture(scope="module")
def toy_keys() -> dict[str, KeyPair]:
    rng = RandomSource(0x70F)
    return {
        name: generate_keys(name, bits, params=params, rng=rng)
        for name, (bits, params) in TOY_SIZES.items()
    }


def test_criterion_1_roundtrips(prod_keys, toy_keys):
    with criterion(1, "decrypt(encrypt(m)) = m, 10 schemes, toy and 1024/160"):
        rng = RandomSource(101)
        start = time.monotonic()
        for keyset in (toy_keys, prod_keys):
            for name, keys in keyset.items():
                scheme = scheme_for(keys)
                bound = scheme.plaintext_bound()
                top = 1 << 18 if bound is None else min(1 << 18, bound)
                for _ in range(100):
                    m = rng.randrange(0, top)
                    assert scheme.decrypt(scheme.encrypt(m, rng)) == m, name
        assert time.monotonic() - start < 120


def test_criterion_2_homomorphic_laws(prod_keys):
    with criterion(2, "addition, multiplication, and xor laws, 100 cases each"):
        rng = RandomSource(202)
        assert len(ADDITIVE) == 7
        for name in ADDITIVE:
            keys = prod_keys[name]
            scheme = scheme_for(keys)
            top = min(1 << 17, scheme.plaintext_bound())
            for _ in range(100):
                m1, m2 = rng.randrange(0, top), rng.randrange(0, top)
                c = scheme.add(scheme.encrypt(m1, rng), scheme.encrypt(m2, rng))
                expected = m1 + m2
                if name == "benaloh":
                    expected %= keys.public["r"]
                elif name == "naccache-stern":
                    expected %= keys.public["sigma"]
                assert scheme.decrypt(c) == expected, name

        for name, modulus_field in (("rsa", "n"), ("elgamal", "p")):
            keys = prod_keys[name]
            scheme = scheme_for(keys)
            modulus = keys.public[modulus_field]
            for _ in range(100):
                m1, m2 = rng.randrange(0, modulus), rng.randrange(0, modulus)
                c = scheme.mul(scheme.encrypt(m1, rng), scheme.encrypt(m2, rng))
                assert scheme.decrypt(c) == m1 * m2 % modulus, name

        scheme = scheme_for(prod_keys["goldwasser-micali"])
        for _ in range(100):
            b1, b2 = rng.getrandbits(18), rng.getrandbits(18)
            c = scheme.xor(
                scheme.encrypt(b1, rng, bits=18), scheme.encrypt(b2, rng, bits=18)
            )
            assert scheme.decrypt(c) == b1 ^ b2


def test_criterion_3_cli_goldens(tmp_path, monkeypatch, capsys):
    with criterion(3, "CLI workflow goldens with exit codes 0/0/0/3"):
        monkeypatch.setenv(TEST_SEED_ENV, "31337")
        keys = tmp_path / "keys.json"
        assert run(["keygen", "--algorithm", "paillier", "--key-size", "1024",
                    "--out", str(keys)]) == 0

        # roundtrip of 17
        c17 = tmp_path / "c17.json"
        assert run(["encrypt", "--keys", str(keys), "--plaintext", "17",
                    "--out", str(c17)]) == 0
        capsys.readouterr()
        assert run(["decrypt", "--keys", str(keys), "--in", str(c17)]) == 0
        assert capsys.readouterr().out == "17\n"

        # 10000 + 500 under encryption
        a, b, total = (tmp_path / n for n in ("a.json", "b.json", "sum.json"))
        assert run(["encrypt", "--keys", str(keys), "--plaintext", "10000",
                    "--out", str(a)]) == 0
        assert run(["encrypt", "--keys", str(keys), "--plaintext", "500",
                    "--out", str(b)]) == 0
        assert run(["add", "--keys", str(keys), "--left", str(a),
                    "--right", str(b), "--out", str(total)]) == 0
        capsys.readouterr()
        assert run(["decrypt", "--keys", str(keys), "--in", str(total)]) == 0
        assert capsys.readouterr().out == "10500\n"

        # 1.05 * Enc(10000)
        scaled = tmp_path / "scaled.json"
        assert run(["smul", "--keys", str(keys), "--in", str(a),
                    "--scalar", "1.05", "--out", str(scaled)]) == 0
        capsys.readouterr()
        assert run(["decrypt", "--keys", str(keys), "--in", str(scaled)]) == 0
        assert capsys.readouterr().out == "10500\n"

        # unsupported operations fail closed with the frozen diagnostics
        out = tmp_path / "never.json"
        capsys.readouterr()
        assert run(["mul", "--keys", str(keys), "--left", str(a),
                    "--right", str(b), "--out", str(out)]) == 3
        assert ("Paillier is not homomorphic with respect to the multiplication"
                in capsys.readouterr().err)
        assert run(["xor", "--keys", str(keys), "--left", str(a),
                    "--right", str(b), "--out", str(out)]) == 3
        assert ("Paillier is not homomorphic with respect to the exclusive or"
                in capsys.readouterr().err)
        assert not out.exists()


def test_criterion_4_capability_matrix(toy_keys):
    with criterion(4, "all 50 capability cells"):
        rng = RandomSource(404)
        cells = 0
        for name, (can_mul, can_add, can_scalar, can_xor, can_regen) in (
            EXPECTED_MATRIX.items()
        ):
            keys = toy_keys[name]
            scheme = scheme_for(keys)
            sample = scheme.encrypt(2, rng)

            def denied(operation, call):
                with pytest.raises(ValueError) as excinfo:
                    call()
                assert str(excinfo.value) == expected_denial(name, operation)

            if can_mul:
                c = scheme.mul(scheme.encrypt(3, rng), scheme.encrypt(5, rng))
                assert scheme.decrypt(c) == 15
            else:
                denied("mul", lambda: scheme.mul(sample, sample))
            cells += 1

            if can_add:
                c = scheme.add(scheme.encrypt(3, rng), scheme.encrypt(4, rng))
                assert scheme.decrypt(c) == 7
            else:
                denied("add", lambda: scheme.add(sample, sample))
            cells += 1

            if can_scalar:
                assert scheme.decrypt(scheme.scalar(scheme.encrypt(2, rng), 3)) == 6
            else:
                denied("scalar", lambda: scheme.scalar(sample, 3))
            cells += 1

            if can_xor:
                c = scheme.xor(scheme.encrypt(0b101, rng), scheme.encrypt(0b110, rng))
                assert scheme.decrypt(c) == 0b011
            else:
                denied("xor", lambda: scheme.xor(sample, sample))
            cells += 1

            if can_regen:
                fresh = scheme.regenerate(sample, rng)
                assert fresh != sample
                assert scheme.decrypt(fresh) == 2
            else:
                denied("regen", lambda: scheme.regenerate(sample, rng))
            cells += 1
        assert cells == 50


def test_criterion_5_regeneration(prod_keys):
    with criterion(5, "regeneration: fresh payloads, unchanged plaintext"):
        assert len(REGENERATING) == 6
        rng = RandomSource(505)
        for name in REGENERATING:
            scheme = scheme_for(prod_keys[name])
            c = scheme.encrypt(7, rng)
            seen = {c if not isinstance(c, list) else tuple(c)}
            for _ in range(100):
                c = scheme.regenerate(c, rng)
                key = c if not isinstance(c, list) else tuple(c)
                assert key not in seen, name  # no payload ever repeats
                seen.add(key)
                assert scheme.decrypt(c) == 7, name
            assert len(seen) == 101


def test_criterion_6_oracle_fixtures():
    with criterion(6, "hand-verified toy vectors"):
        rsa = KeyPair("rsa", 12, {"n": 3233, "e": 17}, {"p": 61, "q": 53, "d": 413})
        assert scheme_for(rsa).encrypt(65, RandomSource()) == 2790
        assert scheme_for(rsa).decrypt(2790) == 65

        elgamal = KeyPair("elgamal", 5, {"p": 23, "g": 5, "h": 8}, {"x": 6})
        assert scheme_for(elgamal).encrypt(10, FixedRandom(3)) == (10, 14)
        assert scheme_for(elgamal).decrypt((10, 14)) == 10

        paillier = KeyPair("paillier", 4, {"n": 15, "g": 16}, {"p": 3, "q": 5})
        assert scheme_for(paillier).encrypt(7, FixedRandom(2)) == 83
        assert scheme_for(paillier).decrypt(83) == 7

        gm = KeyPair("goldwasser-micali", 7, {"n": 77, "x": 6}, {"p": 7, "q": 11})
        assert scheme_for(gm).encrypt(1, FixedRandom(2)) == [24]
        assert scheme_for(gm).decrypt([24]) == 1

        curve = get_curve("toy17")
        assert scalar_mul(2, curve.g, curve) == CurvePoint(6, 3)
        assert scalar_mul(3, curve.g, curve) == CurvePoint(10, 6)
        assert scalar_mul(19, curve.g, curve).is_identity


def test_criterion_7_scalar_law(prod_keys):
    with criterion(7, "scalar law with integer and rational constants"):
        rng = RandomSource(707)
        assert len(SCALAR_CAPABLE) == 7
        for name in SCALAR_CAPABLE:
            keys = prod_keys[name]
            scheme = scheme_for(keys)
            m_top = min(1 << 10, scheme.plaintext_bound())
            modulus = {"benaloh": keys.public.get("r"),
                       "naccache-stern": keys.public.get("sigma")}.get(name)
            for _ in range(100):
                k = rng.randrange(0, 1 << 10)
                m = rng.randrange(0, m_top)
                got = scheme.decrypt(scheme.scalar(scheme.encrypt(m, rng), k))
                expected = k * m % modulus if modulus else k * m
                assert got == expected, name

            # rational constants ride as a cleartext denominator
            phe = PHE(keys=keys, rng=rng)
            if name == "benaloh":  # 21 * 12 = 252 stays inside the 257 block
                c = phe.scalar("1.05", phe.encrypt(12))
                assert phe.decrypt(c, rational=True) == Fraction(63, 5)
            else:
                c = phe.scalar("1.05", phe.encrypt(10000))
                assert phe.decrypt(c) == 10500


def test_criterion_8_bench_harness(tmp_path):
    with criterion(8, "bench at level 80: 8 measured rows + 2 skips, < 10 min"):
        start = time.monotonic()
        records = run_bench(
            BenchPlan(levels=(80,), repetitions=5), RandomSource(808)
        )
        assert time.monotonic() - start < 600
        text = emit_csv(records)
        assert emit_csv(parse_csv(text)) == text  # parseable and stable
        assert len(parse_csv(text)) == len(records) == 34

        skips = [r for r in records if r.operation == "skip"]
        assert {r.algorithm for r in skips} == {"benaloh", "naccache-stern"}
        assert len(skips) == 2
        for operation in ("keygen", "encrypt", "decrypt", "homop"):
            rows = [r for r in records if r.operation == operation]
            assert len(rows) == 8
            assert all(r.repetitions == 5 and r.mean_seconds > 0 for r in rows)

        keygen_means = {
            r.algorithm: r.mean_seconds for r in records if r.operation == "keygen"
        }
        assert keygen_means["ec-elgamal"] < keygen_means["rsa"]


def test_criterion_9_nist_mapping():
    with criterion(9, "security levels select the exact key sizes"):
        assert LEVEL_TO_MODULUS_BITS == {80: 1024, 112: 2048, 128: 3072, 192: 7680}
        assert LEVEL_TO_CURVE_BITS == {80: 160, 112: 224, 128: 256, 192: 384}
        rng = RandomSource(909)
        for level, bits in LEVEL_TO_CURVE_BITS.items():
            keys = generate_keys("ec-elgamal", bits, rng=rng)
            curve = get_curve(keys.params["curve"])
            assert keys.params["curve"] == CURVE_BY_ECC_BITS[bits]
            assert curve.p.bit_length() == bits
