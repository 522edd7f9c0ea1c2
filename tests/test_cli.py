import importlib.util
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import phekit
from conftest import TOY_KEYGEN, expected_denial, run_isolated
from phekit import RandomSource, parse_key, serialize_key
from phekit.cli import TEST_SEED_ENV, run
from phekit.schemes import SCHEME_CLASSES, KeyPair, generate_keys
from phekit.frozen import to_decimal
from phekit.serialization import MAX_DIGITS


@pytest.fixture(autouse=True)
def seeded_env(monkeypatch):
    monkeypatch.setenv(TEST_SEED_ENV, "31337")


@pytest.fixture
def paillier_keys(tmp_path):
    path = tmp_path / "paillier.json"
    public = tmp_path / "paillier.pub.json"
    code = run([
        "keygen", "--algorithm", "paillier", "--key-size", "128",
        "--out", str(path), "--public-out", str(public),
    ])
    assert code == 0
    return path, public


def test_keygen_encrypt_decrypt_roundtrip(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    c = tmp_path / "c.json"
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "17",
                "--out", str(c)]) == 0
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 0
    assert capsys.readouterr().out == "17\n"


def test_homomorphic_add_flow(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    a, b, out = (tmp_path / name for name in ("a.json", "b.json", "sum.json"))
    run(["encrypt", "--keys", str(keys), "--plaintext", "10000", "--out", str(a)])
    run(["encrypt", "--keys", str(keys), "--plaintext", "500", "--out", str(b)])
    assert run(["add", "--keys", str(keys), "--left", str(a),
                "--right", str(b), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(out)]) == 0
    assert capsys.readouterr().out == "10500\n"


def test_fractional_scalar_flow(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    c, out = tmp_path / "c.json", tmp_path / "scaled.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "10000", "--out", str(c)])
    assert run(["smul", "--keys", str(keys), "--in", str(c),
                "--scalar", "1.05", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scale_denominator"] == "20"
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(out)]) == 0
    assert capsys.readouterr().out == "10500\n"


def test_rational_decryption(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    c, out = tmp_path / "c.json", tmp_path / "scaled.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "5", "--out", str(c)])
    run(["smul", "--keys", str(keys), "--in", str(c), "--scalar", "1/2",
         "--out", str(out)])
    capsys.readouterr()
    # non-integer result: plain decrypt refuses, --rational prints p/q
    assert run(["decrypt", "--keys", str(keys), "--in", str(out)]) == 4
    assert "rational" in capsys.readouterr().err
    assert run(["decrypt", "--keys", str(keys), "--in", str(out),
                "--rational"]) == 0
    assert capsys.readouterr().out == "5/2\n"


def test_capability_violations_exit_3(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    a, b, out = (tmp_path / name for name in ("a.json", "b.json", "prod.json"))
    run(["encrypt", "--keys", str(keys), "--plaintext", "3", "--out", str(a)])
    run(["encrypt", "--keys", str(keys), "--plaintext", "4", "--out", str(b)])
    capsys.readouterr()
    assert run(["mul", "--keys", str(keys), "--left", str(a),
                "--right", str(b), "--out", str(out)]) == 3
    assert expected_denial("paillier", "mul") in capsys.readouterr().err

    rsa = tmp_path / "rsa.json"
    run(["keygen", "--algorithm", "rsa", "--key-size", "128", "--out", str(rsa)])
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    run(["encrypt", "--keys", str(rsa), "--plaintext", "6", "--out", str(ra)])
    run(["encrypt", "--keys", str(rsa), "--plaintext", "7", "--out", str(rb)])
    capsys.readouterr()
    assert run(["add", "--keys", str(rsa), "--left", str(ra),
                "--right", str(rb), "--out", str(out)]) == 3
    assert expected_denial("rsa", "add") in capsys.readouterr().err


def test_capabilities_lines(capsys):
    assert run(["capabilities", "--algorithm", "paillier"]) == 0
    line = capsys.readouterr().out
    assert line == "paillier: mul=no add=yes scalar=yes xor=no regen=yes\n"
    assert run(["capabilities", "--algorithm", "rsa"]) == 0
    assert capsys.readouterr().out == (
        "rsa: mul=yes add=no scalar=no xor=no regen=no\n"
    )
    assert run(["capabilities", "--algorithm", "ec-elgamal"]) == 0
    assert capsys.readouterr().out == (
        "ec-elgamal: mul=no add=yes scalar=yes xor=no regen=no\n"
    )


def test_regen_flow(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    c, fresh = tmp_path / "c.json", tmp_path / "fresh.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "7", "--out", str(c)])
    assert run(["regen", "--keys", str(keys), "--in", str(c),
                "--out", str(fresh)]) == 0
    assert c.read_text() != fresh.read_text()
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(fresh)]) == 0
    assert capsys.readouterr().out == "7\n"


def test_regen_rejected_for_rsa(tmp_path, capsys):
    rsa = tmp_path / "rsa.json"
    run(["keygen", "--algorithm", "rsa", "--key-size", "128", "--out", str(rsa)])
    c = tmp_path / "c.json"
    run(["encrypt", "--keys", str(rsa), "--plaintext", "5", "--out", str(c)])
    capsys.readouterr()
    assert run(["regen", "--keys", str(rsa), "--in", str(c),
                "--out", str(tmp_path / "f.json")]) == 3
    assert expected_denial("rsa", "regen") in capsys.readouterr().err


def test_regen_denial_comes_before_the_payload_check(tmp_path, capsys):
    """RSA has no regeneration: even a payload no RSA key produces gets the
    frozen denial (exit 3), not a payload error (exit 4)."""
    rsa, c = tmp_path / "rsa.json", tmp_path / "c.json"
    run(["keygen", "--algorithm", "rsa", "--key-size", "128", "--out", str(rsa)])
    run(["encrypt", "--keys", str(rsa), "--plaintext", "5", "--out", str(c)])
    doc = json.loads(c.read_text())
    doc["payload"]["data"] = str(parse_key(rsa.read_text()).public["n"] + 1)
    c.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "f.json"
    assert run(["regen", "--keys", str(rsa), "--in", str(c), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {expected_denial('rsa', 'regen')}"
    assert not out.exists()


def test_regen_rejects_a_foreign_key_pair(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    other = tmp_path / "other.json"
    run(["keygen", "--algorithm", "paillier", "--key-size", "64", "--out", str(other)])
    c, fresh = tmp_path / "c.json", tmp_path / "fresh.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "7", "--out", str(c)])
    capsys.readouterr()
    assert run(["regen", "--keys", str(other), "--in", str(c),
                "--out", str(fresh)]) == 4
    assert ("ciphertext was produced under a different key pair"
            in capsys.readouterr().err)
    assert not fresh.exists()


def test_key_without_its_params_exits_4(tmp_path, capsys):
    dj = tmp_path / "dj.json"
    run(["keygen", "--algorithm", "damgard-jurik", "--key-size", "64",
         "--out", str(dj)])
    doc = json.loads(dj.read_text())
    del doc["params"]["s"]
    dj.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(dj), "--plaintext", "3",
                "--out", str(tmp_path / "c.json")]) == 4
    assert "params.s" in capsys.readouterr().err


def test_paillier_key_with_an_s_exits_4(tmp_path, paillier_keys, capsys):
    """Paillier is Damgard-Jurik at s = 1 and its key files carry no s."""
    for path in paillier_keys:
        doc = json.loads(path.read_text())
        doc["params"]["s"] = "7"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["encrypt", "--keys", str(path), "--plaintext", "3",
                    "--out", str(tmp_path / "c.json")]) == 4
        assert "params.s" in capsys.readouterr().err


@pytest.mark.parametrize("s, private, code", [
    (2, True, 0), (3, True, 4), (0, True, 4), (3, False, 0), (0, False, 4)])
def test_damgard_jurik_s_outside_its_domain_exits_4(tmp_path, capsys, s, private, code):
    """Damgard and Jurik define the scheme for 1 <= s < p, q: with p = 3, a
    private key with s = 3 is refused where the key file is read, naming the
    field, and so is s = 0 on any key."""
    keys, out = tmp_path / "dj.json", tmp_path / "c.json"
    pair = KeyPair("damgard-jurik", 4, {"n": 15, "g": 16}, {"p": 3, "q": 5}, {"s": s})
    keys.write_text(serialize_key(pair if private else pair.public_only()))
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "0",
                "--out", str(out)]) == code
    assert ("params.s" in capsys.readouterr().err) == (code == 4)
    assert out.exists() == (code == 0)


def test_key_whose_factors_miss_the_modulus_exits_4(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    doc = json.loads(keys.read_text())
    doc["private"]["q"] = str(int(doc["private"]["q"]) + 2)
    keys.write_text(json.dumps(doc))
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "3",
                "--out", str(out)]) == 4
    assert "'private'" in capsys.readouterr().err
    assert not out.exists()


def test_key_whose_factors_share_a_factor_exits_4(tmp_path, capsys):
    """15 * 21 = 315: without gcd(p, q) = 1 the CRT inverse the key's
    scheme builds does not exist, so the file is refused where it is read."""
    keys, out = tmp_path / "rsa.json", tmp_path / "c.json"
    pair = KeyPair("rsa", 9, {"n": 315, "e": 3}, {"p": 15, "q": 21, "d": 47})
    keys.write_text(serialize_key(pair))
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "2",
                "--out", str(out)]) == 4
    assert "'private'" in capsys.readouterr().err
    assert not out.exists()


def _refused_as_private(tmp_path, capsys, pair: KeyPair) -> None:
    keys, out = tmp_path / "keys.json", tmp_path / "c.json"
    keys.write_text(serialize_key(pair))
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "2",
                "--out", str(out)]) == 4
    assert "'private': p and q must be primes" in capsys.readouterr().err
    assert not out.exists()


def test_an_rsa_key_with_coprime_composite_factors_exits_4(tmp_path, capsys):
    """15 and 77 are coprime and factor 1155, and e*d = 3 * 355 = 1 modulo
    lcm(14, 76): the file once parsed, and 186 of the plaintexts 2..199
    decrypted wrong."""
    pair = KeyPair("rsa", 11, {"n": 1155, "e": 3}, {"p": 15, "q": 77, "d": 355})
    _refused_as_private(tmp_path, capsys, pair)


# a strong base-2 pseudoprime past 2^32 (149491 * 747451 * 34233211), so
# trial division and the base-2 test both pass it and the Lucas test decides;
# beside it the Mersenne prime 2^61 - 1
PSEUDOPRIME, PRIME = 3825123056546413051, 2**61 - 1


@pytest.mark.parametrize(
    "algorithm", sorted(a for a, cls in SCHEME_CLASSES.items() if cls.n_exponents))
def test_a_key_whose_factor_is_a_strong_pseudoprime_exits_4(tmp_path, capsys, algorithm):
    """Every factoring scheme: a key file whose p passes trial division and
    the base-2 test but is composite is refused where it is read."""
    bits, params = TOY_KEYGEN[algorithm]
    pair = generate_keys(algorithm, bits, params, RandomSource(1))
    a, b = SCHEME_CLASSES[algorithm].n_exponents
    public = dict(pair.public, n=PSEUDOPRIME**a * PRIME**b)
    # the two public checks that run before the factors': RSA's odd e below
    # n, and Goldwasser-Micali's x of Jacobi symbol +1 modulo n
    public.update({"rsa": {"e": 3}, "goldwasser-micali": {"x": 4}}.get(algorithm, {}))
    private = dict(pair.private, p=PSEUDOPRIME, q=PRIME)
    _refused_as_private(tmp_path, capsys, pair.replace(public=public, private=private))


def test_ec_key_off_its_curve_exits_4(tmp_path, capsys):
    keys = tmp_path / "ec.json"
    assert run(["keygen", "--algorithm", "ec-elgamal", "--curve", "secp160r1",
                "--out", str(keys)]) == 0
    doc = json.loads(keys.read_text())
    doc["public"]["qy"] = str(int(doc["public"]["qy"]) + 1)
    keys.write_text(json.dumps(doc))
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "3",
                "--out", str(out)]) == 4
    assert "'public'" in capsys.readouterr().err
    assert not out.exists()


def test_ec_scalar_zero_writes_a_null_c1_that_decrypts_to_0(tmp_path, capsys):
    """0 * (c1, c2) is the identity pair, written as nulls: a ciphertext with
    nonce 0 that phekit itself writes, so reading it back is no refusal."""
    keys, c, zero = tmp_path / "ec.json", tmp_path / "c.json", tmp_path / "z.json"
    assert run(["keygen", "--algorithm", "ec-elgamal", "--curve", "secp160r1",
                "--out", str(keys)]) == 0
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "7", "--out", str(c)]) == 0
    assert run(["smul", "--keys", str(keys), "--in", str(c), "--scalar", "0",
                "--out", str(zero)]) == 0
    assert json.loads(zero.read_text())["payload"]["data"] == [None, None]
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(zero)]) == 0
    assert capsys.readouterr().out == "0\n"


def test_public_key_encrypts_but_cannot_decrypt(tmp_path, paillier_keys, capsys):
    keys, public = paillier_keys
    assert not parse_key(public.read_text()).has_private
    c = tmp_path / "c.json"
    assert run(["encrypt", "--keys", str(public), "--plaintext", "9",
                "--out", str(c)]) == 0
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(public), "--in", str(c)]) == 4
    assert "private" in capsys.readouterr().err
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 0
    assert capsys.readouterr().out == "9\n"


def test_xor_flow(tmp_path, capsys):
    gm = tmp_path / "gm.json"
    run(["keygen", "--algorithm", "goldwasser-micali", "--key-size", "48",
         "--out", str(gm)])
    a, b, out = (tmp_path / name for name in ("a.json", "b.json", "x.json"))
    run(["encrypt", "--keys", str(gm), "--plaintext", "12", "--out", str(a)])
    run(["encrypt", "--keys", str(gm), "--plaintext", "10", "--out", str(b)])
    assert run(["xor", "--keys", str(gm), "--left", str(a), "--right", str(b),
                "--out", str(out)]) == 0
    capsys.readouterr()
    run(["decrypt", "--keys", str(gm), "--in", str(out)])
    assert capsys.readouterr().out == "6\n"
    # 5 needs one more bit than 12: widths no longer agree
    run(["encrypt", "--keys", str(gm), "--plaintext", "5", "--out", str(b)])
    capsys.readouterr()
    assert run(["xor", "--keys", str(gm), "--left", str(a), "--right", str(b),
                "--out", str(out)]) == 4
    assert "width" in capsys.readouterr().err


def test_curve_keygen_without_key_size(tmp_path):
    out = tmp_path / "ec.json"
    assert run(["keygen", "--algorithm", "ec-elgamal", "--curve", "toy17",
                "--out", str(out)]) == 0
    keys = parse_key(out.read_text())
    assert keys.params["curve"] == "toy17"


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["keygen", "--algorithm", "paillier", "--out", str(tmp_path / "k")])
    assert excinfo.value.code == 2  # no --key-size and no --curve
    with pytest.raises(SystemExit) as excinfo:
        run(["keygen", "--algorithm", "rot13", "--key-size", "64",
             "--out", str(tmp_path / "k")])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run(["decrypt", "--keys", "k.json"])  # missing --in
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run(["bench", "--levels", "80,abc", "--out", str(tmp_path / "b.csv")])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        run([])


def test_bad_plaintext_exits_2(tmp_path, paillier_keys):
    keys, _ = paillier_keys
    with pytest.raises(SystemExit) as excinfo:
        run(["encrypt", "--keys", str(keys), "--plaintext", "twelve",
             "--out", str(tmp_path / "c.json")])
    assert excinfo.value.code == 2


def test_missing_and_corrupt_files_exit_4(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    assert run(["decrypt", "--keys", str(keys),
                "--in", str(tmp_path / "nope.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{corrupt")
    assert run(["decrypt", "--keys", str(keys), "--in", str(bad)]) == 4
    assert "error:" in capsys.readouterr().err


def test_out_of_range_plaintext_exits_4(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    huge = str(1 << 200)
    assert run(["encrypt", "--keys", str(keys), "--plaintext", huge,
                "--out", str(tmp_path / "c.json")]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX permission bits")
def test_keygen_writes_the_private_key_owner_only(tmp_path):
    """Under umask 022 the private key file is 0600, also when it already
    existed at 0644, with the bytes of a fresh file; the public key and
    ciphertext files keep the umask's 0644."""
    private, public, c = (tmp_path / name for name in ("k.json", "k.pub.json", "c.json"))
    keygen = ["keygen", "--algorithm", "paillier", "--key-size", "64",
              "--out", str(private), "--public-out", str(public)]
    old = os.umask(0o022)
    try:
        assert run(keygen) == 0
        fresh = private.read_bytes()
        assert run(["encrypt", "--keys", str(public), "--plaintext", "5",
                    "--out", str(c)]) == 0
        assert {path.name: stat.S_IMODE(path.stat().st_mode)
                for path in (private, public, c)} == {
            "k.json": 0o600, "k.pub.json": 0o644, "c.json": 0o644}
        private.write_text("a longer stale file " * 200)
        private.chmod(0o644)
        assert run(keygen) == 0
        assert stat.S_IMODE(private.stat().st_mode) == 0o600
        assert private.read_bytes() == fresh
    finally:
        os.umask(old)


def test_seeded_runs_are_byte_stable(tmp_path, capsys):
    k1, k2 = tmp_path / "k1.json", tmp_path / "k2.json"
    run(["keygen", "--algorithm", "paillier", "--key-size", "128", "--out", str(k1)])
    warning = capsys.readouterr().err
    assert TEST_SEED_ENV in warning  # loud reminder that keys are deterministic
    run(["keygen", "--algorithm", "paillier", "--key-size", "128", "--out", str(k2)])
    assert k1.read_bytes() == k2.read_bytes()
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    run(["encrypt", "--keys", str(k1), "--plaintext", "41", "--out", str(c1)])
    run(["encrypt", "--keys", str(k1), "--plaintext", "41", "--out", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()


@pytest.mark.parametrize("seed", ["abc", "", "1.5", "0x10"])
def test_a_malformed_test_seed_exits_2_and_writes_nothing(tmp_path, paillier_keys,
                                                         monkeypatch, seed):
    """A seed that is no decimal integer is a usage error that names the
    variable: exit 2, no traceback, no file written."""
    keys, _ = paillier_keys
    out = tmp_path / "k.json"
    env = dict(os.environ, PYTHONPATH=str(Path(phekit.__file__).parents[1]))
    env[TEST_SEED_ENV] = seed
    proc = subprocess.run(
        [sys.executable, "-m", "phekit", "keygen", "--algorithm", "paillier",
         "--key-size", "64", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert TEST_SEED_ENV in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
    monkeypatch.setenv(TEST_SEED_ENV, seed)
    with pytest.raises(SystemExit) as excinfo:
        run(["encrypt", "--keys", str(keys), "--plaintext", "7", "--out", str(out)])
    assert excinfo.value.code == 2
    assert not out.exists()


def test_unseeded_runs_differ(tmp_path, monkeypatch):
    monkeypatch.delenv(TEST_SEED_ENV)
    k = tmp_path / "k.json"
    run(["keygen", "--algorithm", "paillier", "--key-size", "128", "--out", str(k)])
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    run(["encrypt", "--keys", str(k), "--plaintext", "41", "--out", str(c1)])
    run(["encrypt", "--keys", str(k), "--plaintext", "41", "--out", str(c2)])
    assert c1.read_bytes() != c2.read_bytes()


def test_bench_toy_run(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    svg_dir = tmp_path / "charts"
    code = run([
        "bench", "--levels", "80", "--algorithms", "rsa,paillier,goldwasser-micali",
        "--repetitions", "1", "--out", str(out), "--svg-dir", str(svg_dir),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,level,key_size,operation,repetitions,mean_seconds"
    assert len(lines) == 1 + 3 * 4  # three algorithms, four operations
    for operation in ("keygen", "encrypt", "decrypt", "homop"):
        svg = (svg_dir / f"radar_{operation}.svg").read_text()
        assert svg.startswith("<svg")
    err = capsys.readouterr().err
    assert "wrote" in err


def test_importing_the_cli_leaves_the_bench_harness_out():
    code = "import sys, phekit.cli\nassert 'phekit.bench' not in sys.modules\n"
    subprocess.run([sys.executable, "-c", code], check=True)


# what `import phekit.cli` must not load: `dataclasses` brings in `inspect`,
# `ast`, `dis` and `tokenize`; `fractions` brings in `decimal`
LEFT_OUT_OF_THE_CLI = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "phekit.bench",
)

# what no phekit import may load where the interpreter has its own SHA-256:
# `hashlib` loads OpenSSL's libcrypto through `_hashlib`
LEFT_OUT_OF_EVERY_IMPORT = ("hashlib", "_hashlib")


def test_importing_the_cli_loads_no_dataclasses_or_rationals():
    run_isolated(
        "import sys, phekit.cli\n"
        f"loaded = [m for m in {LEFT_OUT_OF_THE_CLI!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no SHA-256 of its own (_sha2 or _sha256), "
           "so phekit fingerprints keys through hashlib",
)
@pytest.mark.parametrize("module", ["phekit", "phekit.cli", "phekit.bench"])
def test_importing_phekit_loads_no_openssl_hashes(module):
    # `phekit.bench` is all that the sweep benchmark's set-up child imports
    run_isolated(
        f"import sys, {module}\n"
        f"loaded = [m for m in {LEFT_OUT_OF_EVERY_IMPORT!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_only_a_rational_result_imports_fractions():
    run_isolated(
        "import sys\n"
        "from phekit import PHE, RandomSource\n"
        "phe = PHE('paillier', 64, rng=RandomSource(1))\n"
        "c = phe.encrypt(5)\n"
        "assert phe.decrypt(c) == 5 and 'fractions' not in sys.modules\n"
        "assert phe.decrypt(c, rational=True) == 5\n"
        "assert 'fractions' in sys.modules\n"
    )


def test_an_empty_algorithm_list_is_refused_by_name(tmp_path, capsys):
    assert run(["bench", "--algorithms", ",", "--out", str(tmp_path / "b.csv")]) == 4
    assert "algorithms must be a non-empty subset of {rsa, " in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_ciphertext_with_a_malformed_fingerprint_exits_4(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    c = tmp_path / "c.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "5", "--out", str(c)])
    doc = json.loads(c.read_text())
    doc["key_fingerprint"] = doc["key_fingerprint"].upper()
    c.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 4
    assert "field 'key_fingerprint': expected 64 lowercase hex digits" in capsys.readouterr().err


def test_ciphertext_that_no_key_pair_produces_exits_4(tmp_path, paillier_keys, capsys):
    keys, public = paillier_keys
    c = tmp_path / "c.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "5", "--out", str(c)])
    doc = json.loads(c.read_text())
    doc["payload"]["data"] = "0"
    c.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 4
    assert "not a ciphertext" in capsys.readouterr().err
    out = tmp_path / "out.json"
    for argv in (["add", "--left", str(c), "--right", str(c)],
                 ["smul", "--in", str(c), "--scalar", "2"],
                 ["regen", "--in", str(c)]):
        assert run([argv[0], "--keys", str(public), *argv[1:], "--out", str(out)]) == 4
        assert not out.exists()


def test_exp_elgamal_ciphertext_with_c2_zero_exits_4(tmp_path, capsys):
    """c2 = g^m * h^r is a unit: a file with c2 = 0 is refused where it is
    read, not decrypted into a discrete-log bound error."""
    keys, c = tmp_path / "keys.json", tmp_path / "c.json"
    run(["keygen", "--algorithm", "exp-elgamal", "--key-size", "64", "--out", str(keys)])
    run(["encrypt", "--keys", str(keys), "--plaintext", "5", "--out", str(c)])
    doc = json.loads(c.read_text())
    doc["payload"]["data"][1] = "0"
    c.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 4
    assert "not a ciphertext" in capsys.readouterr().err
    out = tmp_path / "sum.json"
    assert run(["add", "--keys", str(keys), "--left", str(c), "--right", str(c),
                "--out", str(out)]) == 4
    assert "not a ciphertext" in capsys.readouterr().err
    assert not out.exists()


def test_elgamal_key_with_p_1_exits_4(tmp_path, capsys):
    keys = tmp_path / "elgamal.json"
    run(["keygen", "--algorithm", "elgamal", "--key-size", "64", "--out", str(keys)])
    doc = json.loads(keys.read_text())
    doc["public"]["p"] = "1"
    keys.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "0",
                "--out", str(tmp_path / "c.json")]) == 4
    assert "public.p" in capsys.readouterr().err


def test_key_with_a_non_ascii_digit_exits_4(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    doc = json.loads(keys.read_text())
    doc["public"]["g"] = "²"
    keys.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "3",
                "--out", str(tmp_path / "c.json")]) == 4
    assert "public.g" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, field", [("rsa", "d"), ("elgamal", "x"),
                                              ("ec-elgamal", "x")])
def test_key_whose_private_half_does_not_match_exits_4(tmp_path, capsys,
                                                       algorithm, field):
    keys, c = tmp_path / "keys.json", tmp_path / "c.json"
    size = ["--curve", "secp160r1"] if algorithm == "ec-elgamal" else ["--key-size", "64"]
    run(["keygen", "--algorithm", algorithm, *size, "--out", str(keys)])
    run(["encrypt", "--keys", str(keys), "--plaintext", "42", "--out", str(c)])
    doc = json.loads(keys.read_text())
    doc["private"][field] = "0" if field == "d" else str(int(doc["private"][field]) + 1)
    keys.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'private'" in captured.err


def test_damgard_jurik_documents_are_the_same_under_any_digit_limit(tmp_path, capsys,
                                                                   int_digit_limit):
    """A 1024-bit key at s = 13 is admitted, and its ciphertexts modulo n^14
    have up to 4316 digits, past the default limit of 4300: every command
    reads and writes them, with the same bytes under the default limit, with
    none (0) and under 640. The private key file encrypts, as a public
    s = 13 encryption takes seconds."""
    names = ("dj.json", "a.json", "b.json", "sum.json", "scaled.json", "fresh.json")
    written = {}
    for limit in (sys.int_info.default_max_str_digits, 0, 640):
        int_digit_limit(limit)
        keys, a, b, total, scaled, fresh = (tmp_path / str(limit) / name for name in names)
        keys.parent.mkdir()
        for argv in (
                ["keygen", "--algorithm", "damgard-jurik", "--key-size", "1024", "--s", "13",
                 "--out", str(keys)],
                ["encrypt", "--keys", str(keys), "--plaintext", "123456789", "--out", str(a)],
                ["encrypt", "--keys", str(keys), "--plaintext", "5", "--out", str(b)],
                ["add", "--keys", str(keys), "--left", str(a), "--right", str(b),
                 "--out", str(total)],
                ["smul", "--keys", str(keys), "--in", str(total), "--scalar", "3",
                 "--out", str(scaled)],
                ["regen", "--keys", str(keys), "--in", str(scaled), "--out", str(fresh)]):
            assert run(argv) == 0, argv
        capsys.readouterr()
        assert run(["decrypt", "--keys", str(keys), "--in", str(fresh)]) == 0
        assert capsys.readouterr().out == "370370382\n"
        written[limit] = [(keys.parent / name).read_bytes() for name in names]
    first, *others = written.values()
    assert all(files == first for files in others)
    assert max(len(json.loads(text)["payload"]["data"]) for text in first[1:]) > 4300


def test_plaintexts_past_the_digit_limit_print_and_read_as_with_none(tmp_path, capsys,
                                                                    int_digit_limit):
    """A 256-bit Damgard-Jurik key at s = 9 holds 7 * 10^660, 661 digits,
    past a limit of 640: `decrypt` and `decrypt --rational` print it, the
    inexact refusal names it by its bits, and `--plaintext` reads it, with
    the same exit codes and bytes under 640 as with the limit off."""
    seven = "7" + "0" * 660
    outputs = {}
    for limit in (0, 640):
        int_digit_limit(limit)
        keys, c, big, scaled, third, typed = (tmp_path / str(limit) / name for name in (
            "dj.json", "c.json", "big.json", "scaled.json", "third.json", "typed.json"))
        keys.parent.mkdir()
        for argv in (
                ["keygen", "--algorithm", "damgard-jurik", "--key-size", "256", "--s", "9",
                 "--out", str(keys)],
                ["encrypt", "--keys", str(keys), "--plaintext", "7", "--out", str(c)],
                ["smul", "--keys", str(keys), "--in", str(c), "--scalar", "1e600",
                 "--out", str(big)],
                ["smul", "--keys", str(keys), "--in", str(big), "--scalar", "1e60",
                 "--out", str(scaled)],
                ["smul", "--keys", str(keys), "--in", str(scaled), "--scalar", "1/3",
                 "--out", str(third)],
                ["encrypt", "--keys", str(keys), "--plaintext", seven, "--out", str(typed)]):
            assert run(argv) == 0, argv[:2]
        capsys.readouterr()
        outputs[limit] = []
        for path, flags in ((scaled, []), (scaled, ["--rational"]), (third, ["--rational"]),
                            (typed, []), (third, [])):
            code = run(["decrypt", "--keys", str(keys), "--in", str(path), *flags])
            captured = capsys.readouterr()
            outputs[limit].append((code, captured.out, captured.err))
    assert outputs[0] == outputs[640]
    bits = (7 * 10**660).bit_length()
    assert outputs[640] == [
        (0, f"{seven}\n", ""), (0, f"{seven}\n", ""), (0, f"{seven}/3\n", ""),
        (0, f"{seven}\n", ""),
        (4, "", f"error: scaled value a {bits}-bit integer/3 is not an integer; "
                "decrypt with rational=True\n"),
    ]


def test_a_plaintext_past_the_digit_limit_is_read_up_to_a_document_integer(
        tmp_path, paillier_keys, capsys, int_digit_limit):
    """Under a limit of 640, 700 digits are read and refused by the key's
    range (exit 4); more digits than a document integer holds, or a
    non-digit, is a usage error (exit 2) that quotes a bounded excerpt."""
    int_digit_limit(640)
    keys, _ = paillier_keys
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "1" * 700,
                "--out", str(out)]) == 4
    assert "out of range" in capsys.readouterr().err
    for text in ("1" * (MAX_DIGITS + 1), "1" * 700 + "x", "²" * 700):
        with pytest.raises(SystemExit) as excinfo:
            run(["encrypt", "--keys", str(keys), "--plaintext", text, "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--plaintext must be a decimal integer" in err
        assert f"({len(text) + 2} characters)" in err and len(err) < 400
    assert not out.exists()


def test_a_signed_or_padded_plaintext_exits_the_same_under_any_digit_limit(
        tmp_path, capsys, int_digit_limit):
    """`--plaintext` takes the surrounding whitespace and the one sign that
    int takes past a limit of 640 as with the limit off: a 256-bit
    Damgard-Jurik key at s = 9 holds 650 digits, and a negative plaintext
    is refused by the key's range."""
    ones = "1" * 650
    outcomes = {}
    for limit in (0, 640):
        int_digit_limit(limit)
        keys, out = tmp_path / str(limit) / "dj.json", tmp_path / str(limit) / "c.json"
        keys.parent.mkdir()
        assert run(["keygen", "--algorithm", "damgard-jurik", "--key-size", "256", "--s", "9",
                    "--out", str(keys)]) == 0
        capsys.readouterr()
        outcomes[limit] = []
        for text in ("+" + ones, f" {ones} ", f"\t-{ones}\n"):
            code = run(["encrypt", "--keys", str(keys), "--plaintext", text, "--out", str(out)])
            written = out.read_bytes() if out.exists() else None
            outcomes[limit].append((code, capsys.readouterr().err, written))
            out.unlink(missing_ok=True)
    assert outcomes[0] == outcomes[640]
    assert [code for code, _, _ in outcomes[640]] == [0, 0, 4]


def test_smul_scalar_reads_the_same_under_any_digit_limit(tmp_path, paillier_keys, capsys,
                                                          int_digit_limit):
    """"1e700" is five characters but a 701-digit numerator: it scales under
    a limit of 640 as with none, and "1e6936", a part past MAX_DIGITS
    digits, exits 4 under both; `decrypt --rational` prints the same. The
    outcomes are compared whole before any is read."""
    keys, _ = paillier_keys
    c, out = tmp_path / "c.json", tmp_path / "scaled.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "3", "--out", str(c)])
    outcomes = {}
    for limit in (640, 0):
        int_digit_limit(limit)
        capsys.readouterr()
        outcomes[limit] = []
        for scalar in ("1e700", "1e-700", "1e6936"):
            code = run(["smul", "--keys", str(keys), "--in", str(c), "--scalar", scalar,
                        "--out", str(out)])
            if out.exists():
                code = (code, run(["decrypt", "--keys", str(keys), "--in", str(out),
                                   "--rational"]), out.read_bytes())
                out.unlink()
            outcomes[limit].append((code, capsys.readouterr()))
    assert outcomes[640] == outcomes[0]
    (scaled, up), (_, down), (refused, error) = outcomes[0]
    n = parse_key(keys.read_text()).public["n"]  # 10^700 wraps modulo a 128-bit n
    assert scaled[:2] == (0, 0) and up.out == f"{3 * 10**700 % n}\n"
    assert down.out == "3/1" + "0" * 700 + "\n"
    assert refused == 4 and error.out == ""
    assert f"not a valid scalar: '1e6936' (a part past {MAX_DIGITS} digits" in error.err


def test_smul_past_the_scale_ceiling_exits_4(tmp_path, paillier_keys, capsys):
    """A second 1/2^20000 would leave a 40,001-bit scale, which no document
    holds: smul exits 4 and writes nothing."""
    keys, _ = paillier_keys
    c, once, twice = tmp_path / "c.json", tmp_path / "once.json", tmp_path / "twice.json"
    scalar = "1/" + to_decimal(1 << 20000)
    run(["encrypt", "--keys", str(keys), "--plaintext", "3", "--out", str(c)])
    assert run(["smul", "--keys", str(keys), "--in", str(c), "--scalar", scalar,
                "--out", str(once)]) == 0
    capsys.readouterr()
    assert run(["smul", "--keys", str(keys), "--in", str(once), "--scalar", scalar,
                "--out", str(twice)]) == 4
    assert capsys.readouterr().err == ("error: the scale would be a 40001-bit integer, "
                                       "past 23040 bits\n")
    assert not twice.exists()


def test_keygen_refuses_a_negative_key_size_with_exit_4(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["keygen", "--algorithm", "damgard-jurik", "--key-size", "-4",
                "--out", str(out)]) == 4
    assert capsys.readouterr().err.endswith("error: damgard-jurik key size must be an "
                                            "integer from 0 to 7680, got -4\n")
    assert not out.exists()


@pytest.mark.parametrize("size", ["7681", "100000000"])
def test_keygen_refuses_a_key_size_past_the_cap_at_once(tmp_path, capsys, size):
    """The key cap is checked before any draw: a 100-million-bit key would
    otherwise draw for as long as it is let."""
    out, public = tmp_path / "k.json", tmp_path / "k.pub.json"
    start = time.perf_counter()
    assert run(["keygen", "--algorithm", "exp-elgamal", "--key-size", size,
                "--out", str(out), "--public-out", str(public)]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.endswith(f"error: exp-elgamal key size must be an "
                                            f"integer from 0 to 7680, got {size}\n")
    assert not out.exists() and not public.exists()


@pytest.mark.parametrize("scalar", ["1 / 2", "1_000"])
def test_smul_reads_one_scalar_grammar_on_every_interpreter(tmp_path, paillier_keys, capsys,
                                                           scalar):
    """Python 3.10's Fraction grammar: no whitespace at the slash (3.12
    takes it) and no underscore (3.11 takes it)."""
    keys, _ = paillier_keys
    c, out = tmp_path / "c.json", tmp_path / "scaled.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "3", "--out", str(c)])
    capsys.readouterr()
    assert run(["smul", "--keys", str(keys), "--in", str(c), "--scalar", scalar,
                "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "not a valid scalar" in captured.err
    assert not out.exists()


def test_smul_long_scalar_is_cut_in_the_error(tmp_path, paillier_keys, capsys):
    keys, _ = paillier_keys
    c, out = tmp_path / "c.json", tmp_path / "scaled.json"
    run(["encrypt", "--keys", str(keys), "--plaintext", "3", "--out", str(c)])
    capsys.readouterr()
    for scalar in ("1e" + "9" * 5000, "1.5x" * 2000):
        assert run(["smul", "--keys", str(keys), "--in", str(c), "--scalar", scalar,
                    "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a valid scalar" in captured.err
        assert len(captured.err) < 200
        assert not out.exists()


def test_keygen_dlp_bound_bounds_the_plaintext(tmp_path, capsys):
    keys, c = tmp_path / "k.json", tmp_path / "c.json"
    assert run(["keygen", "--algorithm", "exp-elgamal", "--key-size", "64",
                "--dlp-bound", "1000", "--out", str(keys)]) == 0
    assert parse_key(keys.read_text()).params["dlp_bound"] == 1000
    for m in ("1000", "1001"):
        assert run(["encrypt", "--keys", str(keys), "--plaintext", m,
                    "--out", str(c)]) == 4
        assert not c.exists()
    assert run(["encrypt", "--keys", str(keys), "--plaintext", "999",
                "--out", str(c)]) == 0
    capsys.readouterr()
    assert run(["decrypt", "--keys", str(keys), "--in", str(c)]) == 0
    assert capsys.readouterr().out == "999\n"


# every integer the command line reads as text, in a command whose outcome
# the value decides: (value, key file, output file) -> argv, the seed being
# read from the environment
INTEGER_INPUTS = {
    "--key-size": lambda v, keys, out: ["keygen", "--algorithm", "exp-elgamal",
                                        "--key-size", v, "--out", out],
    "--s": lambda v, keys, out: ["keygen", "--algorithm", "damgard-jurik", "--key-size", "64",
                                 "--s", v, "--out", out],
    "--dlp-bound": lambda v, keys, out: ["keygen", "--algorithm", "exp-elgamal",
                                         "--key-size", "64", "--dlp-bound", v, "--out", out],
    "--repetitions": lambda v, keys, out: ["bench", "--algorithms", "none",
                                           "--repetitions", v, "--out", out],
    "--levels": lambda v, keys, out: ["bench", "--levels", v, "--algorithms", "rsa",
                                      "--out", out],
    "--plaintext": lambda v, keys, out: ["encrypt", "--keys", keys, "--plaintext", v,
                                         "--out", out],
    TEST_SEED_ENV: lambda v, keys, out: ["keygen", "--algorithm", "paillier",
                                         "--key-size", "64", "--out", out],
}

INTEGER_TEXTS = {
    "701 digits": "7" * 701,
    "an underscore": "1_024",
    "non-ASCII digits": "٣" * 700,
    "100,000 digits": "7" * 100_000,
}


@pytest.mark.parametrize("text", INTEGER_TEXTS.values(), ids=INTEGER_TEXTS)
@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_every_integer_input_reads_the_same_under_any_digit_limit(
        tmp_path, paillier_keys, capsys, monkeypatch, int_digit_limit, name, text):
    """One reader takes every integer of the command line: the same exit
    code, stderr and output under int/str digit limits 0, 640 and 4300.
    701 ASCII digits are read, and refused by the command (exit 4) or, as a
    seed, used (exit 0); an underscore or a non-ASCII digit is a usage error
    at any length, and so is a value past MAX_DIGITS digits, whose error
    quotes a bounded excerpt, and nothing is written."""
    keys, _ = paillier_keys
    out = tmp_path / "out"
    argv = INTEGER_INPUTS[name](text, str(keys), str(out))
    if name == TEST_SEED_ENV:
        monkeypatch.setenv(TEST_SEED_ENV, text)
    outcomes = []
    for limit in (0, 640, 4300):
        int_digit_limit(limit)
        capsys.readouterr()
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert outcomes[1:] == outcomes[:1] * 2
    code, err, written = outcomes[0]
    if text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS:
        assert code == (0 if name == TEST_SEED_ENV else 4)
    else:
        assert code == 2 and written is None
        assert f"{name} must be a decimal integer, got " in err and len(err) < 1000
