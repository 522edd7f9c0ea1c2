"""Shared fixtures plus the acceptance-criteria summary hook.

The acceptance tests register one (label, passed) entry per criterion; the
terminal-summary hook prints a single line for each so the final report is
visible in any pytest run regardless of output capturing.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import phekit
from phekit import RandomSource

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}

# Independent frozen copy of the capability matrix and display names; kept
# separate from the package's own table so the tests are a real cross-check.
# Tuple order: (mul, add, scalar, xor, regen).
EXPECTED_MATRIX = {
    "rsa": (True, False, False, False, False),
    "goldwasser-micali": (False, False, False, True, False),
    "elgamal": (True, False, False, False, False),
    "exp-elgamal": (False, True, True, False, True),
    "benaloh": (False, True, True, False, True),
    "ec-elgamal": (False, True, True, False, False),
    "naccache-stern": (False, True, True, False, True),
    "okamoto-uchiyama": (False, True, True, False, True),
    "paillier": (False, True, True, False, True),
    "damgard-jurik": (False, True, True, False, True),
}

DISPLAY = {
    "rsa": "RSA",
    "goldwasser-micali": "Goldwasser-Micali",
    "elgamal": "ElGamal",
    "exp-elgamal": "Exponential-ElGamal",
    "benaloh": "Benaloh",
    "ec-elgamal": "EllipticCurve-ElGamal",
    "naccache-stern": "Naccache-Stern",
    "okamoto-uchiyama": "Okamoto-Uchiyama",
    "paillier": "Paillier",
    "damgard-jurik": "Damgard-Jurik",
}


def expected_denial(algorithm: str, operation: str) -> str:
    """The exact message a denied capability must carry."""
    name = DISPLAY[algorithm]
    phrases = {
        "mul": "the multiplication",
        "add": "the addition",
        "xor": "the exclusive or",
    }
    if operation in phrases:
        return f"{name} is not homomorphic with respect to {phrases[operation]}"
    if operation == "scalar":
        return f"{name} does not support scalar multiplication"
    return f"{name} does not support ciphertext regeneration"


PRIMES_BELOW_1000 = [d for d in range(2, 1000) if all(d % e for e in range(2, d))]


def forty_round_miller_rabin(n: int) -> bool:
    """The primality oracle: division by the primes below 1000, then 40
    Miller-Rabin rounds to bases drawn from a generator seeded with n. It
    shares no code with `is_probable_prime`."""
    if n < 2:
        return False
    for p in PRIMES_BELOW_1000:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    bases = random.Random(n)
    for _ in range(40):
        x = pow(bases.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS[number] = (label, False)
        raise
    ACCEPTANCE_RESULTS[number] = (label, True)


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(0xC0FFEE)


@pytest.fixture
def int_digit_limit():
    """`sys.set_int_max_str_digits` for one test; the limit is restored after."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def run_isolated(code: str, stdin: str = "") -> str:
    """Run `code` under `python -S`, so no site hook loads a module first,
    with this phekit on the path; `stdin` is its input, and its output is
    returned."""
    src = str(Path(phekit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-S", "-c", code], input=stdin,
                          stdout=subprocess.PIPE, text=True, check=True, env=env).stdout


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(
            f"criterion {number}: {label}: {'PASS' if ok else 'FAIL'}"
        )
