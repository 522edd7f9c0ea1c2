"""Shared fixtures plus the acceptance-criteria summary hook.

The acceptance tests register one (label, passed) entry per criterion; the
terminal-summary hook prints a single line for each so the final report is
visible in any pytest run regardless of output capturing.
"""

import sys
from contextlib import contextmanager

import pytest

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(
            f"criterion {number}: {label}: {'PASS' if ok else 'FAIL'}"
        )
