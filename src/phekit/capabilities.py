"""Which homomorphic operations each cryptosystem supports.

The table is the single authority consulted by the algebra layer, the CLI,
and the benchmark harness. Rows stay in canonical order everywhere output is
ordered (capability listings, benchmark CSV, chart axes).
"""

from __future__ import annotations

from .errors import CapabilityError
from .frozen import Frozen


class Capability(Frozen):
    """Operation support flags for one cryptosystem, in presentation order."""

    __slots__ = _compared = ("hom_mul", "hom_add", "scalar_mul", "hom_xor", "regeneration")

    def __init__(self, hom_mul: bool, hom_add: bool, scalar_mul: bool, hom_xor: bool,
                 regeneration: bool):
        self._set(hom_mul, hom_add, scalar_mul, hom_xor, regeneration)


# canonical algorithm identifier -> (display name, capability row), in fixed
# presentation order
_ROWS: dict[str, tuple[str, Capability]] = {
    "rsa": ("RSA", Capability(True, False, False, False, False)),
    "goldwasser-micali": ("Goldwasser-Micali", Capability(False, False, False, True, False)),
    "elgamal": ("ElGamal", Capability(True, False, False, False, False)),
    "exp-elgamal": ("Exponential-ElGamal", Capability(False, True, True, False, True)),
    "benaloh": ("Benaloh", Capability(False, True, True, False, True)),
    "ec-elgamal": ("EllipticCurve-ElGamal", Capability(False, True, True, False, False)),
    "naccache-stern": ("Naccache-Stern", Capability(False, True, True, False, True)),
    "okamoto-uchiyama": ("Okamoto-Uchiyama", Capability(False, True, True, False, True)),
    "paillier": ("Paillier", Capability(False, True, True, False, True)),
    "damgard-jurik": ("Damgard-Jurik", Capability(False, True, True, False, True)),
}

ALGORITHMS: tuple[str, ...] = tuple(_ROWS)
DISPLAY_NAMES: dict[str, str] = {algorithm: row[0] for algorithm, row in _ROWS.items()}

# operation token -> (Capability field, frozen denial text after the display
# name), in Capability field order
OPERATIONS: dict[str, tuple[str, str]] = {
    "mul": ("hom_mul", "is not homomorphic with respect to the multiplication"),
    "add": ("hom_add", "is not homomorphic with respect to the addition"),
    "scalar": ("scalar_mul", "does not support scalar multiplication"),
    "xor": ("hom_xor", "is not homomorphic with respect to the exclusive or"),
    "regen": ("regeneration", "does not support ciphertext regeneration"),
}


def capabilities(algorithm: str) -> Capability:
    if algorithm not in _ROWS:
        raise CapabilityError(f"unknown algorithm: {algorithm}")
    return _ROWS[algorithm][1]


def ensure_supported(algorithm: str, operation: str) -> None:
    """Raise CapabilityError with the fixed message when unsupported.

    The message wording is part of the public contract; callers match on it.
    """
    cap = capabilities(algorithm)
    if operation not in OPERATIONS:
        raise CapabilityError(f"unknown operation: {operation}")
    flag, denial = OPERATIONS[operation]
    if not getattr(cap, flag):
        raise CapabilityError(f"{DISPLAY_NAMES[algorithm]} {denial}")
