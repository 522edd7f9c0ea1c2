"""Which homomorphic operations each cryptosystem supports.

The matrix is the single authority consulted by the algebra layer, the CLI,
and the benchmark harness. Rows stay in canonical order everywhere output is
ordered (capability listings, benchmark CSV, chart axes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError

# Canonical algorithm identifiers, in fixed presentation order.
ALGORITHMS: tuple[str, ...] = (
    "rsa",
    "goldwasser-micali",
    "elgamal",
    "exp-elgamal",
    "benaloh",
    "ec-elgamal",
    "naccache-stern",
    "okamoto-uchiyama",
    "paillier",
    "damgard-jurik",
)

DISPLAY_NAMES: dict[str, str] = {
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


@dataclass(frozen=True)
class Capability:
    """Operation support flags for one cryptosystem, in presentation order."""

    hom_mul: bool
    hom_add: bool
    scalar_mul: bool
    hom_xor: bool
    regeneration: bool


_MATRIX: dict[str, Capability] = {
    "rsa": Capability(True, False, False, False, False),
    "goldwasser-micali": Capability(False, False, False, True, False),
    "elgamal": Capability(True, False, False, False, False),
    "exp-elgamal": Capability(False, True, True, False, True),
    "benaloh": Capability(False, True, True, False, True),
    "ec-elgamal": Capability(False, True, True, False, False),
    "naccache-stern": Capability(False, True, True, False, True),
    "okamoto-uchiyama": Capability(False, True, True, False, True),
    "paillier": Capability(False, True, True, False, True),
    "damgard-jurik": Capability(False, True, True, False, True),
}

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
    if algorithm not in _MATRIX:
        raise CapabilityError(f"unknown algorithm: {algorithm}")
    return _MATRIX[algorithm]


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
