"""phekit: ten partially homomorphic cryptosystems behind one interface.

Quick start::

    from phekit import PHE

    cs = PHE("paillier", key_size=1024)
    c1 = cs.encrypt(10000)
    c2 = cs.encrypt(500)
    assert cs.decrypt(c1 + c2) == 10500

Each algorithm supports exactly the operations its capability row allows;
everything else raises a CapabilityError with a fixed message.
"""

from .algebra import (
    PHE,
    Ciphertext,
    parse_ciphertext,
    serialize_ciphertext,
    to_rational,
)
from .capabilities import ALGORITHMS, DISPLAY_NAMES, Capability, capabilities
from .ec import CurveParams, CurvePoint, get_curve
from .errors import (
    CapabilityError,
    DecryptionBoundError,
    InexactResultError,
    KeygenExhaustedError,
    MathDomainError,
    MissingPrivateKeyError,
    OperandMismatchError,
    ParseError,
    PayloadTypeError,
    PheError,
    PlaintextRangeError,
)
from .numtheory import RandomSource
from .schemes import KeyPair, generate_keys
from .serialization import key_fingerprint, parse_key, serialize_key

__version__ = "0.1.0"

__all__ = [
    "PHE",
    "Ciphertext",
    "KeyPair",
    "RandomSource",
    "Capability",
    "CurveParams",
    "CurvePoint",
    "ALGORITHMS",
    "DISPLAY_NAMES",
    "capabilities",
    "generate_keys",
    "get_curve",
    "to_rational",
    "serialize_key",
    "parse_key",
    "key_fingerprint",
    "serialize_ciphertext",
    "parse_ciphertext",
    "PheError",
    "CapabilityError",
    "OperandMismatchError",
    "PlaintextRangeError",
    "PayloadTypeError",
    "DecryptionBoundError",
    "KeygenExhaustedError",
    "MissingPrivateKeyError",
    "InexactResultError",
    "MathDomainError",
    "ParseError",
]
