"""Exception hierarchy for the toolkit.

Everything derives from ValueError (directly or via PheError) so that callers
can catch broadly with ``except ValueError`` while the library distinguishes
failure classes internally.
"""


class PheError(ValueError):
    """Base class for all toolkit errors."""


class MathDomainError(PheError):
    """An argument violates a number-theoretic precondition."""


class NotInvertibleError(MathDomainError):
    """Requested a modular inverse that does not exist."""


class CapabilityError(PheError):
    """An operation the algorithm does not support (fixed message strings)."""


class OperandMismatchError(PheError):
    """Binary-operation operands disagree on algorithm, key, or scale."""


class PlaintextRangeError(PheError):
    """Plaintext outside the scheme's message bound."""


class PayloadTypeError(PheError):
    """Ciphertext payload variant does not match the algorithm."""


class DecryptionBoundError(PheError):
    """Bounded discrete-log recovery failed; the configured bound is too small."""


class KeygenExhaustedError(PheError):
    """Key generation exceeded its retry budget."""


class ParseError(PheError):
    """Malformed key or ciphertext document, or an integer too long to write
    in one."""


class InexactResultError(PheError):
    """A scaled decryption did not divide exactly in integer mode."""


class UnknownCurveError(PheError, LookupError):
    """Curve name not present in the registry."""


class DegenerateChartError(PheError):
    """Too few axes to draw a radar chart."""


class MissingPrivateKeyError(PheError):
    """Decryption attempted with a public-only key pair."""


class BitLengthError(OperandMismatchError):
    """Bit-encryption lists of different widths cannot be combined."""
