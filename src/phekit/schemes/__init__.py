"""Ten cryptosystems behind one dispatch surface.

`scheme_for(keys)` builds the right Scheme instance for a key pair and
`generate_keys` makes a fresh one. Each scheme module holds only its own
math: the fields of its keys (`public_fields`, `private_fields`), the
search that produces them (`_keygen`) and its operations; `Scheme` in
`base.py` resolves parameters, assembles the KeyPair and binds the declared
fields as attributes. Four schemes are special cases of a general one and
subclass it in its module, one module per family, keeping only what differs:
Paillier is Damgard-Jurik at s = 1, Benaloh is Naccache-Stern with the one
message prime r, exponential ElGamal is ElGamal on g^m, and EC-ElGamal is
exponential ElGamal on a curve. Each family has one `encrypt` and one
`decrypt`; Okamoto-Uchiyama, Paillier and Damgard-Jurik decrypt through one
routine, `ModulusScheme._log_decrypt`. Every scheme keeps the one build
rule stated in `Scheme`'s docstring (`base.py`): private-key constants with
the instance, tables on first use. So hold on to the instance (or a PHE
facade, which holds one) rather than rebuilding it.
"""

from __future__ import annotations

from typing import Any, Optional

from ..capabilities import ALGORITHMS
from ..errors import CapabilityError
from ..numtheory import RandomSource
from .base import KeyPair, Payload, Scheme, variant_of
from .damgard_jurik import DamgardJurik, Paillier
from .elgamal import EcElGamal, ElGamal, ExpElGamal
from .goldwasser_micali import GoldwasserMicali
from .naccache_stern import Benaloh, NaccacheStern
from .okamoto_uchiyama import OkamotoUchiyama
from .rsa import Rsa

SCHEME_CLASSES: dict[str, type[Scheme]] = {
    cls.algorithm: cls
    for cls in (
        Rsa,
        GoldwasserMicali,
        ElGamal,
        ExpElGamal,
        Benaloh,
        EcElGamal,
        NaccacheStern,
        OkamotoUchiyama,
        Paillier,
        DamgardJurik,
    )
}

assert set(SCHEME_CLASSES) == set(ALGORITHMS)


def scheme_class(algorithm: str) -> type[Scheme]:
    try:
        return SCHEME_CLASSES[algorithm]
    except KeyError:
        known = ", ".join(ALGORITHMS)
        raise CapabilityError(f"unknown algorithm: {algorithm!r} (known: {known})") from None


def scheme_for(keys: KeyPair) -> Scheme:
    return scheme_class(keys.algorithm)(keys)


def generate_keys(
    algorithm: str,
    security_bits: int,
    params: Optional[dict[str, Any]] = None,
    rng: Optional[RandomSource] = None,
) -> KeyPair:
    cls = scheme_class(algorithm)
    return cls.generate(security_bits, params or {}, rng or RandomSource())


__all__ = [
    "KeyPair",
    "Payload",
    "Scheme",
    "SCHEME_CLASSES",
    "variant_of",
    "scheme_class",
    "scheme_for",
    "generate_keys",
]
