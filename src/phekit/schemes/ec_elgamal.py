"""EC-ElGamal: exponential ElGamal (`elgamal.py`) with a Weierstrass curve
as the group, its base point G as g and the public point Q as h. Plaintext m
is the point m*G, so messages live below min(dlp_bound, group order).
"""

from __future__ import annotations

from typing import Any, Optional

from ..ec import CURVE_BY_ECC_BITS, CurvePoint, curve_names, get_curve, is_on_curve, scalar_mul
from ..errors import MathDomainError
from ..numtheory import RandomSource
from .base import KeyPair, Payload
from .elgamal import DEFAULT_DLP_BOUND, ExpElGamal


class EcElGamal(ExpElGamal):
    algorithm = "ec-elgamal"
    payload_variant = "point_pair"
    default_params = {"curve": None, "dlp_bound": DEFAULT_DLP_BOUND}
    public_fields = ("qx", "qy")
    private_fields = ("x",)

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        self.group = get_curve(keys.params["curve"])
        self.g, self.h = self.group.g, CurvePoint(self.qx, self.qy)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        if params["curve"] is None:
            if security_bits not in CURVE_BY_ECC_BITS:
                sizes = ", ".join(str(s) for s in sorted(CURVE_BY_ECC_BITS))
                raise MathDomainError(
                    f"no registered curve of {security_bits} bits (sizes: {sizes}); "
                    "pass an explicit curve name instead"
                )
            params["curve"] = CURVE_BY_ECC_BITS[security_bits]
        curve = get_curve(params["curve"])
        x = rng.randrange(1, curve.order)
        q_point = scalar_mul(x, curve.g, curve)
        return {"qx": q_point.x, "qy": q_point.y}, {"x": x}

    @property
    def dlp_bound(self) -> int:
        # every point is some m*G with m below the group order
        return min(self.keys.params["dlp_bound"], self.group.order - 1)

    def plaintext_bound(self) -> int:
        return min(self.keys.params["dlp_bound"], self.group.order)

    @property
    def _nonce_range(self) -> tuple[int, int]:
        return 1, self.group.order

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        # encryption multiplies Q by a secret scalar: Q must lie on the named
        # curve, in reduced coordinates
        name = keys.params["curve"]
        if name not in curve_names():
            return "params.curve", f"unknown curve {name!r}"
        if not is_on_curve(cls(keys).h, get_curve(name)):
            return "public", f"(qx, qy) is not a point of curve {name}"
        return cls._exponent_fault(keys)

    def _is_member(self, c: Payload) -> bool:
        # decryption multiplies c1 by the private x: a point off the curve
        # would leak x through a weaker group
        return all(is_on_curve(point, self.group) for point in c)
