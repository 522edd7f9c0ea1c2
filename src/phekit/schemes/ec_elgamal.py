"""ElGamal on a Weierstrass curve: additively homomorphic on small messages.

Plaintext m is carried as the point m*G. Decryption strips the shared secret
and solves the bounded curve discrete log, so messages live below
min(dlp_bound, group order).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..ec import (
    CURVE_BY_ECC_BITS,
    CurveParams,
    CurvePoint,
    get_curve,
    is_on_curve,
    point_add,
    point_neg,
    scalar_mul,
)
from ..errors import DecryptionBoundError, MathDomainError
from ..numtheory import RandomSource
from .base import KeyPair, Payload, Scheme
from .elgamal import DEFAULT_DLP_BOUND


class EcElGamal(Scheme):
    algorithm = "ec-elgamal"
    payload_variant = "point_pair"
    default_params = {"curve": None, "dlp_bound": DEFAULT_DLP_BOUND}
    public_fields = ("qx", "qy")
    private_fields = ("x",)

    def __init__(self, keys: KeyPair):
        super().__init__(keys)
        self.curve: CurveParams = get_curve(keys.params["curve"])
        self.q_point = CurvePoint(self.qx, self.qy)
        self.dlp_bound = keys.params["dlp_bound"]
        self._baby_table: Optional[dict[CurvePoint, int]] = None
        self._giant_step: Optional[CurvePoint] = None

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

    def plaintext_bound(self) -> int:
        return min(self.dlp_bound, self.curve.order)

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        curve = self.curve
        r = rng.randrange(1, curve.order)
        c1 = scalar_mul(r, curve.g, curve)
        c2 = point_add(
            scalar_mul(r, self.q_point, curve), scalar_mul(m, curve.g, curve), curve
        )
        return (c1, c2)

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        c1, c2 = c
        masked = point_add(
            c2, point_neg(scalar_mul(self.x, c1, self.curve), self.curve), self.curve
        )
        m = self._point_dlog(masked)
        if m is None:
            raise DecryptionBoundError(
                f"decrypted point exceeds the discrete-log bound {self.dlp_bound}; "
                "regenerate keys with a larger dlp_bound"
            )
        return m

    def _point_dlog(self, target: CurvePoint) -> Optional[int]:
        """Smallest m <= bound with m*G = target; baby-step giant-step."""
        curve = self.curve
        bound = min(self.dlp_bound, curve.order - 1)
        step = math.isqrt(bound) + 1
        if self._baby_table is None:
            table: dict[CurvePoint, int] = {}
            walk = CurvePoint(None, None)
            for j in range(step):
                table.setdefault(walk, j)
                walk = point_add(walk, curve.g, curve)
            self._baby_table = table
            self._giant_step = point_neg(scalar_mul(step, curve.g, curve), curve)
        gamma = target
        for i in range(step + 1):
            j = self._baby_table.get(gamma)
            if j is not None:
                m = i * step + j
                if m <= bound:
                    return m
            gamma = point_add(gamma, self._giant_step, curve)
        return None

    def _is_member(self, c: Payload) -> bool:
        # decryption multiplies c1 by the private x: a point off the curve
        # would leak x through a weaker group
        return all(is_on_curve(point, self.curve) for point in c)

    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        return (
            point_add(c1[0], c2[0], self.curve),
            point_add(c1[1], c2[1], self.curve),
        )

    def _scalar(self, c: Payload, k: int) -> Payload:
        return (scalar_mul(k, c[0], self.curve), scalar_mul(k, c[1], self.curve))
