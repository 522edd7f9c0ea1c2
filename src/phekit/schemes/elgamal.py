"""ElGamal over a group with `identity`, `op`, `exp`, `inv` and
`fixed_base`, in two flavors.

Classic ElGamal runs in Z*_p, multiplies plaintexts into the second
component and is multiplicatively homomorphic. Exponential ElGamal is
ElGamal run on g^m: it only encodes m as g^m and decodes by a bounded
discrete-log search, which turns ciphertext multiplication into plaintext
addition. EC-ElGamal is exponential ElGamal on a Weierstrass curve, its
base point G as g and the public point Q as h: plaintext m is the point
m*G, so messages live below min(dlp_bound, group order).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Optional

from ..ec import CURVE_BY_ECC_BITS, CurvePoint, curve_names, get_curve, is_on_curve, scalar_mul
from ..errors import DecryptionBoundError, MathDomainError
from ..numtheory import (
    RandomSource,
    UnitGroup,
    baby_steps,
    discrete_log_bounded,
    gen_group_prime,
)
from .base import KeyPair, Payload, Scheme

DEFAULT_DLP_BOUND = 1 << 20


def _subgroup_bits(security_bits: int) -> int:
    # 256-bit subgroups at production sizes; scaled down for toy keys, but
    # never below the exp variant's default decryption bound of 2^20
    return min(256, max(24, security_bits // 2))


class ElGamal(Scheme):
    algorithm = "elgamal"
    payload_variant = "pair"
    public_fields = ("p", "g", "h")
    private_fields = ("x",)

    @classmethod
    def _keygen(cls, security_bits: int, params: dict[str, Any], rng: RandomSource):
        """Prime p = 2qc+1, generator g of the order-q subgroup, secret x.

        Decryption m = c2 * (c1^x)^-1 holds for any g, so correctness never
        depends on the group structure; the large prime q dividing p-1 is what
        keeps discrete logs in <g> hard.
        """
        p, q = gen_group_prime(security_bits, _subgroup_bits(security_bits), rng)
        while True:
            g = pow(rng.randrange(2, p - 1), (p - 1) // q, p)
            if g != 1:
                break
        x = rng.randrange(2, q)
        return {"p": p, "g": g, "h": pow(g, x, p)}, {"x": x}

    @classmethod
    def key_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        p = keys.public["p"]
        for name in ("g", "h"):
            # 0 is no unit; 1 and p-1, of order 1 and 2, would leave the
            # plaintext in c2 up to its sign
            if not 2 <= keys.public[name] <= p - 2:
                return f"public.{name}", "must lie in 2..p-2"
        return cls._exponent_fault(keys)

    @classmethod
    def _exponent_fault(cls, keys: KeyPair) -> Optional[tuple[str, str]]:
        """With the private key, g^x must be the public h."""
        if keys.has_private:
            scheme = cls(keys)
            if scheme.group.exp(scheme.g, scheme.x) != scheme.h:
                return "private", "g^x is not the public h"
        return None

    @cached_property
    def group(self) -> UnitGroup:
        return UnitGroup(self.p)

    @cached_property
    def _fixed_bases(self) -> tuple:
        """k -> g**k and k -> h**k by fixed-base tables sized for the nonces,
        built on the first encryption."""
        bits = self._nonce_range[1].bit_length()
        return self.group.fixed_base(self.g, bits), self.group.fixed_base(self.h, bits)

    def plaintext_bound(self) -> int:
        return self.p

    def encrypt(self, m: int, rng: RandomSource) -> Payload:
        self.check_plaintext(m)
        g_pow, h_pow = self._fixed_bases
        r = rng.randrange(*self._nonce_range)
        return g_pow(r), self.group.op(self._encode(m), h_pow(r))

    def decrypt(self, c: Payload) -> int:
        self.require_private()
        group, (c1, c2) = self.group, c
        return self._decode(group.op(c2, group.inv(group.exp(c1, self.x))))

    @property
    def _nonce_range(self) -> tuple[int, int]:
        return 2, self.p - 1

    def _is_member(self, c: Payload) -> bool:
        # c1 = g^r is a unit; classic ElGamal encrypts m = 0 to c2 = 0
        return 0 < c[0] < self.p and 0 <= c[1] < self.p

    # the group element that carries a plaintext, and back
    def _encode(self, m: int) -> Any:
        return m

    def _decode(self, element: Any) -> int:
        return element

    def _combine(self, c1: Payload, c2: Payload) -> Payload:
        return (self.group.op(c1[0], c2[0]), self.group.op(c1[1], c2[1]))

    def _scalar(self, c: Payload, k: int) -> Payload:
        return (self.group.exp(c[0], k), self.group.exp(c[1], k))


class ExpElGamal(ElGamal):
    algorithm = "exp-elgamal"
    default_params = {"dlp_bound": DEFAULT_DLP_BOUND}

    @property
    def dlp_bound(self) -> int:
        return self.keys.params["dlp_bound"]

    def plaintext_bound(self) -> int:
        return self.dlp_bound

    @cached_property
    def _baby_steps(self) -> tuple:
        """Baby steps of g, built on the first decrypt."""
        return baby_steps(self.group, self.g, self.dlp_bound)

    def _is_member(self, c: Payload) -> bool:
        # c2 = g^m * h^r is a unit too: no key encrypts to c2 = 0
        return super()._is_member(c) and c[1] != 0

    def _encode(self, m: int) -> Any:
        return self._fixed_bases[0](m)

    def _decode(self, element: Any) -> int:
        m = discrete_log_bounded(
            self.group, self.g, element, self.dlp_bound, self._baby_steps
        )
        if m is None:
            raise DecryptionBoundError(
                f"plaintext exceeds the discrete-log bound {self.dlp_bound}; "
                "regenerate keys with a larger dlp_bound"
            )
        return m


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
