"""Weierstrass elliptic-curve arithmetic and a named-curve registry.

Curves are y^2 = x^3 + a*x + b over GF(p). Points are affine with an explicit
identity marker, and one point addition (`point_add`) costs a modular
inversion. Scalar multiples and fixed-base powers run in Jacobian
coordinates (`JacobianCurve`), which need no inversion, and convert back to
affine once at the end. A `CurveParams` is also the group of its points,
with `numtheory.UnitGroup`'s members: ElGamal and the discrete-log search
run on either.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import MathDomainError, UnknownCurveError
from .frozen import Frozen, to_decimal
from .numtheory import KEY_MASK, fixed_base_pow, fixed_base_table, mod_inv


class CurvePoint(Frozen):
    """Affine point, or the group identity when both coordinates are None.
    Not a tuple: a payload pair of two ints is a `pair`, of two points a
    `point_pair`."""

    __slots__ = _compared = ("x", "y")

    # written out, not the generic `_set`: every group operation builds a
    # point
    def __init__(self, x: Optional[int], y: Optional[int]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_identity:
            return "CurvePoint(identity)"
        return f"CurvePoint({to_decimal(self.x)}, {to_decimal(self.y)})"


IDENTITY = CurvePoint(None, None)


class CurveParams(Frozen):
    """Weierstrass domain parameters. `order` is the order of base point g.
    As a group, written like Z*_m: `op` adds points and `exp(P, k)` is k*P."""

    __slots__ = _compared = ("name", "p", "a", "b", "g", "order")
    identity = IDENTITY

    def __init__(self, name: str, p: int, a: int, b: int, g: CurvePoint, order: int):
        self._set(name, p, a, b, g, order)

    def op(self, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
        return point_add(p1, p2, self)

    def exp(self, point: CurvePoint, k: int) -> CurvePoint:
        return scalar_mul(k, point, self)

    def inv(self, point: CurvePoint) -> CurvePoint:
        return point_neg(point, self)

    def key(self, point: CurvePoint) -> int:
        """x's low 60 bits, shared by P and -P, or -1 for the identity: the
        point's key in a baby-step table."""
        return -1 if point.x is None else point.x & KEY_MASK

    def fixed_base(self, point: CurvePoint, bits: int) -> Callable[[int], CurvePoint]:
        """k -> k*point by a fixed-base table for scalars below 2**bits."""
        jacobian = JacobianCurve(self)
        table = fixed_base_table(jacobian, jacobian.lift(point), bits)
        return lambda k: jacobian.affine(fixed_base_pow(jacobian, table, k))


Jacobian = tuple[int, int, int]


class JacobianCurve(Frozen):
    """The points of `curve` as Jacobian triples (X, Y, Z), standing for the
    affine point (X/Z^2, Y/Z^3), with Z = 0 for the identity. Adding and
    doubling take no inversion (Cohen-Miyaji-Ono), so chains of them run
    here and convert to affine once; a group with `identity`, `op` and
    `exp`, like `CurveParams`."""

    __slots__ = _compared = ("curve",)
    identity = (1, 1, 0)

    def __init__(self, curve: CurveParams):
        self._set(curve)

    def lift(self, point: CurvePoint) -> Jacobian:
        return self.identity if point.is_identity else (point.x, point.y, 1)

    def affine(self, point: Jacobian) -> CurvePoint:
        x, y, z = point
        if not z:
            return IDENTITY
        p = self.curve.p
        z_inv = mod_inv(z, p)
        zz_inv = z_inv * z_inv % p
        return CurvePoint(x * zz_inv % p, y * zz_inv * z_inv % p)

    def double(self, point: Jacobian) -> Jacobian:
        x, y, z = point
        if not z or not y:
            # the identity, or a point of order 2
            return self.identity
        p = self.curve.p
        yy = y * y % p
        zz = z * z % p
        s = 4 * x * yy % p
        m = (3 * x * x + self.curve.a * zz * zz) % p
        x3 = (m * m - 2 * s) % p
        return x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p

    def op(self, p1: Jacobian, p2: Jacobian) -> Jacobian:
        """The group law: identity cases, then doubling or the inverse pair
        when both stand for one x, else the chord rule."""
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        if not z1:
            return p2
        if not z2:
            return p1
        p = self.curve.p
        z1z1 = z1 * z1 % p
        u2 = x2 * z1z1 % p
        s2 = y2 * z1 * z1z1 % p
        if z2 == 1:
            # p2 came from an affine point
            u1, s1 = x1, y1
        else:
            z2z2 = z2 * z2 % p
            u1 = x1 * z2z2 % p
            s1 = y1 * z2 * z2z2 % p
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        if not h:
            return self.double(p1) if not r else self.identity
        hh = h * h % p
        hhh = h * hh % p
        v = u1 * hh % p
        x3 = (r * r - hhh - 2 * v) % p
        return x3, (r * (v - x3) - s1 * hhh) % p, z1 * z2 * h % p

    def exp(self, point: Jacobian, k: int) -> Jacobian:
        """k*point for k >= 0, by left-to-right double-and-add."""
        result = self.identity
        for bit in bin(k)[2:]:
            result = self.double(result)
            if bit == "1":
                result = self.op(result, point)
        return result


def is_on_curve(point: CurvePoint, curve: CurveParams) -> bool:
    """The identity, or reduced coordinates that satisfy the curve equation."""
    if point.is_identity:
        return True
    x, y, p = point.x, point.y, curve.p
    return 0 <= x < p and 0 <= y < p and (y * y - x**3 - curve.a * x - curve.b) % p == 0


def point_add(p1: CurvePoint, p2: CurvePoint, curve: CurveParams) -> CurvePoint:
    """Group law: identity cases, inverse pair, chord rule, tangent rule."""
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    p = curve.p
    if p1.x == p2.x:
        if (p1.y + p2.y) % p == 0:
            # vertical line: P + (-P)
            return IDENTITY
        # doubling; y != 0 here because y = -y mod p was excluded above
        lam = (3 * p1.x * p1.x + curve.a) * mod_inv(2 * p1.y, p) % p
    else:
        lam = (p2.y - p1.y) * mod_inv(p2.x - p1.x, p) % p
    x3 = (lam * lam - p1.x - p2.x) % p
    y3 = (lam * (p1.x - x3) - p1.y) % p
    return CurvePoint(x3, y3)


def point_neg(point: CurvePoint, curve: CurveParams) -> CurvePoint:
    if point.is_identity:
        return IDENTITY
    return CurvePoint(point.x, (-point.y) % curve.p)


def scalar_mul(k: int, point: CurvePoint, curve: CurveParams) -> CurvePoint:
    """k*P by double-and-add in Jacobian coordinates, with one inversion at
    the end. k is reduced mod the group order first."""
    if k < 0:
        raise MathDomainError("negative scalars are not supported")
    jacobian = JacobianCurve(curve)
    return jacobian.affine(jacobian.exp(jacobian.lift(point), k % curve.order))


# Registry. toy17 is a textbook 19-point group for tests; the rest are the
# standard published Weierstrass parameter sets at each NIST ECC size. Values
# are cross-checked by tests against the CurveParams invariants: nonzero
# discriminant, base point on curve, prime order, order*G = identity.
_CURVES: dict[str, CurveParams] = {
    "toy17": CurveParams(
        name="toy17",
        p=17,
        a=2,
        b=2,
        g=CurvePoint(5, 1),
        order=19,
    ),
    "secp160r1": CurveParams(
        name="secp160r1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
        a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
        b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
        g=CurvePoint(
            0x4A96B5688EF573284664698968C38BB913CBFC82,
            0x23A628553168947D59DCC912042351377AC5FB32,
        ),
        order=0x0100000000000000000001F4C8F927AED3CA752257,
    ),
    "secp224r1": CurveParams(
        name="secp224r1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001,
        a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFE,
        b=0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4,
        g=CurvePoint(
            0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21,
            0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34,
        ),
        order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D,
    ),
    "secp256r1": CurveParams(
        name="secp256r1",
        p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
        a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
        b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
        g=CurvePoint(
            0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
            0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
        ),
        order=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    ),
    "secp384r1": CurveParams(
        name="secp384r1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFF0000000000000000FFFFFFFF,
        a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFF0000000000000000FFFFFFFC,
        b=0xB3312FA7E23EE7E4988E056BE3F82D19181D9C6EFE8141120314088F5013875AC656398D8A2ED19D2A85C8EDD3EC2AEF,
        g=CurvePoint(
            0xAA87CA22BE8B05378EB1C71EF320AD746E1D3B628BA79B9859F741E082542A385502F25DBF55296C3A545E3872760AB7,
            0x3617DE4A96262C6F5D9E98BF9292DC29F8F41DBD289A147CE9DA3113B5F0B8C00A60B1CE1D7E819D7A431D7C90EA0E5F,
        ),
        order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFC7634D81F4372DDF581A0DB248B0A77AECEC196ACCC52973,
    ),
}

# Table row: NIST symmetric-equivalent level -> ECC curve size.
CURVE_BY_ECC_BITS: dict[int, str] = {
    160: "secp160r1",
    224: "secp224r1",
    256: "secp256r1",
    384: "secp384r1",
}


def get_curve(name: str) -> CurveParams:
    try:
        return _CURVES[name]
    except KeyError:
        available = ", ".join(sorted(_CURVES))
        raise UnknownCurveError(
            f"unknown curve: {name!r} (available: {available})"
        ) from None


def curve_names() -> tuple[str, ...]:
    return tuple(_CURVES)
