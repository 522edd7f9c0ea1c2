import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phekit.ec import (
    CURVE_BY_ECC_BITS,
    IDENTITY,
    CurvePoint,
    curve_names,
    get_curve,
    is_on_curve,
    point_add,
    point_neg,
    scalar_mul,
)
from phekit.errors import MathDomainError, UnknownCurveError
from phekit.numtheory import is_probable_prime

TOY = get_curve("toy17")


def affine_scalar_mul(k, point, curve):
    """k*P by right-to-left double-and-add over affine `point_add`: the
    reference for the Jacobian `scalar_mul` and the fixed-base tables."""
    k %= curve.order
    result, addend = IDENTITY, point
    while k:
        if k & 1:
            result = point_add(result, addend, curve)
        addend = point_add(addend, addend, curve)
        k >>= 1
    return result


def toy_points():
    """Every point of toy17, the identity first."""
    return [IDENTITY] + [
        CurvePoint(x, y) for x in range(17) for y in range(17)
        if is_on_curve(CurvePoint(x, y), TOY)
    ]


def test_toy17_registry_entry():
    assert (TOY.p, TOY.a, TOY.b) == (17, 2, 2)
    assert (TOY.g.x, TOY.g.y) == (5, 1)
    assert TOY.order == 19


def test_is_on_curve_fixtures():
    assert is_on_curve(IDENTITY, TOY)
    assert is_on_curve(CurvePoint(5, 1), TOY)
    assert not is_on_curve(CurvePoint(5, 2), TOY)


def test_point_add_fixtures():
    g = TOY.g
    assert point_add(g, g, TOY) == CurvePoint(6, 3)
    assert point_add(g, IDENTITY, TOY) == g
    assert point_add(IDENTITY, g, TOY) == g
    # 16 = -1 mod 17, so (5,16) is the inverse of G
    assert point_add(g, CurvePoint(5, 16), TOY) == IDENTITY


def test_point_neg():
    assert point_neg(TOY.g, TOY) == CurvePoint(5, 16)
    assert point_neg(IDENTITY, TOY) == IDENTITY
    assert point_add(TOY.g, point_neg(TOY.g, TOY), TOY) == IDENTITY


def test_scalar_mul_fixtures():
    g = TOY.g
    assert scalar_mul(2, g, TOY) == CurvePoint(6, 3)
    assert scalar_mul(3, g, TOY) == CurvePoint(10, 6)
    assert scalar_mul(0, g, TOY) == IDENTITY
    assert scalar_mul(19, g, TOY) == IDENTITY
    # scalars reduce mod the group order
    assert scalar_mul(20, g, TOY) == g
    with pytest.raises(MathDomainError):
        scalar_mul(-1, g, TOY)


def test_jacobian_scalar_mul_matches_affine_on_every_toy17_point():
    points = toy_points()
    assert len(points) == TOY.order
    for point in points:
        for k in range(41):
            assert scalar_mul(k, point, TOY) == affine_scalar_mul(k, point, TOY)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["secp160r1", "secp256r1"]),
       j=st.integers(1, 2**400), k=st.integers(0, 2**400))
def test_jacobian_scalar_mul_matches_affine(name, j, k):
    curve = get_curve(name)
    point = affine_scalar_mul(j, curve.g, curve)
    for scalar in (k, 0, 1, curve.order - 1, curve.order, curve.order + 1):
        assert scalar_mul(scalar, point, curve) == affine_scalar_mul(scalar, point, curve)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["secp160r1", "secp224r1"]),
       j=st.integers(1, 2**224), data=st.data())
def test_fixed_base_table_matches_affine(name, j, data):
    curve = get_curve(name)
    point = affine_scalar_mul(j, curve.g, curve)
    power = curve.fixed_base(point, curve.order.bit_length())
    ks = [0, 1, 2, curve.order - 1] + data.draw(
        st.lists(st.integers(0, curve.order - 1), min_size=1, max_size=4))
    for k in ks:
        assert power(k) == affine_scalar_mul(k, point, curve)


def test_fixed_base_table_on_every_toy17_point():
    for point in toy_points():
        power = TOY.fixed_base(point, TOY.order.bit_length())
        for k in range(TOY.order):
            assert power(k) == affine_scalar_mul(k, point, TOY)


def test_scalar_mul_matches_iterated_addition():
    acc = IDENTITY
    for k in range(1, 20):
        acc = point_add(acc, TOY.g, TOY)
        assert scalar_mul(k, TOY.g, TOY) == acc
    assert acc == IDENTITY  # 19 G


def _toy_subgroup() -> list[CurvePoint]:
    points = []
    acc = IDENTITY
    for _ in range(19):
        points.append(acc)
        acc = point_add(acc, TOY.g, TOY)
    return points


def test_toy17_brute_force_subgroup_enumeration():
    """The toy registry parameters hold up to exhaustive re-verification."""
    points = _toy_subgroup()
    assert len(set(points)) == 19
    for pt in points:
        assert is_on_curve(pt, TOY)


def test_point_add_closure_and_commutativity_exhaustive():
    points = _toy_subgroup()
    for p1 in points:
        for p2 in points:
            s = point_add(p1, p2, TOY)
            assert is_on_curve(s, TOY)
            assert s == point_add(p2, p1, TOY)


def test_point_add_associativity_exhaustive():
    points = _toy_subgroup()
    for p1 in points:
        for p2 in points:
            left = point_add(p1, p2, TOY)
            for p3 in points:
                assert point_add(left, p3, TOY) == point_add(
                    p1, point_add(p2, p3, TOY), TOY
                )


@pytest.mark.parametrize("name", ["toy17", CURVE_BY_ECC_BITS[256]])
def test_scalar_distributivity(name, rng):
    curve = get_curve(name)
    for _ in range(8):
        k1 = rng.randrange(0, curve.order)
        k2 = rng.randrange(0, curve.order)
        combined = scalar_mul((k1 + k2) % curve.order, curve.g, curve)
        split = point_add(
            scalar_mul(k1, curve.g, curve), scalar_mul(k2, curve.g, curve), curve
        )
        assert combined == split


def test_registry_invariants_every_curve():
    """Field prime, nonzero discriminant, base point on curve, prime order,
    and order * G = identity, for each registered curve."""
    for name in curve_names():
        curve = get_curve(name)
        assert is_probable_prime(curve.p), name
        assert (4 * curve.a ** 3 + 27 * curve.b ** 2) % curve.p != 0, name
        assert is_on_curve(curve.g, curve), name
        assert is_probable_prime(curve.order), name
        # scalar_mul reduces mod order, so build order*G without reduction
        almost = scalar_mul(curve.order - 1, curve.g, curve)
        assert point_add(almost, curve.g, curve) == IDENTITY, name


def test_registry_covers_all_nist_sizes():
    assert sorted(CURVE_BY_ECC_BITS) == [160, 224, 256, 384]
    for bits, name in CURVE_BY_ECC_BITS.items():
        curve = get_curve(name)
        assert curve.p.bit_length() == bits, name


def test_get_curve_unknown_name():
    with pytest.raises(UnknownCurveError) as excinfo:
        get_curve("nosuch")
    # the error lists what is available
    assert "toy17" in str(excinfo.value)


def test_curve_point_identity_flag():
    assert IDENTITY.is_identity
    assert not CurvePoint(5, 1).is_identity


@pytest.fixture(scope="module")
def oracle():
    return pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")


# `cryptography` 48 has no secp160r1, so that curve keeps only the registry
# invariants above
@pytest.mark.parametrize("name", ["secp224r1", "secp256r1", "secp384r1"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scalar_mul_matches_cryptography(oracle, name, data):
    curve = get_curve(name)
    # integers() leans towards small and boundary values; the randoms branch
    # adds full-width scalars
    k = data.draw(
        st.integers(1, curve.order - 1)
        | st.randoms(use_true_random=False).map(lambda r: r.randrange(1, curve.order)),
        label="k",
    )
    private = oracle.derive_private_key(k, getattr(oracle, name.upper())())
    public = private.public_key().public_numbers()
    assert scalar_mul(k, curve.g, curve) == CurvePoint(public.x, public.y)
