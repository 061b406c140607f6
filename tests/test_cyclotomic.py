import random
from fractions import Fraction

import pytest

from gkcert.cyclotomic import CycNumber, cyclotomic_poly
from gkcert.intpoly import IntPoly


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)
    assert cyclotomic_poly(6).coeffs == (1, -1, 1)
    assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)
    # product over divisors reassembles X^m - 1
    for m in (6, 8, 12, 30):
        prod = IntPoly([1])
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod.coeffs == tuple([-1] + [0] * (m - 1) + [1])


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 301):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_poly(m).coeffs == tuple(int(c) for c in reversed(want)), m


def test_root_of_unity_relations():
    for m in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 36, 40):
        z = CycNumber.zeta(m)
        acc = CycNumber.from_rational(1)
        for _ in range(m):
            acc = acc * z
        assert acc == 1, m
        total = CycNumber.from_rational(0)
        for k in range(m):
            total = total + CycNumber.zeta(m, k)
        if m > 1:
            assert total.is_zero
        else:
            assert total == 1


def test_embedding_round_trip():
    from gkcert.numutil import euler_phi

    rng = random.Random(6)
    for _ in range(50):
        m = rng.choice([3, 4, 5, 6, 8, 12])
        x = CycNumber(
            m, [rng.randrange(-5, 6) for _ in range(euler_phi(m))], rng.randrange(1, 5)
        )
        big = m * rng.choice([2, 3, 5])
        assert x.embed(big) == x
        # equality is conductor-independent
        assert x.embed(big).embed(big * 2) == x


def test_cross_conductor_equality():
    assert CycNumber.zeta(3) == CycNumber.zeta(6, 2)
    assert CycNumber.zeta(4) == CycNumber.zeta(8, 2)
    assert CycNumber.zeta(6) == 1 + CycNumber.zeta(3)  # zeta_6 = 1 + zeta_3


def test_arithmetic_identities():
    z5 = CycNumber.zeta(5)
    assert (1 + z5) * (1 - z5) == 1 - z5 * z5
    sqrt5 = 2 * z5 + 2 * CycNumber.zeta(5, 4) + 1
    assert sqrt5 * sqrt5 == 5
    # Gauss sum for conductor 3: (2 zeta_3 + 1)^2 = -3
    g = 2 * CycNumber.zeta(3) + 1
    assert g * g == -3


def test_rational_detection_and_division():
    x = CycNumber.from_rational(Fraction(3, 4)) + Fraction(1, 4)
    assert x.is_integer and x.as_int() == 1
    y = CycNumber.zeta(8) / 2
    assert (y * 2) == CycNumber.zeta(8)
    with pytest.raises(ValueError):
        CycNumber.zeta(5).as_fraction()


def test_galois_action_and_conjugation():
    z = CycNumber.zeta(7, 3)
    assert z.galois(2) == CycNumber.zeta(7, 6)
    assert z.conjugate() == CycNumber.zeta(7, 4)
    # |z|^2 = 1 for roots of unity
    assert z * z.conjugate() == 1
    with pytest.raises(ValueError):
        z.galois(7)


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(CycNumber.zeta(3))
