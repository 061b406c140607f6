import random

import pytest

from gkcert.cyclotomic import conjugate, cyclotomic_poly, from_exponents
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
        phi = cyclotomic_poly(m).degree
        unit = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
        zero = (0,) * phi
        # zeta^k for k < phi is the power basis; exponents are read mod m
        assert [from_exponents(m, {k: 1}) for k in range(phi)] == unit, m
        assert from_exponents(m, {m: 1}) == from_exponents(m, {-m: 1}) == unit[0], m
        assert from_exponents(m, {0: 2, 2 * m: 1}) == (3,) + zero[1:], m
        assert from_exponents(m, {-1: 1}) == from_exponents(m, {m - 1: 1}), m
        # zeta is a root of Phi_m, and the m-th roots of unity sum to 0 (m > 1)
        assert from_exponents(m, dict(enumerate(cyclotomic_poly(m).coeffs))) == zero, m
        assert from_exponents(m, {k: 1 for k in range(m)}) == (unit[0] if m == 1 else zero), m
        assert from_exponents(m, {}) == from_exponents(m, {1: 0}) == zero


def test_galois_action_and_conjugation():
    # sigma_k: zeta -> zeta^k maps sum c_i zeta^i to sum c_i zeta^(i k), which
    # from_exponents reduces; complex conjugation is sigma_-1
    def sigma(m, k, x):
        return from_exponents(m, {i * k: c for i, c in enumerate(x)})

    z = from_exponents(7, {3: 1})
    assert sigma(7, 2, z) == from_exponents(7, {6: 1})
    assert conjugate(7, z) == from_exponents(7, {4: 1})
    # sqrt 5 = 2 zeta_5 + 2 zeta_5^4 + 1 is real; the Gauss sum
    # 2 zeta_3 + 1 = sqrt -3 is not
    sqrt5 = from_exponents(5, {1: 2, 4: 2, 0: 1})
    assert conjugate(5, sqrt5) == sqrt5 and sigma(5, 2, sqrt5) == tuple(-c for c in sqrt5)
    gauss = from_exponents(3, {1: 2, 0: 1})
    assert conjugate(3, gauss) == tuple(-c for c in gauss)
    rng = random.Random(6)
    for _ in range(50):
        m = rng.choice([1, 2, 3, 4, 5, 6, 8, 12, 15, 24])
        x = tuple(rng.randrange(-5, 6) for _ in range(cyclotomic_poly(m).degree))
        assert conjugate(m, x) == sigma(m, -1, x) == sigma(m, m - 1, x)
        assert conjugate(m, conjugate(m, x)) == x
        assert conjugate(m, x[:1] + (0,) * (len(x) - 1)) == x[:1] + (0,) * (len(x) - 1)
