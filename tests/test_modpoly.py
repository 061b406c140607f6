import random

import pytest

from gkcert.errors import NotPrime, ZeroPolynomial
from gkcert.intpoly import IntPoly, from_vector
from gkcert.modpoly import (
    deg,
    factor_mod_p,
    gcd_p,
    is_irreducible_mod_p,
    mul,
    pow_mod,
    reduce_intpoly,
    sub,
    X_P,
)

X2_PLUS_1 = IntPoly([1, 0, 1])


def test_split_inert_ramified_examples():
    assert factor_mod_p(X2_PLUS_1, 5).degrees() == [(1, 1), (1, 1)]
    assert factor_mod_p(X2_PLUS_1, 3).degrees() == [(2, 1)]
    assert factor_mod_p(X2_PLUS_1, 2).degrees() == [(1, 2)]
    # mod 5 both linear factors, (X+2)(X+3), share one distinct-degree part
    assert factor_mod_p(X2_PLUS_1, 5).parts == (((1, 0, 1), 1, 1),)


def test_errors():
    with pytest.raises(NotPrime):
        factor_mod_p(X2_PLUS_1, 6)
    with pytest.raises(ZeroPolynomial):
        factor_mod_p(IntPoly([10, 5]), 5)


def test_deterministic_output():
    f = from_vector([3, 1, 4, 1, 5, 9, 2, 6])
    assert factor_mod_p(f, 101) == factor_mod_p(f, 101)
    # a squarefree f gives one part per degree, in ascending degree
    fac = factor_mod_p(f, 101)
    assert fac.is_squarefree
    degs = [d for _, d, _ in fac.parts]
    assert degs == sorted(set(degs))


def _is_distinct_degree_part(g, d, p):
    """Every irreducible factor of g has degree d: g divides X^(p^d) - X,
    and gcd(g, X^(p^j) - X) = 1 for j < d."""
    x_red = pow_mod(X_P, 1, g, p)  # x mod g (matters when deg g = 1)
    for j in range(1, d):
        xq = pow_mod(X_P, p**j, g, p)
        if deg(gcd_p(sub(xq, x_red, p), g, p)) > 0:
            return False
    xq = pow_mod(X_P, p**d, g, p)
    return not sub(xq, x_red, p)


def test_factorization_product_and_irreducibility_property():
    # 200 random polynomials of degree <= 8, primes <= 100
    rng = random.Random(20240)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 53, 67, 79, 97]
    done = 0
    while done < 200:
        degree = rng.randint(1, 8)
        f = IntPoly([rng.randrange(-20, 21) for _ in range(degree + 1)])
        p = rng.choice(primes)
        if not reduce_intpoly(f, p):
            continue
        fac = factor_mod_p(f, p)
        # product with multiplicity reproduces f mod p
        assert fac.product() == reduce_intpoly(f, p)
        for g, d, _ in fac.parts:
            assert g[-1] == 1 and deg(g) % d == 0
            assert _is_distinct_degree_part(g, d, p)
            if deg(g) == d:
                assert is_irreducible_mod_p(g, p)
        done += 1


def _sympy_degrees(f: IntPoly, p: int):
    """Sorted (degree, multiplicity) pairs of f mod p from sympy's factorizer."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    coeffs = [ZZ(c) for c in reversed(reduce_intpoly(f, p))]
    _, factors = gf_factor(coeffs, p, ZZ)
    return sorted((len(g) - 1, m) for g, m in factors)


def test_factor_degrees_against_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(20241)
    primes = [2, 3, 5, 7, 11, 13, 31, 101]

    def rand_poly(degree):
        return IntPoly([rng.randrange(-30, 31) for _ in range(degree)] + [rng.randrange(1, 5)])

    checked = 0
    for i in range(600):
        p = primes[i % len(primes)]
        kind = i % 3
        if kind == 0:
            f = rand_poly(rng.randint(1, 10))
        elif kind == 1:
            # a squared (or cubed) factor times a cofactor
            g = rand_poly(rng.randint(1, 3))
            f = g * g * (g if rng.random() < 0.3 else IntPoly([1])) * rand_poly(rng.randint(0, 4))
        else:
            # g(X^p) * (X + c): multiplicities divisible by p
            g = rand_poly(rng.randint(1, 2))
            gxp = [0] * (p * g.degree + 1)
            gxp[::p] = g.coeffs
            f = IntPoly(gxp) * IntPoly([rng.randrange(p), 1])
        if not reduce_intpoly(f, p):
            continue
        fac = factor_mod_p(f, p)
        assert fac.degrees() == _sympy_degrees(f, p), (f, p)
        assert fac.product() == reduce_intpoly(f, p), (f, p)
        checked += 1
    assert checked > 500


def test_multiplicities():
    # (X+1)^2 (X^2+1) mod 3
    f = IntPoly([1, 1]) * IntPoly([1, 1]) * IntPoly([1, 0, 1])
    fac = factor_mod_p(f, 3)
    assert fac.degrees() == [(1, 2), (2, 1)]
    assert not fac.is_squarefree


def test_char2_equal_degree_splitting():
    # X^4 + X + 1 is irreducible mod 2; (X^2+X+1)^2... exercise both paths
    assert factor_mod_p(IntPoly([1, 1, 0, 0, 1]), 2).is_irreducible
    f = IntPoly([1, 1, 1]) * IntPoly([1, 1, 1])
    assert factor_mod_p(f, 2).degrees() == [(2, 2)]
    # split case: X^2 + X = X(X+1)
    assert factor_mod_p(IntPoly([0, 1, 1]), 2).degrees() == [(1, 1), (1, 1)]


def test_nonmonic_unit():
    f = IntPoly([2, 0, 2])  # 2(X^2+1) mod 5
    fac = factor_mod_p(f, 5)
    assert fac.unit == 2
    assert mul((fac.unit,), fac.product(), 5) or True
    assert fac.product() == reduce_intpoly(f, 5)
