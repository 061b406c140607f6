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


def test_pow_mod_against_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    def oracle(base, e, mod, p):
        out = gf_pow_mod([ZZ(c) for c in reversed(base)], e, [ZZ(c) for c in reversed(mod)], p, ZZ)
        return tuple(int(c) for c in reversed(out))

    rng = random.Random(20261018)
    primes = [2, 3, 5, 7, 13, 101, 797, 2003, 9973]

    def rand(degree, p, monic=False):
        lead = 1 if monic else rng.randrange(1, p)
        return tuple(rng.randrange(p) for _ in range(degree)) + (lead,)

    cases = []
    for i in range(600):
        p = primes[i % len(primes)]
        n = rng.randint(0, 16)  # degree-0 and degree-1 moduli included
        mod = rand(n, p, monic=i % 2 == 0)  # every other one with a random leading coefficient
        kind = i % 5
        if kind == 0:
            base = ()
        elif kind == 1:
            base = rand(rng.randint(n, 2 * n + 3), p)  # degree >= the modulus
        else:
            base = rand(rng.randint(0, max(n - 1, 0)), p)
        e = rng.choice([0, 1, 2, p, p**n, p ** (n + 1), rng.randrange(10**9)])
        cases.append((base, e, mod, p))
    cases += [((5,), 0, (7,), 11), ((), 0, (0, 1), 2)]
    for base, e, mod, p in cases:
        assert pow_mod(base, e, mod, p) == oracle(base, e, mod, p), (base, e, mod, p)
    with pytest.raises(ZeroDivisionError):
        pow_mod(X_P, 3, (), 5)
