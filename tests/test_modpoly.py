import os
import random
import subprocess
import sys

import pytest

from gkcert.cyclotomic import cyclotomic_poly
from gkcert.errors import IrreducibilityUndecided, NotPrime, Reducible, ZeroPolynomial
from gkcert.intpoly import IntPoly, from_vector
from gkcert.modpoly import (
    barrett_mu,
    deg,
    divmod_p,
    factor_mod_p,
    gcd_p,
    is_irreducible_mod_p,
    mul,
    pow_mod,
    reduce_intpoly,
    rem,
    sub,
    X_P,
)
from gkcert.numberfield import make_field
from gkcert.numutil import MR_BOUND, is_prime

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


# 2 and 3, primes just below and above 2^8, 2^16, 2^31 (above only), 2^32 and
# 2^64, the Mersenne prime 2^61 - 1, 10^12 + 39, and the largest prime below
# MR_BOUND: slot widths and the reduction constants change at these sizes
EDGE_PRIMES = [
    2, 3, 251, 257, 65521, 65537, 2147483659, 4294967291, 4294967311, 2**61 - 1,
    18446744073709551557, 18446744073709551629, 10**12 + 39, 3317044064679887385961813,
]


def _naive_pow_mod(base, e, mod, p):
    """Right-to-left square and multiply with schoolbook ``mul`` and ``rem``."""
    out, b = rem((1,), mod, p), rem(base, mod, p)
    while e:
        if e & 1:
            out = rem(mul(out, b, p), mod, p)
        b = rem(mul(b, b, p), mod, p)
        e >>= 1
    return out


def _sympy_pow_mod(base, e, mod, p):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    out = gf_pow_mod([ZZ(c) for c in reversed(base)], e, [ZZ(c) for c in reversed(mod)], p, ZZ)
    return tuple(int(c) for c in reversed(out))


def _slot_bound_cases(p):
    """(base, e, mod) with every coefficient p - 1, for n = 1..24: the largest
    slot values a product can hold.  Moduli X^n + (p-1)(X^(n-1) + ... + 1) and
    X^n + X^(n-1) + ... + 1 make X^n mod m all 1 or all p - 1.  e = p^n while
    its n * bitlen(p) bits stay affordable for the schoolbook oracle, else
    p and p^2 at n <= 4; e = 2 and 3 at every n."""
    for n in range(1, 25):
        full = (p - 1,) * (n + 1)
        for mod in ((p - 1,) * n + (1,), (1,) * (n + 1), full):
            exps = [2, 3]
            if n * p.bit_length() <= 128:
                exps.append(p**n)
            elif n <= 4:
                exps += [p, p * p]
            for e in exps:
                yield full[:n], e, mod
                yield full, e, mod  # a base of degree n, reduced first


def test_edge_primes_are_prime():
    sympy = pytest.importorskip("sympy")
    assert EDGE_PRIMES[-1] == sympy.prevprime(MR_BOUND)
    assert all(is_prime(p) and sympy.isprime(p) for p in EDGE_PRIMES)


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_pow_mod_at_the_slot_bounds(p):
    pytest.importorskip("sympy")
    for base, e, mod in _slot_bound_cases(p):
        want = _naive_pow_mod(base, e, mod, p)
        assert pow_mod(base, e, mod, p) == want, (base, e, mod, p)
        assert _sympy_pow_mod(base, e, mod, p) == want, (base, e, mod, p)


def test_pow_mod_at_the_slot_bounds_under_optimize():
    """One worst case of every edge prime under ``python -O``, where no
    assert statement runs: the kernel has none to lose."""
    here = os.path.dirname(__file__)
    script = (
        "from gkcert.modpoly import pow_mod\n"
        "from test_modpoly import EDGE_PRIMES, _naive_pow_mod\n"
        "for p in EDGE_PRIMES:\n"
        "    full = (p - 1,) * 17\n"
        "    m = (p - 1,) * 16 + (1,)\n"
        "    print(pow_mod(full, p, m, p) == _naive_pow_mod(full, p, m, p))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * len(EDGE_PRIMES), proc.stdout


def test_barrett_mu_is_the_quotient_and_a_fields_mu_reduces_to_it():
    """barrett_mu(m, p) is floor(X^(2n-2) / m) mod p, and a field's stored mu
    over Z, reduced mod p, is the same polynomial."""
    rng = random.Random(17)
    fields = [make_field(cyclotomic_poly(m), "cyclotomic") for m in (3, 13, 17)]
    fields += [make_field(IntPoly([10**7 + 3, 5, -6, -2, 1])), make_field(IntPoly([-2, 1]))]
    while len(fields) < 8:
        n = rng.choice([7, 10, 14, 16])
        f = IntPoly([rng.randrange(-9, 10)] + [rng.randrange(-5, 6) for _ in range(n - 1)] + [1])
        try:
            fields.append(make_field(f))
        except (Reducible, IrreducibilityUndecided):
            continue
    for F in fields:
        assert len(F.barrett_mu) == max(F.degree - 1, 0)
        for p in EDGE_PRIMES + [5, 7, 797]:
            m = reduce_intpoly(F.defining_poly, p)
            mu = barrett_mu(m, p)
            assert tuple(c % p for c in F.barrett_mu) == mu, (F, p)
            top = (0,) * (2 * F.degree - 2) + (1,)
            assert divmod_p(top, m, p)[0] == mu, (F, p)
