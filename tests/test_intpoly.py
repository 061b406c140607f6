import random
from fractions import Fraction

import pytest

from gkcert.errors import NotMonic, NotSquarefree
from gkcert.intpoly import (
    IntPoly,
    count_real_roots,
    from_vector,
    poly_discriminant,
    resultant,
    sturm_sequence,
)

X2_PLUS_1 = IntPoly([1, 0, 1])
X2_MINUS_2 = IntPoly([-2, 0, 1])


def bisection_root_count(f: IntPoly) -> int:
    """Independent oracle: Descartes-rule bisection isolation (no Sturm
    machinery).  Exact over Fractions; terminates on squarefree input."""

    def variations(coeffs):
        signs = [(c > 0) - (c < 0) for c in coeffs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def mobius_coeffs(a, b):
        # (1+t)^n f((a + b t)/(1 + t)): roots of f in (a,b) <-> roots in t > 0
        n = f.degree
        total = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(f.coeffs):
            if ci == 0:
                continue
            # (a + b t)^i * (1 + t)^(n-i)
            part = [Fraction(1)]
            for _ in range(i):
                part = [
                    (a * part[k] if k < len(part) else 0)
                    + (b * part[k - 1] if k >= 1 else 0)
                    for k in range(len(part) + 1)
                ]
            for _ in range(n - i):
                part = [
                    (part[k] if k < len(part) else 0) + (part[k - 1] if k >= 1 else 0)
                    for k in range(len(part) + 1)
                ]
            for k, c in enumerate(part):
                total[k] += ci * c
        return total

    def count_open(a, b):
        v = variations(mobius_coeffs(a, b))
        if v == 0:
            return 0
        if v == 1:
            return 1
        m = (a + b) / 2
        return count_open(a, m) + (1 if f(m) == 0 else 0) + count_open(m, b)

    bound = Fraction(1 + max(abs(c) for c in f.coeffs))
    assert f(-bound) != 0 and f(bound) != 0
    return count_open(-bound, bound)


def test_construction_and_degree():
    f = IntPoly([1, 2, 0, 0])
    assert f.degree == 1 and f.coeffs == (1, 2)
    assert IntPoly([]).is_zero and IntPoly([0, 0]).is_zero
    assert from_vector([-12, -26, 0]).coeffs == (-12, -26, 0, 1)


def test_arithmetic():
    f = IntPoly([1, 1])
    g = IntPoly([-1, 1])
    assert (f * g).coeffs == (-1, 0, 1)
    assert (f + g).coeffs == (0, 2)
    assert (f - f).is_zero
    assert f(3) == 4 and f(Fraction(1, 2)) == Fraction(3, 2)
    assert IntPoly([0, 0, 0, 1]).derivative().coeffs == (0, 0, 3)


def test_discriminant_trivial_cases():
    assert poly_discriminant(X2_PLUS_1) == -4
    assert poly_discriminant(X2_MINUS_2) == 8
    with pytest.raises(NotMonic):
        poly_discriminant(IntPoly([1, 2]))


def test_discriminant_cubic_from_roots():
    # X^3 - X has roots {-1, 0, 1}: disc = prod_{i<j} (r_i - r_j)^2
    roots = [-1, 0, 1]
    expected = 1
    for i in range(3):
        for j in range(i + 1, 3):
            expected *= (roots[i] - roots[j]) ** 2
    assert expected == 4
    assert poly_discriminant(IntPoly([0, -1, 0, 1])) == expected


def test_resultant_vs_fraction_euclid():
    def res_oracle(f, g):
        # Res(f, g) = lc(g)^(deg f - deg r) (-1)^(deg f deg g) Res(g, r)
        if f.is_zero or g.is_zero:
            return Fraction(0)
        if g.degree == 0:
            return Fraction(g.coeffs[0]) ** f.degree
        a = [Fraction(c) for c in f.coeffs]
        b = [Fraction(c) for c in g.coeffs]
        # remainder of a by b
        while len(a) - 1 >= len(b) - 1 and a:
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
        r = IntPolyQ(a)
        sign = -1 if (f.degree * g.degree) % 2 else 1
        if r.deg < 0:
            return Fraction(0)
        return sign * Fraction(g.coeffs[-1]) ** (f.degree - r.deg) * res_oracle_q(g, r)

    class IntPolyQ:
        def __init__(self, cs):
            self.cs = list(cs)

        @property
        def deg(self):
            return len(self.cs) - 1

    def res_oracle_q(f, r):
        # continue with fraction coefficients
        a = [Fraction(c) for c in f.coeffs]
        b = list(r.cs)
        sign = 1
        total = Fraction(1)
        while True:
            da, db = len(a) - 1, len(b) - 1
            if db < 0:
                return Fraction(0)
            if db == 0:
                return total * b[0] ** da
            rem = list(a)
            while len(rem) - 1 >= db and rem:
                q = rem[-1] / b[-1]
                shift = len(rem) - len(b)
                for i, c in enumerate(b):
                    rem[shift + i] -= q * c
                while rem and rem[-1] == 0:
                    rem.pop()
            dr = len(rem) - 1
            total *= (-1) ** (da * db) * b[-1] ** (da - dr)
            a, b = b, rem

    rng = random.Random(3)
    for _ in range(100):
        f = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randint(1, 6))] + [rng.randrange(1, 4)])
        g = IntPoly([rng.randrange(-5, 6) for _ in range(rng.randint(1, 6))] + [rng.randrange(1, 4)])
        got = resultant(f, g)
        want = res_oracle(f, g)
        assert want.denominator == 1 and got == want.numerator, (f, g)


def test_count_real_roots_examples():
    assert count_real_roots(X2_PLUS_1) == 0
    assert count_real_roots(X2_MINUS_2) == 2
    # cubic from the published table, via the independent bisection oracle
    f = from_vector([-12, -26, 0])
    assert bisection_root_count(f) == 3
    assert count_real_roots(f) == 3


def test_count_real_roots_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        count_real_roots(IntPoly([1, 2, 1]))  # (x+1)^2


def test_root_count_matches_bisection_oracle():
    rng = random.Random(4)
    checked = 0
    while checked < 100:
        degree = rng.choice([3, 4])
        f = IntPoly([rng.randrange(-8, 9) for _ in range(degree)] + [1])
        if poly_discriminant(f) == 0:  # monic f: squarefree iff disc != 0
            continue
        assert count_real_roots(f) == bisection_root_count(f), f
        # real roots + complex pairs fill the degree
        assert (f.degree - count_real_roots(f)) % 2 == 0
        checked += 1


def test_count_real_roots_against_sympy():
    # seeded sparse non-monic polynomials of degree 1-32, leading coefficients
    # of both signs; sparse ones make Sturm remainders drop more than one
    # degree, so deg a - deg b takes both parities
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(10)
    branches = set()
    for _ in range(300):
        n = rng.randint(1, 32)
        density = rng.choice([0.2, 0.5, 1.0])
        cs = [rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(n)]
        f = IntPoly(cs + [rng.choice([-1, 1]) * rng.randint(1, 6)])
        g = sympy.Poly(list(reversed(f.coeffs)), x)
        if not g.is_sqf:
            with pytest.raises(NotSquarefree):
                count_real_roots(f)
            continue
        assert count_real_roots(f) == g.count_roots(), f
        chain = sturm_sequence(f)
        for a, b in zip(chain, chain[1:-1]):
            branches.add((b.lc < 0, (a.degree - b.degree) % 2))
    # both sign rules of the integer Sturm step ran, with either sign of lc(b)
    assert branches == {(False, 0), (False, 1), (True, 0), (True, 1)}
