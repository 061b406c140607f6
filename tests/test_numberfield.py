import random

import pytest

from gkcert.cyclotomic import cyclotomic_poly
from gkcert.errors import IrreducibilityUndecided, NotPrime, NotSquarefree, Reducible, UnsafePrime
from gkcert.intpoly import IntPoly, count_real_roots, from_vector, poly_discriminant
from gkcert.numberfield import (
    SplittingType,
    cyclotomic_field,
    is_totally_split,
    make_field,
    splitting_type,
)
from gkcert.numutil import euler_phi, kronecker, multiplicative_order, primes_upto

GAUSSIAN = make_field(IntPoly([1, 0, 1]))


def test_make_field_examples():
    assert GAUSSIAN.degree == 2 and GAUSSIAN.signature == (0, 1) and GAUSSIAN.poly_disc == -4
    cubic = make_field(from_vector([-12, -26, 0]))
    assert cubic.degree == 3 and cubic.signature == (3, 0)
    with pytest.raises(Reducible):
        make_field(IntPoly([-6, 5, 0, 1]))  # root X = 1
    with pytest.raises(Reducible):
        make_field(IntPoly([1, 2, 1]))  # (X+1)^2, disc = 0


def test_pattern_certification_a4_style():
    # Galois group A4 admits no irreducible reduction; the (2,2)/(1,3)
    # pattern crossing still certifies.  x^4 + 8x + 12 is the classic A4 quartic.
    F = make_field(IntPoly([12, 8, 0, 0, 1]))
    assert F.degree == 4


def test_undecided_for_biquadratic():
    # x^4 + 1 has Galois group (Z/8)^* = C2 x C2: every reduction factors,
    # and degree 2 survives every pattern, so certification must refuse.
    with pytest.raises(IrreducibilityUndecided):
        make_field(IntPoly([1, 0, 0, 0, 1]))
    # the degree-16 multiquadratic (5, 13, 17, 29): a_0 = 2^16 * 179^2 has 51
    # divisors, so the rational-root test is quick and the patterns decide
    with pytest.raises(IrreducibilityUndecided):
        make_field(from_vector([
            2099838976, 0, -182622224384, 0, 57222750208, 0, -6306349056, 0,
            315356928, 0, -7683072, 0, 92512, 0, -512, 0,
        ]))
    # the cyclotomic constructor covers that family soundly
    assert cyclotomic_field(8).degree == 4


def test_splitting_examples():
    assert splitting_type(GAUSSIAN, 5).entries == ((1, 1), (1, 1))
    assert splitting_type(GAUSSIAN, 3).entries == ((1, 2),)
    z7 = cyclotomic_field(7)
    assert splitting_type(z7, 2).entries == ((1, 3), (1, 3))
    with pytest.raises(NotPrime):
        splitting_type(GAUSSIAN, 9)


def test_totally_split():
    assert is_totally_split(GAUSSIAN, 13)
    assert not is_totally_split(GAUSSIAN, 7)
    assert is_totally_split(cyclotomic_field(5), 11)


def _real_cyclotomic_poly(m):
    """Minimal polynomial of 2 cos(2 pi / m): Phi_m(X) = X^d g(X + 1/X), and
    X^k + X^-k = D_k(X + 1/X) for the Dickson polynomials D_k."""
    phi = cyclotomic_poly(m).coeffs
    d = len(phi) // 2
    y = IntPoly([0, 1])
    dickson = [IntPoly([2]), y]
    while len(dickson) <= d:
        dickson.append(y * dickson[-1] - dickson[-2])
    g = IntPoly([phi[d]])
    for k in range(1, d + 1):
        g = g + phi[d + k] * dickson[k]
    return g


def _split_or_unsafe(is_split, F, p):
    try:
        return is_split(F, p)
    except UnsafePrime:
        return "unsafe"


def test_total_splitting_fast_path_matches_factorization():
    # is_totally_split (one Frobenius power when p does not divide disc f)
    # against the full factorization at every odd p <= 2000, on fields of
    # every degree 1-16: cyclotomic of degree 1, 2, 4, 6, 8, 10, 12, 16, real
    # cyclotomic of degree 3, 5, 6, 14, 15, random monic of degree 2, 3, 7,
    # 9, 11, 13
    fields = [cyclotomic_field(m) for m in (1, 3, 5, 7, 15, 11, 13, 17)]
    fields += [
        make_field(_real_cyclotomic_poly(m), "certified: real cyclotomic")
        for m in (7, 11, 13, 29, 31)
    ]
    rng = random.Random(20261018)
    for n in (2, 3, 7, 9, 11, 13):
        while True:
            f = from_vector([rng.randint(-9, 9) or 1] + [rng.randint(-5, 5) for _ in range(n - 1)])
            try:
                fields.append(make_field(f))
                break
            except (Reducible, IrreducibilityUndecided):
                pass
    orders = [make_field(IntPoly([-45, 0, 1])), make_field(IntPoly([-63, 0, 1]))]
    assert {F.degree for F in fields} == set(range(1, 17))
    seen = {True: 0, False: 0, "unsafe": 0}
    ramified = 0
    for F in fields + orders:
        for p in primes_upto(2000)[1:]:
            fast = _split_or_unsafe(is_totally_split, F, p)
            slow = _split_or_unsafe(lambda F, p: splitting_type(F, p).is_totally_split, F, p)
            assert fast == slow, (F, p)
            seen[fast] += 1
            ramified += F.poly_disc % p == 0
    # both paths and the unsafe raise are exercised: 3 divides the index of
    # Z[sqrt 45] and of Z[sqrt 63]
    assert all(seen.values()) and ramified
    for F in orders:
        assert _split_or_unsafe(is_totally_split, F, 3) == "unsafe"


def test_quadratic_reciprocity_small():
    for d in (2, 3, -1, -2, 10, -15, 21):
        F = make_field(IntPoly([-d, 0, 1]))
        disc = d if d % 4 == 1 else 4 * d
        for p in primes_upto(60):
            if p == 2 or d % p == 0:
                continue
            st = splitting_type(F, p)
            symbol = kronecker(disc, p)
            if symbol == 1:
                assert st.entries == ((1, 1), (1, 1))
            else:
                assert st.entries == ((1, 2),)


def test_cyclotomic_order_law_small():
    for m in (5, 8, 9, 12):
        F = cyclotomic_field(m)
        for p in primes_upto(40):
            if m % p == 0:
                continue
            st = splitting_type(F, p)
            f = multiplicative_order(p, m)
            assert st.entries == ((1, f),) * (euler_phi(m) // f)
            assert st.degree_sum == F.degree


def test_ramified_quadratic():
    F = make_field(IntPoly([-15, 0, 1]))
    assert splitting_type(F, 5).entries == ((2, 1),)
    assert splitting_type(F, 3).entries == ((2, 1),)


def test_unsafe_prime_dedekind():
    # x^2 - 12: Z[theta] has index 2 in the maximal order (12 = 4*3);
    # Dedekind's criterion must refuse p = 2 rather than misreport it.
    F = make_field(IntPoly([-12, 0, 1]))
    with pytest.raises(UnsafePrime):
        splitting_type(F, 2)
    # but p = 2 stays fine for x^2 - 3 itself
    F3 = make_field(IntPoly([-3, 0, 1]))
    splitting_type(F3, 2)


def test_splitting_type_invariants():
    st = SplittingType(p=5, entries=((1, 2), (1, 1)))
    assert st.entries == ((1, 1), (1, 2))  # sorted
    assert st.degree_sum == 3 and not st.is_totally_split


def test_splitting_type_factors_each_pair_once(monkeypatch):
    # p^2 | disc(X^3 - 2) = -108 at p = 3, so the Dedekind test runs too
    import gkcert.numberfield

    F = make_field(IntPoly([-2, 0, 0, 1]))
    calls = []
    factor = gkcert.numberfield.factor_mod_p

    def counting(f, p):
        calls.append((f, p))
        return factor(f, p)

    monkeypatch.setattr(gkcert.numberfield, "factor_mod_p", counting)
    st = splitting_type(F, 3)
    assert len(calls) == 1
    assert st.entries == ((3, 1),)


def test_field_layer_against_sympy():
    # sympy is the oracle for rational roots, squarefreeness, real-root counts
    # and discriminants of seeded random monic polynomials
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20240605)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 8)
        cases.append(from_vector([rng.randint(-9, 9) for _ in range(n)]))
    for _ in range(20):  # (X - r) * g: an integer root to find
        g = from_vector([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        cases.append(IntPoly([-rng.randint(-12, 12), 1]) * g)
    for _ in range(20):  # |a_0| > 10^6
        n = rng.randint(2, 8)
        a0 = rng.choice([-1, 1]) * rng.randint(10**6 + 1, 10**9)
        cases.append(from_vector([a0] + [rng.randint(-50, 50) for _ in range(n - 1)]))
    for _ in range(10):  # repeated factors
        g = from_vector([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
        cases.append(g * g * from_vector([rng.randint(1, 5), 0]))
    undecided = 0
    for f in cases:
        P = sympy.Poly(list(reversed(f.coeffs)), x)
        integer_root = bool(sympy.roots(P, filter="Z"))
        squarefree = sympy.sqf_part(P).degree() == P.degree()
        if squarefree:
            assert count_real_roots(f) == P.count_roots(), f
        else:
            with pytest.raises(NotSquarefree):
                count_real_roots(f)
        if integer_root:
            with pytest.raises(Reducible):
                make_field(f)
            continue
        try:
            F = make_field(f)
        except IrreducibilityUndecided:
            undecided += 1
            continue
        except Reducible:
            assert not P.is_irreducible, f
            continue
        assert P.is_irreducible, f
        assert F.r1 == P.count_roots(), f
        assert F.poly_disc == poly_discriminant(f) == sympy.discriminant(P), f
    assert undecided < len(cases) // 4
