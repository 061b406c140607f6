import random
from functools import lru_cache
from math import isqrt

import pytest

from gkcert.errors import IrreducibilityUndecided, NotPrime, NotSquarefree, Reducible, UnsafePrime
from gkcert.intpoly import IntPoly, count_real_roots, from_vector, poly_discriminant
from gkcert.modpoly import factor_mod_p
from gkcert.numberfield import (
    SplittingType,
    _certify_irreducible,
    _factor_degrees,
    _is_totally_split,
    _subset_sums,
    make_field,
    splitting_type,
)
from gkcert.numutil import divisors, is_prime, kronecker, primes_upto
from helpers import (
    cyclotomic_field,
    known_irreducible_field,
    multiplicative_order,
    real_cyclotomic_poly,
)

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


def _certify_by_factor_mod_p(f, disc):
    """The irreducibility certificate on full factor_mod_p factorizations:
    the verdict and exception message _certify_irreducible must give."""
    n = f.degree
    if n == 1:
        return None
    a0 = f.coeffs[0]
    if a0 == 0:
        return Reducible, f"{f} has root 0"
    for d in divisors(a0):
        for r in (d, -d):
            if f(r) == 0:
                return Reducible, f"{f} has root {r}"
    candidates = None
    p, used = 2, 0
    while used < 25:
        if is_prime(p) and disc % p != 0:
            used += 1
            degrees = factor_mod_p(f, p).degrees()
            if degrees == [(n, 1)]:
                return None
            proper = {s for s in _subset_sums([d for d, _ in degrees]) if 0 < s < n}
            candidates = proper if candidates is None else candidates & proper
            if not candidates:
                return None
        p += 1
    return IrreducibilityUndecided, (
        f"cannot certify irreducibility of {f} from factorization patterns; "
        f"surviving factor degrees {sorted(candidates or set())}"
    )


def test_irreducibility_patterns_match_factor_mod_p():
    # random monic f, a third of them a product of two monic factors, and
    # x^4 + 1 and the A4 quartic: the distinct-degree patterns equal
    # factor_mod_p's at every prime coprime to disc(f), and the verdicts and
    # messages equal those of the certificate built on factor_mod_p
    rng = random.Random(2021)
    polys = [IntPoly([1, 0, 0, 0, 1]), IntPoly([12, 8, 0, 0, 1])]
    while len(polys) < 150:
        if rng.random() < 1 / 3:
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
            f = f * IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
        else:
            f = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 10))] + [1])
        if f.degree >= 2 and poly_discriminant(f) != 0:
            polys.append(f)
    verdicts = set()
    for f in polys:
        disc = poly_discriminant(f)
        for p in [p for p in primes_upto(60) if disc % p][:8]:
            assert _factor_degrees(f, p) == [d for d, _ in factor_mod_p(f, p).degrees()], (f, p)
        want = _certify_by_factor_mod_p(f, disc)
        try:
            _certify_irreducible(f, disc)
        except (Reducible, IrreducibilityUndecided) as exc:
            got = (type(exc), str(exc))
        else:
            got = None
        assert got == want, f
        verdicts.add(want[0] if want else None)
    assert verdicts == {None, Reducible, IrreducibilityUndecided}


def test_splitting_examples():
    assert splitting_type(GAUSSIAN, 5).entries == ((1, 1), (1, 1))
    assert splitting_type(GAUSSIAN, 3).entries == ((1, 2),)
    z7 = cyclotomic_field(7)
    assert splitting_type(z7, 2).entries == ((1, 3), (1, 3))
    with pytest.raises(NotPrime):
        splitting_type(GAUSSIAN, 9)


def test_totally_split():
    assert _is_totally_split(GAUSSIAN, 13)
    assert not _is_totally_split(GAUSSIAN, 7)
    assert _is_totally_split(cyclotomic_field(5), 11)


def _split_or_unsafe(is_split, F, p):
    try:
        return is_split(F, p)
    except UnsafePrime:
        return "unsafe"


@lru_cache(maxsize=None)
def _splitting_fields():
    """Fields of every degree 1-16: cyclotomic of degree 1, 2, 4, 6, 8, 10,
    12, 16, real cyclotomic of degree 3, 5, 6, 14, 15, random monic of
    degree 2, 3, 7, 9, 11, 13."""
    fields = [cyclotomic_field(m) for m in (1, 3, 5, 7, 15, 11, 13, 17)]
    fields += [
        known_irreducible_field(real_cyclotomic_poly(m))
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
    assert {F.degree for F in fields} == set(range(1, 17))
    return tuple(fields)


def test_total_splitting_fast_path_matches_factorization():
    # _is_totally_split (Stickelberger's sign, then one Frobenius power, when
    # p does not divide disc f) against the full factorization at every
    # p <= 2000, p = 2 included, on fields of every degree 1-16
    fields = list(_splitting_fields())
    orders = [make_field(IntPoly([-45, 0, 1])), make_field(IntPoly([-63, 0, 1]))]
    seen = {True: 0, False: 0, "unsafe": 0}
    ramified = 0
    for F in fields + orders:
        for p in primes_upto(2000):
            fast = _split_or_unsafe(_is_totally_split, F, p)
            slow = _split_or_unsafe(lambda F, p: splitting_type(F, p).is_totally_split, F, p)
            assert fast == slow, (F, p)
            seen[fast] += 1
            ramified += F.poly_disc % p == 0
    # both paths and the unsafe raise are exercised: 3 divides the index of
    # Z[sqrt 45] and of Z[sqrt 63]
    assert all(seen.values()) and ramified
    for F in orders:
        assert _split_or_unsafe(_is_totally_split, F, 3) == "unsafe"
    # at p = 2 the Frobenius power decides: 2 splits in Q(sqrt 17) and is
    # inert in Q(sqrt 5), with disc f = 17 and 5
    assert _is_totally_split(make_field(IntPoly([-4, -1, 1])), 2)
    assert not _is_totally_split(make_field(IntPoly([-1, -1, 1])), 2)


def test_stickelberger_sign_matches_factor_count():
    # the theorem _is_totally_split skips the Frobenius power by: at odd p
    # not dividing disc f, (disc f | p) = (-1)^(n - r) with r the number of
    # irreducible factors of f mod p
    rejected = {}
    for F in _splitting_fields():
        rejected[F] = 0
        for p in primes_upto(2000)[1:]:
            if F.poly_disc % p:
                r = len(factor_mod_p(F.defining_poly, p).degrees())
                symbol = kronecker(F.poly_disc, p)
                assert symbol == (-1) ** (F.degree - r), (F, p)
                rejected[F] += symbol == -1
    # a square discriminant (Galois group inside A_n) never rejects a prime,
    # a non-square one rejects some; both kinds are present, among the
    # squares the real cyclotomic fields of degree 3 and 15 (m = 7, 31)
    squares = {F.defining_poly for F, count in rejected.items() if count == 0}
    for F, count in rejected.items():
        assert (count == 0) == (F.poly_disc > 0 and isqrt(F.poly_disc) ** 2 == F.poly_disc), F
    assert {real_cyclotomic_poly(7), real_cyclotomic_poly(31)} <= squares
    assert len(squares) < len(rejected)


def test_stickelberger_factor_counts_against_sympy():
    # factor_mod_p's factor degrees, which the theorem test reads r from,
    # against sympy's gf_factor at every odd p < 200 not dividing disc f
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    for F in _splitting_fields():
        for p in primes_upto(200)[1:]:
            if F.poly_disc % p:
                f = [c % p for c in reversed(F.defining_poly.coeffs)]
                theirs = sorted(len(g) - 1 for g, _ in gf_factor(f, p, ZZ)[1])
                ours = [d for d, _ in factor_mod_p(F.defining_poly, p).degrees()]
                assert ours == theirs, (F, p)
                assert kronecker(F.poly_disc, p) == (-1) ** (F.degree - len(theirs)), (F, p)


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
            assert st.entries == ((1, f),) * (F.degree // f)
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
