import random

import pytest

from gkcert.errors import SchemaViolation
from gkcert.numutil import (
    MR_BOUND,
    _residue_symbol,
    discriminant_symbol,
    factorint,
    is_prime,
    kronecker,
    primes_upto,
    primitive_root,
    split_primes_upto,
    sqrt_mod_p,
)
from gkcert.schema import Node
from helpers import is_fundamental_discriminant, multiplicative_order


def test_primality_small():
    primes = set(primes_upto(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes)


def test_primes_upto_every_small_bound():
    for bound in range(-2, 301):
        assert primes_upto(bound) == [n for n in range(bound + 1) if is_prime(n)], bound


def test_primality_carmichael_and_large():
    assert not is_prime(561) and not is_prime(41041)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


# 151 * 751 * 28351, the smallest strong pseudoprime to the bases 2, 3, 5 and 7
FOUR_BASE_SPSP = 3215031751


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_four_base_strong_pseudoprime_is_rejected():
    assert FOUR_BASE_SPSP == 151 * 751 * 28351
    assert all(_strong_probable_prime(FOUR_BASE_SPSP, a) for a in (2, 3, 5, 7))
    assert not _strong_probable_prime(FOUR_BASE_SPSP, 11)
    assert not is_prime(FOUR_BASE_SPSP)
    # 43^2 is the first composite that no base divides: Miller-Rabin decides it
    assert is_prime(1847) and not is_prime(43 * 43) and is_prime(1861)


def test_primality_matches_sympy_and_input_at_the_bound_is_refused():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    samples = [rng.randrange(2, 10**k) for k in (6, 12, 18, 24) for _ in range(200)]
    samples += [MR_BOUND + rng.randrange(-(10**6), 10**6) for _ in range(400)]
    # primes and products of two primes, which random odd n seldom are
    samples += [sympy.nextprime(rng.randrange(10**k)) for k in (8, 12, 24) for _ in range(30)]
    samples += [
        sympy.nextprime(rng.randrange(10**11)) * sympy.nextprime(rng.randrange(10**12))
        for _ in range(30)
    ]
    # across the trial-division bound 43^2 and the four-base bound, with the
    # smallest strong pseudoprimes to 2 and 3, to 2, 3 and 5, to 2, 3, 5 and
    # 7, and to 2, 3, 5, 7 and 11
    samples += list(range(1700, 2000))
    samples += [FOUR_BASE_SPSP + rng.randrange(-(10**6), 10**6) for _ in range(400)]
    samples += [1373653, 25326001, FOUR_BASE_SPSP - 2, FOUR_BASE_SPSP, 2152302898747]
    refused = 0
    for n in samples + [MR_BOUND - 1, MR_BOUND]:
        if n < MR_BOUND:
            assert Node(n, "p").prime_candidate() == n
            assert is_prime(n) == sympy.isprime(n), n
        else:
            with pytest.raises(SchemaViolation, match="^p: "):
                Node(n, "p").prime_candidate()
            refused += 1
    assert refused > 100
    # the bound is tight: is_prime is wrong at MR_BOUND itself
    assert is_prime(MR_BOUND) and not sympy.isprime(MR_BOUND)


def test_factorint():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(-17) == {17: 1}
    assert factorint(1) == {}


def test_kronecker_matches_legendre():
    rng = random.Random(1)
    for p in primes_upto(100):
        if p == 2:
            continue
        for _ in range(20):
            a = rng.randrange(-50, 50)
            squares = {x * x % p for x in range(1, p)}
            if a % p == 0:
                expect = 0
            elif a % p in squares:
                expect = 1
            else:
                expect = -1
            assert kronecker(a, p) == expect


def test_kronecker_multiplicativity():
    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.randrange(-30, 30), rng.randrange(-30, 30)
        n = rng.randrange(1, 60)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_sqrt_mod_p():
    for p in primes_upto(200):
        if p == 2:
            continue
        for a in range(p):
            r = sqrt_mod_p(a, p)
            if r is None:
                assert pow(a, (p - 1) // 2, p) == p - 1
            else:
                assert r * r % p == a % p


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(10, 7) == 6
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


def test_primitive_root():
    for p in primes_upto(100):
        g = primitive_root(p)
        if p > 2:
            assert multiplicative_order(g, p) == p - 1


def test_fundamental_discriminants():
    good = [5, 8, 12, 13, -3, -4, -7, -8, 21, 29]
    bad = [0, 1, 2, 3, 6, 9, -1, -2, 25, 45]
    assert all(is_fundamental_discriminant(d) for d in good)
    assert not any(is_fundamental_discriminant(d) for d in bad)


def test_discriminant_symbol_matches_kronecker():
    discs = [d for d in range(-200, 201) if abs(d) > 1 and is_fundamental_discriminant(d)]
    assert {d % 4 for d in discs} == {0, 1} and min(discs) < 0 < max(discs)
    primes = primes_upto(3000)[1:]
    assert sum(d % p == 0 for d in discs for p in primes) > len(discs)  # p | d included
    for d in discs:
        for p in primes:
            want = kronecker(d, p)
            assert discriminant_symbol(d, p) == want, (d, p)
            assert (want == 0) == (d % p == 0)


def test_discriminant_symbol_on_every_n_and_nonfundamental_d():
    for d in range(-60, 61):
        if d != 0 and d % 4 in (0, 1):  # squares and 4 * 9 included
            for n in range(1, 400):
                assert discriminant_symbol(d, n) == kronecker(d, n), (d, n)


def test_discriminant_symbol_refuses_non_discriminants():
    for d in (2, 3, -1, -2, 6, 7, -5, 0):
        with pytest.raises(ValueError):
            discriminant_symbol(d, 7)
    for n in (0, -3):
        with pytest.raises(ValueError):
            discriminant_symbol(5, n)


_PRIMES_5000 = [n for n in range(5001) if is_prime(n)]


def _split_by_kronecker(bound, discs):
    return [p for p in _PRIMES_5000 if p <= bound and all(kronecker(d, p) == 1 for d in discs)]


def test_split_primes_upto_matches_kronecker_filter():
    discs = [d for d in range(-200, 201) if is_fundamental_discriminant(d)]
    assert {-199, -184, -4, -3, 8, 12, 28, 197} <= set(discs)
    for d in discs:
        for bound in sorted({0, 1, 2, 3, abs(d) - 1, abs(d), abs(d) + 1, 5000}):
            got = split_primes_upto(bound, [d])
            assert got == _split_by_kronecker(bound, [d]), (d, bound)
            assert not any(d % p == 0 for p in got)
    rng = random.Random(1313)
    for _ in range(60):
        chosen = rng.sample(discs, rng.randint(2, 5))
        for bound in (0, 3, min(map(abs, chosen)), 5000):
            assert split_primes_upto(bound, chosen) == _split_by_kronecker(bound, chosen), (chosen, bound)


def test_split_primes_upto_with_discriminants_above_the_bound():
    # a row needs only the residues up to the bound, so a discriminant far
    # above it costs what the bound costs, and the sieve caches nothing
    rng = random.Random(2222)
    large = [4000012, 10000121, 999999999989, -999999999995, -4000004]
    large += [d for d in (rng.randrange(-10**12, 10**12) for _ in range(60)) if d % 4 in (0, 1)][:20]
    small = [5, -3, 8, -4, 12, 13]
    cached = _residue_symbol.cache_info().currsize
    for bound in (0, 2, 3, 1000, 5000):
        for d in large:
            assert split_primes_upto(bound, [d]) == _split_by_kronecker(bound, [d]), (d, bound)
        for _ in range(10):
            chosen = rng.sample(large, 2) + rng.sample(small, rng.randint(0, 2))
            assert split_primes_upto(bound, chosen) == _split_by_kronecker(bound, chosen), (chosen, bound)
    assert _residue_symbol.cache_info().currsize == cached


def test_split_primes_upto_refuses_non_discriminants():
    for d in (2, 3, -1, -2, 6, 7, -5, 0):
        with pytest.raises(ValueError):
            split_primes_upto(100, [5, d])
