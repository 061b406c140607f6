"""Elementary number-theoretic utilities: primality, factorization of small
integers, Kronecker symbols, square roots and primitive roots mod p.

Everything here is exact integer arithmetic.  Primality is trial division
below 43^2, then a deterministic Miller-Rabin (four bases, proven below
3 215 031 751, and 13 bases, proven below MR_BOUND; outside input at or
above MR_BOUND is refused where it is read); factorization is trial
division, which is all the artifact needs (discriminants, conductors and
group orders stay small).
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import gcd, isqrt

from .errors import NotPrime

# Deterministic Miller-Rabin bases for n < MR_BOUND; trial division by the
# same primes decides every n < 43^2.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_BOUND = 43 * 43

# The smallest strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster, Math. Comp. 86 (2017)); is_prime calls it prime.
MR_BOUND = 3317044064679887385961981

# The smallest strong pseudoprime to the bases 2, 3, 5 and 7, 151 * 751 *
# 28351 (Jaeschke, Math. Comp. 61 (1993)): below it those four bases suffice.
_FOUR_BASE_BOUND = 3215031751


def is_prime(n: int) -> bool:
    """Primality of n, proven for n < MR_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < _FOUR_BASE_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def _prime_sieve(bound: int) -> bytearray:
    """Sieve of Eratosthenes: byte i is 1 exactly when i <= bound is prime."""
    if bound < 2:
        return bytearray(max(bound + 1, 0))
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return sieve


def primes_upto(bound: int) -> list[int]:
    """Ascending primes <= bound."""
    sieve = _prime_sieve(bound)
    return list(compress(range(len(sieve)), sieve))


def split_primes_upto(bound: int, discs) -> list[int]:
    """Ascending primes p <= bound with (d|p) = 1 for every d in ``discs``,
    i.e. the primes that split in each Q(sqrt d); a prime dividing some d is
    excluded.  Each d must be a discriminant (else ValueError).

    (d|p) depends only on p mod |d| (``discriminant_symbol``), so each d
    gives a row of |d| bytes, 1 at the residues r with (d|r) = 1.  The row is
    tiled to the prime sieve's length and ANDed into it as one integer mask.
    """
    sieve = _prime_sieve(bound)
    n = len(sieve)
    mask = int.from_bytes(sieve, "little")
    for d in discs:
        m = abs(_require_discriminant(d))
        row = bytes(discriminant_symbol(d, r or m) == 1 for r in range(m))
        mask &= int.from_bytes((row * (n // m + 1))[:n], "little")
    return list(compress(range(n), mask.to_bytes(n, "little")))


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division; {} for n in {0, 1, -1}."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Ascending positive divisors of |n| != 0, built from its factorization."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def prime_support(n: int) -> frozenset[int]:
    return frozenset(factorint(n))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of Jacobi/Legendre."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # strip factors of 2 from n; (a|2) = 0, 1, -1 for a even, a = +-1 (8), a = +-3 (8)
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi on odd n > 0
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def discriminant_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d|n) for a discriminant d = 0, 1 (mod 4), d != 0,
    and n >= 1, computed once per residue n mod |d|.

    For such d, n -> (d|n) is periodic mod |d| on n >= 1 (Cohen, *A Course
    in Computational Algebraic Number Theory*, Thm 1.4.9), and it is 0
    exactly when gcd(d, n) > 1.  So (d|n) = (d|r) for r = n mod |d| (at
    r = 0 too, where ``kronecker`` gives (1|0) = 1 and (d|0) = 0 for
    |d| > 1), and ``kronecker`` runs at most |d| times per d.
    """
    _require_discriminant(d)
    if n < 1:
        raise ValueError(f"(d|n) is periodic in n only for n >= 1, got n = {n}")
    return _residue_symbol(d, n % abs(d))


def _require_discriminant(d: int) -> int:
    if d == 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a discriminant (need d = 0, 1 mod 4, d != 0)")
    return d


@cache
def _residue_symbol(d: int, r: int) -> int:
    return kronecker(d, r)


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*; a must be coprime to m."""
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = euler_phi(m)
    for p in factorint(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod p (odd prime), or None for a non-residue.

    Tonelli-Shanks with the non-residue found by deterministic scan, so the
    returned root is reproducible.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def primitive_root(p: int) -> int:
    """Smallest primitive root mod the prime p."""
    require_prime(p)
    if p == 2:
        return 1
    fac = factorint(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
        g += 1


def is_fundamental_discriminant(d: int) -> bool:
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and is_squarefree(q)
    return False
