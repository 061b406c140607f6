"""Polynomial arithmetic and factorization over F_p.

Polynomials over F_p are plain tuples of ints in [0, p), constant term
first, trailing zeros stripped (the zero polynomial is ()).  On top of the
ring operations this module factors f mod p as far as Dedekind's theorem
needs: squarefree decomposition, then distinct-degree splitting, which
yields the degree and multiplicity of every irreducible factor without
separating factors of equal degree.  Both stages are deterministic; nothing
here is random.

The hot kernel is ``pow_mod``, the Frobenius powers X^(p^d) mod (g, p) of
distinct-degree splitting, of Rabin's test and of the total-splitting test.
It works on a fixed modulus: residues are packed into one integer each
(Kronecker substitution, von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 8), so a product is one big-int multiply.  The product is reduced mod g
by polynomial Barrett reduction (Barrett, CRYPTO '86; von zur Gathen-Gerhard
9.1) through the inverse ``barrett_mu`` of g, and every slot is reduced
mod p at once by multiplying with a precomputed ceil(2^t / p)
(Granlund-Montgomery, PLDI '94).  So a product costs a fixed handful of
big-int operations whatever the degree, with no loop over slots.  A number
field keeps its defining polynomial's inverse over Z, which reduced mod p is
the inverse mod p (``numberfield.NumberField.barrett_mu``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrime, ZeroPolynomial
from .intpoly import IntPoly
from .numutil import is_prime


def _trim(a: list[int]) -> tuple[int, ...]:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def reduce_intpoly(f: IntPoly, p: int) -> tuple[int, ...]:
    return _trim([c % p for c in f.coeffs])


def deg(a) -> int:
    return len(a) - 1


def sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def scale(a, c, p):
    c %= p
    return _trim([ai * c % p for ai in a])


def divmod_p(a, b, p):
    if not b:
        raise ZeroDivisionError
    inv_lb = pow(b[-1], p - 2, p)
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b) and r:
        c = r[-1] * inv_lb % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bc) % p
        while r and r[-1] == 0:
            r.pop()
    return _trim(q), _trim(r)


def rem(a, b, p):
    return divmod_p(a, b, p)[1]


def gcd_p(a, b, p):
    while b:
        a, b = b, rem(a, b, p)
    if a:
        a = monic(a, p)
    return a


def monic(a, p):
    if not a or a[-1] == 1:
        return a
    return scale(a, pow(a[-1], p - 2, p), p)


def barrett_mu(m, p: int = 0) -> tuple[int, ...]:
    """mu = floor(X^(2n-2) / m) for monic m of degree n >= 1, constant first,
    over Z, or mod p when p is given.

    mu has degree n - 2 (it is () when n = 1) and its reversal is the power
    series 1 / rev(m) mod X^(n-1), whose coefficients satisfy g_0 = 1 and
    g_k = -sum_(j=1..k) m_(n-j) g_(k-j).  As m is monic, mu is integral, and
    mu over Z reduced mod p is mu of m mod p.
    """
    n = len(m) - 1
    g = [1] if n > 1 else []
    for k in range(1, n - 1):
        c = -sum(m[n - j] * g[k - j] for j in range(1, k + 1))
        g.append(c % p if p else c)
    return tuple(reversed(g))


def pow_mod(base, e: int, mod, p, mu=None):
    """base^e mod (mod, p) by square and multiply, for any base and e >= 0.

    The modulus is made monic, m of degree n, which leaves remainders
    unchanged; ``mu`` is ``barrett_mu(m, p)`` when the caller holds it.  A
    residue c_0 + ... + c_(n-1) X^(n-1) is packed into the integer
    sum c_i 2^(w i) (Kronecker substitution), so a product is one big-int
    multiply and is reduced in a fixed number of big-int operations:

    - Barrett reduction: with a = a_0 + X^n a_1, deg a_0 < n, the quotient
      of a by m is q = floor(a_1 mu / X^(n-2)), exact over a field with no
      correction, and the remainder is a_0 + (q (X^n - m) mod X^n).
    - every slot is reduced mod p at once: for a slot value v < 2^u,
      floor(v / p) = floor(v c / 2^t) with c = ceil(2^t / p) and
      t = u + bitlen(p), as then v c / 2^t exceeds v / p by less than 1 / p
      (Granlund-Montgomery).  v c < 2^(2u+1) fits a slot of w = 2u + 2 bits,
      so the floors sit in the low w - t bits of each slot of (A c) >> t,
      one mask keeps them, and A - p * floors is A reduced slot by slot.

    Every slot reduced holds at most (2n - 1)(p - 1)^2 < 2^u: a product of
    two residues has at most n terms (p - 1)^2 per slot, the products of the
    reduced a_1 with mu and of q with X^n - m at most n - 1, and the
    remainder sums a_0 and the latter.  So no slot ever carries into the
    next or borrows from it.
    """
    if not mod:
        raise ZeroDivisionError
    if not e:
        return (1,)
    m = monic(mod, p)
    n = deg(m)
    if n == 0:
        return ()
    if mu is None:
        mu = barrett_mu(m, p)
    u = ((2 * n - 1) * (p - 1) ** 2).bit_length()
    w = 2 * u + 2
    t = u + p.bit_length()
    c = -(-(1 << t) // p)
    high = w * n
    low = (1 << high) - 1
    # w - t one bits in each of n slots, a geometric series in 2^w
    floor_mask = ((1 << (w - t)) - 1) * low // ((1 << w) - 1)
    q_shift = w * max(n - 2, 0)  # mu = 0 when n = 1

    def pack(a):
        out = 0
        for ci in reversed(a):
            out = (out << w) | ci
        return out

    mu_packed = pack(mu)
    neg_m = pack([-ci % p for ci in m[:-1]])  # X^n - m mod p, so X^n = neg_m mod m

    def mulmod(x, y):
        prod = x * y
        a1 = prod >> high
        a1 -= p * (((a1 * c) >> t) & floor_mask)
        q = (a1 * mu_packed) >> q_shift
        q -= p * (((q * c) >> t) & floor_mask)
        r = (prod & low) + (q * neg_m & low)
        return r - p * (((r * c) >> t) & floor_mask)

    b = pack(rem(tuple(ci % p for ci in base), m, p))
    result = b
    for bit in bin(e)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, b)
    slot = (1 << w) - 1
    out = []
    for _ in range(n):
        out.append(result & slot)
        result >>= w
    return _trim(out)


def derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


X_P = (0, 1)


@dataclass(frozen=True)
class ModPFactorization:
    """Distinct-degree factorization of f mod p.

    ``parts`` holds triples (g, d, m): g is monic and squarefree, every
    irreducible factor of g has degree d and multiplicity m in f mod p, and
    the g are pairwise coprime.  ``unit`` is the leading coefficient of
    f mod p, so that unit * prod(g^m) == f mod p exactly.
    """

    p: int
    unit: int
    parts: tuple[tuple[tuple[int, ...], int, int], ...]

    def degrees(self) -> list[tuple[int, int]]:
        """Sorted (residue degree, multiplicity) pairs, one per irreducible factor."""
        return sorted((d, m) for g, d, m in self.parts for _ in range(deg(g) // d))

    def product(self) -> tuple[int, ...]:
        out = (self.unit % self.p,)
        for g, _, m in self.parts:
            for _ in range(m):
                out = mul(out, g, self.p)
        return out

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, _, m in self.parts)

    @property
    def is_irreducible(self) -> bool:
        return [m for _, m in self.degrees()] == [1]


def _squarefree_decomposition(f, p):
    """[(g_i, m_i)] with f = prod g_i^m_i, each g_i monic squarefree, pairwise coprime."""
    out = []
    c = gcd_p(f, derivative(f, p), p)
    w = divmod_p(f, c, p)[0] if c != (1,) else f
    w = monic(w, p)
    i = 1
    while deg(w) > 0:
        y = gcd_p(w, c, p)
        z = divmod_p(w, y, p)[0]
        if deg(z) > 0:
            out.append((monic(z, p), i))
        w = y
        c = divmod_p(c, y, p)[0]
        i += 1
    if deg(c) > 0:
        # c is a polynomial in X^p: take the p-th root (Frobenius fixes F_p)
        root = _trim([c[j] for j in range(0, len(c), p)])
        for g, m in _squarefree_decomposition(monic(root, p), p):
            out.append((g, m * p))
    return out


def _distinct_degree(f, p):
    """[(product of irreducible factors of degree d, d)] for squarefree monic f."""
    out = []
    h = X_P
    g = f
    d = 0
    while deg(g) >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, g, p)
        gd = gcd_p(sub(h, X_P, p), g, p)
        if deg(gd) > 0:
            out.append((gd, d))
            g = divmod_p(g, gd, p)[0]
            h = rem(h, g, p)
    if deg(g) > 0:
        out.append((g, deg(g)))
    return out


def factor_mod_p(f: IntPoly, p: int) -> ModPFactorization:
    """Squarefree and distinct-degree factorization of f mod p.

    Raises NotPrime for composite p and ZeroPolynomial when f vanishes mod p.
    Parts come in the order the stages produce them: by squarefree
    component, then by ascending degree d.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    fbar = reduce_intpoly(f, p)
    if not fbar:
        raise ZeroPolynomial(f"polynomial vanishes mod {p}")
    parts = tuple(
        (part, d, m)
        for g, m in _squarefree_decomposition(monic(fbar, p), p)
        for part, d in _distinct_degree(g, p)
    )
    return ModPFactorization(p=p, unit=fbar[-1], parts=parts)


def is_irreducible_mod_p(a, p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    n = deg(a)
    if n <= 0:
        return False
    if n == 1:
        return True
    xq = pow_mod(X_P, p**n, a, p)
    if sub(xq, X_P, p):
        return False
    from .numutil import factorint

    for q in factorint(n):
        xq = pow_mod(X_P, p ** (n // q), a, p)
        if deg(gcd_p(sub(xq, X_P, p), a, p)) != 0:
            return False
    return True
