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
ch. 8), so a product is one big-int multiply, and a product is reduced
through rows X^(n+k) mod g computed once per call.
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


def pow_mod(base, e: int, mod, p):
    """base^e mod (mod, p) by square and multiply, for any base and e >= 0.

    The modulus is made monic, m of degree n, which leaves remainders
    unchanged.  A residue c_0 + ... + c_(n-1) X^(n-1) is packed into the
    integer sum c_i 2^(s i) (Kronecker substitution), so each product is one
    big-int multiply.  The n - 1 high slots of a product are folded back
    through the precomputed rows X^(n+k) mod m, k = 0..n-2, and each slot is
    then reduced mod p.  A slot of s bits holds n^2 (p-1)^2, which bounds
    every slot of a product and of a folded sum, so no slot carries into
    the next.
    """
    if not mod:
        raise ZeroDivisionError
    if not e:
        return (1,)
    m = monic(mod, p)
    n = deg(m)
    if n == 0:
        return ()
    s = (n * n * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    low_mask = (1 << (s * n)) - 1
    shifts = [s * i for i in range(n)]

    def pack(a):
        return sum(c << sh for c, sh in zip(a, shifts))

    rows = []
    row = [-c % p for c in m[:-1]]  # X^n mod m
    for _ in range(n - 1):
        rows.append(pack(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [(r - top * c) % p for r, c in zip(row, m)]

    def mulmod(x, y):
        prod = x * y
        acc = prod & low_mask
        prod >>= s * n
        for r in rows:
            h = (prod & mask) % p
            if h:
                acc += h * r
            prod >>= s
        return sum(((acc >> sh) & mask) % p << sh for sh in shifts)

    b = pack(rem(tuple(c % p for c in base), m, p))
    result = None
    while True:
        if e & 1:
            result = b if result is None else mulmod(result, b)
        e >>= 1
        if not e:
            break
        b = mulmod(b, b)
    return _trim([(result >> sh) & mask for sh in shifts])


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
