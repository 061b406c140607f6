"""Polynomial arithmetic and factorization over F_p.

Polynomials over F_p are plain tuples of ints in [0, p), constant term
first, trailing zeros stripped (the zero polynomial is ()).  On top of the
ring operations this module factors f mod p as far as Dedekind's theorem
needs: squarefree decomposition, then distinct-degree splitting, which
yields the degree and multiplicity of every irreducible factor without
separating factors of equal degree.  Both stages are deterministic; nothing
here is random.

The hot kernel is ``pow_mod``, the Frobenius powers X^(p^d) mod (g, p) of
distinct-degree splitting and of the total-splitting test.  It works on a
fixed modulus: residues are packed into one integer each
(Kronecker substitution, von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 8), so a product is one big-int multiply.  The product is reduced mod g
by polynomial Barrett reduction (Barrett, CRYPTO '86; von zur Gathen-Gerhard
9.1) through the inverse ``barrett_mu`` of g, and every slot is reduced
mod p at once by multiplying with ceil(2^t / p) (Granlund-Montgomery,
PLDI '94).  So a product costs a fixed handful of big-int operations
whatever the degree, with no loop over slots.  The slot widths and masks
depend only on the degree n and the bit length b of p, so they are computed
once per (n, b) and sized for the widest p of b bits.  For the base X the
ladder starts at a monomial and multiplies by X with a shift and one fold.
A number field keeps its defining polynomial's inverse over Z, which reduced
mod p is the inverse mod p (``numberfield.NumberField.barrett_mu``); the
total-splitting test ``frobenius_fixes_x`` reduces it and the polynomial as
it packs them and compares the packed power with X.  Both entries share one
ladder, ``_pow_packed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import NotPrime, ZeroPolynomial
from .intpoly import IntPoly
from .numutil import is_prime

X_P = (0, 1)


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


@cache
def _slot_constants(n: int, b: int) -> tuple[int, int, int, int, int, int]:
    """(w, t, high, low, floor_mask, q_shift) for moduli of degree n >= 1 and
    primes p of bit length b, sized for the widest such p, 2^b - 1."""
    u = ((2 * n - 1) * ((1 << b) - 2) ** 2).bit_length()
    w = 2 * u + 2
    t = u + b
    high = w * n
    low = (1 << high) - 1
    # w - t one bits in each of n slots, a geometric series in 2^w
    floor_mask = ((1 << (w - t)) - 1) * low // ((1 << w) - 1)
    q_shift = w * max(n - 2, 0)  # mu = 0 when n = 1
    return w, t, high, low, floor_mask, q_shift


def _pack(a, w: int, p: int, sign: int = 1) -> int:
    """sum (sign * a_i mod p) 2^(w i): a residue as one integer; trailing
    zeros add nothing."""
    out = 0
    for ci in reversed(a):
        out = (out << w) | sign * ci % p
    return out


def _pow_packed(base, e: int, m, p: int, mu) -> tuple[int, int]:
    """(base^e mod (m, p), w), the power packed into slots of w bits.

    m is monic of degree n >= 1 and mu is ``barrett_mu(m)``, both over Z or
    mod p: coefficients are reduced mod p as they are packed.  base is a
    residue of degree < n, or None for X.  e >= 1.  This is the one
    square-and-multiply ladder of the module; see ``pow_mod``.
    """
    n = len(m) - 1
    w, t, high, low, floor_mask, q_shift = _slot_constants(n, p.bit_length())
    c = -(-(1 << t) // p)
    mu = _pack(mu, w, p)
    neg_m = _pack(m[:-1], w, p, -1)  # X^n - m mod p, so X^n = neg_m mod m
    bits = bin(e)[2:]
    if base is None:
        # start at X^(e >> k), the least k with e >> k < n: a residue as it stands
        k = max(len(bits) - n.bit_length(), 0)
        k += e >> k >= n
        result = 1 << w * (e >> k)
        ops = bits[len(bits) - k :].replace("0", "s").replace("1", "sx")
    else:
        base = result = _pack(base, w, p)
        ops = bits[1:].replace("0", "s").replace("1", "sb")
    # one op per step of the ladder: s squares, x multiplies by X, b by the base
    for op in ops:
        if op == "x":
            # times X: one slot up, the top slot folded back through X^n = neg_m
            result <<= w
            result = (result & low) + (result >> high) * neg_m
        else:
            prod = result * (result if op == "s" else base)
            a1 = prod >> high
            a1 -= p * (((a1 * c) >> t) & floor_mask)
            q = (a1 * mu) >> q_shift
            q -= p * (((q * c) >> t) & floor_mask)
            result = (prod & low) + (q * neg_m & low)
        result -= p * (((result * c) >> t) & floor_mask)
    return result, w


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
      t = u + b, b = bitlen(p), as then v c / 2^t exceeds v / p by less
      than 2^-b < 1 / p (Granlund-Montgomery).  v c < 2^(2u+1) fits a slot
      of w = 2u + 2 bits, so the floors sit in the low w - t bits of each
      slot of (A c) >> t, one mask keeps them, and A - p * floors is A
      reduced slot by slot.

    Every slot reduced holds at most (2n - 1)(p - 1)^2 < 2^u: a product of
    two residues has at most n terms (p - 1)^2 per slot, the products of the
    reduced a_1 with mu and of q with X^n - m at most n - 1, and the
    remainder sums a_0 and the latter.  So no slot ever carries into the
    next or borrows from it.  u, w, t and the masks depend only on n and b:
    they are computed once per (n, b) for p = 2^b - 1, and
    (2n - 1)(2^b - 2)^2 bounds (2n - 1)(p - 1)^2 for every p of b bits.
    Only c is computed per call.

    For the base X the ladder starts at the monomial X^(e >> k), with k
    chosen so that e >> k < n, and multiplies by X as a shift by one slot
    whose top slot, below p, is folded back through X^n = X^n - m.  That
    leaves at most (p - 1) + (p - 1)^2 per slot, within the bound above
    (for n = 1 the shifted residue has no slot below the top).
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
    if base == X_P:
        base = None
    elif len(base) > n:
        base = rem([ci % p for ci in base], m, p)
    result, w = _pow_packed(base, e, m, p, mu)
    slot = (1 << w) - 1
    out = []
    for _ in range(n):
        out.append(result & slot)
        result >>= w
    return _trim(out)


def frobenius_fixes_x(m, p: int, mu) -> bool:
    """Whether X^p = X mod (m, p), for monic m of degree n >= 1 and its
    ``barrett_mu``, both over Z or mod p: the power compared packed."""
    result, w = _pow_packed(None, p, m, p, mu)
    # X mod m is X, or -m_0 when m is linear
    return result == (1 << w if len(m) > 2 else -m[0] % p)


def derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


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
    mu = None  # barrett_mu(g, p), recomputed only when g shrinks
    d = 0
    while deg(g) >= 2 * (d + 1):
        d += 1
        if mu is None:
            mu = barrett_mu(g, p)
        h = pow_mod(h, p, g, p, mu)
        gd = gcd_p(sub(h, X_P, p), g, p)
        if deg(gd) > 0:
            out.append((gd, d))
            g = divmod_p(g, gd, p)[0]
            h = rem(h, g, p)
            mu = None
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

