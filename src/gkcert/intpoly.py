"""Univariate polynomials over Z with exact operations.

A polynomial a_0 + a_1 X + ... + a_n X^n is the coefficient tuple
(a_0, ..., a_n), constant term first, with no trailing zeros; the zero
polynomial is the empty tuple and has degree -1.

Beyond ring arithmetic this module provides the two exact-algebra
operations the rest of the package leans on:

* ``count_real_roots`` -- Sturm sequence, whose last term is gcd(f, f'), so
  the same run rejects a repeated factor,
* ``poly_discriminant`` -- subresultant PRS.

Both divide with the one integer routine ``pseudo_divmod``, as does
``cyclotomic_poly``; no rational arithmetic is needed.
"""

from __future__ import annotations

from functools import reduce
from math import gcd

from .errors import InternalCheckError, NotMonic, NotSquarefree


class IntPoly:
    """Immutable integer polynomial, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if not all(isinstance(c, int) for c in cs):
            raise TypeError("integer coefficients required")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure --

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "X" if i == 1 else f"X^{i}"
                if c == 1:
                    parts.append(x)
                elif c == -1:
                    parts.append(f"-{x}")
                else:
                    parts.append(f"{c}*{x}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")

    # -- ring operations --

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return reduce(gcd, (abs(c) for c in self.coeffs), 0)


X = IntPoly([0, 1])


def from_vector(vector) -> IntPoly:
    """Monic polynomial X^n + sum a_i X^i from the vector [a_0, ..., a_{n-1}]."""
    return IntPoly(list(vector) + [1])


# -- pseudo-division ------------------------------------------------------------

def pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Pseudo-quotient and pseudo-remainder of a by b over Z: with
    d = deg a - deg b, lc(b)^(d + 1) * a = q * b + r and deg r < deg b.
    When d < 0 this is (0, a).  For a monic b, q and r are the quotient and
    remainder of ordinary division."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    d = a.degree - b.degree
    if d < 0:
        return IntPoly(()), a
    lb, db, bs = b.lc, b.degree, b.coeffs
    scale = lb ** (d + 1)
    r = [c * scale for c in a.coeffs]
    q = [0] * (d + 1)
    for shift in range(d, -1, -1):
        top = r[shift + db]
        if top:
            c, rem = divmod(top, lb)
            if rem:
                raise InternalCheckError("pseudo-division step is not exact")
            q[shift] = c
            for i, bc in enumerate(bs):
                r[shift + i] -= c * bc
    return IntPoly(q), IntPoly(r[:db])


# -- Sturm sequences ----------------------------------------------------------

def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_sequence(f: IntPoly) -> list[IntPoly]:
    """Sturm sequence of a squarefree f, over Z.  Each term is the positive
    primitive multiple of the Euclidean term -rem(a, b): the pseudo-remainder
    r = lc(b)^(d + 1) * rem(a, b), d = deg a - deg b, is negated unless
    lc(b) < 0 and d is even, then divided by its content.  Signs at +-oo are
    those of the Euclidean sequence.  The last term is gcd(f, f') up to a
    unit, so the same run raises NotSquarefree on a repeated factor."""
    if f.is_zero:
        raise NotSquarefree("zero polynomial")
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        _, r = pseudo_divmod(a, b)
        if r.is_zero:
            break
        unit = 1 if b.lc < 0 and (a.degree - b.degree) % 2 == 0 else -1
        g = unit * r.content()
        chain.append(IntPoly([c // g for c in r.coeffs]))
    if chain[-1].degree > 0:
        raise NotSquarefree(f"{f} has a repeated factor")
    return chain


def count_real_roots(f: IntPoly) -> int:
    """Number of real roots of a squarefree f, by Sturm sign variations.

    Raises NotSquarefree when gcd(f, f') is nonconstant.
    """
    chain = sturm_sequence(f)
    if f.degree == 0:
        return 0
    at_plus = [_sign(c.lc) for c in chain]
    at_minus = [_sign(c.lc) * (-1) ** c.degree for c in chain]
    return _variations(at_minus) - _variations(at_plus)


# -- resultant and discriminant (subresultant PRS) ------------------------------

def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over Z via the subresultant PRS (no fraction blowup)."""
    if f.is_zero or g.is_zero:
        return 0
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    s = 1
    A, B = f, g
    if A.degree < B.degree:
        if (A.degree * B.degree) % 2 == 1:
            s = -s
        A, B = B, A
    ca, cb = A.content(), B.content()
    t = ca**B.degree * cb**A.degree
    A = IntPoly([c // ca for c in A.coeffs])
    B = IntPoly([c // cb for c in B.coeffs])
    g_, h = 1, 1
    while True:
        delta = A.degree - B.degree
        if (A.degree % 2 == 1) and (B.degree % 2 == 1):
            s = -s
        _, R = pseudo_divmod(A, B)
        A = B
        denom = g_ * h**delta
        B = IntPoly([c // denom for c in R.coeffs])
        if any(c % denom for c in R.coeffs):
            raise InternalCheckError("subresultant step is not exact")
        g_ = A.lc
        h = (g_**delta * h ** (1 - delta)) if delta <= 1 else (g_**delta // h ** (delta - 1))
        if B.is_zero:
            return 0
        if B.degree == 0:
            break
    h = B.coeffs[0] ** A.degree // h ** (A.degree - 1) if A.degree >= 1 else h
    return s * t * h


def poly_discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for monic nonconstant f."""
    if not f.is_monic:
        raise NotMonic(f"{f} is not monic")
    n = f.degree
    if n < 1:
        raise NotMonic("constant polynomial has no discriminant")
    if n == 1:
        return 1
    res = resultant(f, f.derivative())
    return (-1) ** (n * (n - 1) // 2) * res
