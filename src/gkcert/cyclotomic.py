"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored in the power basis 1, zeta, ..., zeta^(phi(m)-1) of the
m-th cyclotomic polynomial, as an integer coordinate vector over a single
positive denominator (kept coprime to the gcd of the numerators).  Keeping
the denominator out of the vector makes the common case -- algebraic
integers such as character values, where den == 1 -- pure machine-int work.

Elements over different conductors compare equal exactly when they agree
after embedding into the compositum Q(zeta_lcm); no conductor minimization
is performed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from .errors import InternalCheckError
from .intpoly import IntPoly, pseudo_divmod
from .numutil import divisors, euler_phi


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, exact integer coefficients."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if m == 1:
        return IntPoly([-1, 1])
    num = IntPoly([-1] + [0] * (m - 1) + [1])  # X^m - 1
    den = IntPoly([1])
    for d in divisors(m):
        if d < m:
            den = den * cyclotomic_poly(d)
    q, r = pseudo_divmod(num, den)  # den is monic: exact division over Z
    if not r.is_zero:
        raise InternalCheckError(f"Phi_{m} does not divide X^{m} - 1")
    return q


# phi(m) for every construction; conductors are few, so factor each once
_phi = lru_cache(maxsize=None)(euler_phi)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k = coordinates of zeta_m^k in the power basis, for k = 0..m-1."""
    phi = _phi(m)
    poly = cyclotomic_poly(m).coeffs  # monic, degree phi
    rows = []
    cur = [0] * phi
    if phi > 0:
        cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        # multiply by zeta: shift, then reduce the overflow via zeta^phi = -(lower terms)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] -= top * poly[i]
    return tuple(rows)


def _reduce_exponents(m: int, coeffs: dict[int, int]) -> tuple[int, ...]:
    """Sum of c_k * zeta_m^k reduced to power-basis coordinates (integers)."""
    rows = _reduction_rows(m)
    phi = len(rows[0])
    out = [0] * phi
    for k, c in coeffs.items():
        if c:
            row = rows[k % m]
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out)


class CycNumber:
    """Element of Q(zeta_m) in the power basis; immutable, exact."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        phi = _phi(m)
        num = list(num)
        if len(num) > phi:
            raise ValueError("coordinate vector longer than phi(m)")
        num += [0] * (phi - len(num))
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = reduce(gcd, num, den) if den > 1 else 1
        if g > 1:
            den //= g
            num = [c // g for c in num]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycNumber is immutable")

    # -- constructors --

    @staticmethod
    def from_rational(q) -> "CycNumber":
        q = Fraction(q)
        return CycNumber(1, [q.numerator], q.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycNumber":
        return CycNumber(m, _reduce_exponents(m, {k % m: 1}))

    @staticmethod
    def from_exponents(m: int, coeffs: dict[int, int]) -> "CycNumber":
        """Integer combination sum c_k zeta_m^k."""
        return CycNumber(m, _reduce_exponents(m, coeffs))

    # -- structure --

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self.den == 1

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return f.numerator

    def embed(self, big_m: int) -> "CycNumber":
        """Image in Q(zeta_M) for m | M, via zeta_m = zeta_M^(M/m)."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError(f"{self.m} does not divide {big_m}")
        step = big_m // self.m
        coeffs = {i * step: c for i, c in enumerate(self.num)}
        return CycNumber(big_m, _reduce_exponents(big_m, coeffs), self.den)

    def _common(self, other: "CycNumber") -> tuple["CycNumber", "CycNumber"]:
        if self.m == other.m:
            return self, other
        big = lcm(self.m, other.m)
        return self.embed(big), other.embed(big)

    # -- arithmetic --

    @staticmethod
    def _coerce(x) -> "CycNumber":
        if isinstance(x, CycNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNumber.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        d = lcm(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        return CycNumber(a.m, [fa * x + fb * y for x, y in zip(a.num, b.num)], d)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.m, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        an, bn = a.num, b.num
        conv: dict[int, int] = {}
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        k = i + j
                        conv[k] = conv.get(k, 0) + x * y
        return CycNumber(a.m, _reduce_exponents(a.m, conv), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError
            return CycNumber(self.m, [q.denominator * c for c in self.num], self.den * q.numerator)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # cross-conductor equality is not hash-compatible

    def __repr__(self):
        return f"CycNumber(m={self.m}, num={list(self.num)}, den={self.den})"

    # -- Galois action --

    def galois(self, k: int) -> "CycNumber":
        """Image under zeta_m -> zeta_m^k; k must be coprime to m."""
        if gcd(k, self.m) != 1:
            raise ValueError(f"{k} is not coprime to {self.m}")
        coeffs: dict[int, int] = {}
        for i, c in enumerate(self.num):
            if c:
                e = (i * k) % self.m
                coeffs[e] = coeffs.get(e, 0) + c
        return CycNumber(self.m, _reduce_exponents(self.m, coeffs), self.den)

    def conjugate(self) -> "CycNumber":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(self.m - 1) if self.m > 1 else self

    def sort_key(self, big_m: int | None = None):
        """Deterministic total-order key (used for stable table ordering)."""
        x = self.embed(big_m) if big_m else self
        return (x.den,) + x.num
