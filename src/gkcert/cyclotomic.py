"""Cyclotomic polynomials, and elements of Z[zeta_m] as power-basis
coordinates.

An element of Z[zeta_m] is the tuple of its phi(m) integer coordinates in the
basis 1, zeta, ..., zeta^(phi(m)-1), phi(m) = deg Phi_m; that basis is
integral, so every character value, an algebraic integer, has such a tuple.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalCheckError
from .intpoly import IntPoly, pseudo_divmod
from .numutil import divisors


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


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k = coordinates of zeta_m^k in the power basis, for k = 0..m-1."""
    poly = cyclotomic_poly(m).coeffs  # monic, degree phi(m)
    phi = len(poly) - 1
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(tuple(cur))
        # multiply by zeta: shift, then reduce the overflow via zeta^phi = -(lower terms)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] -= top * poly[i]
    return tuple(rows)


def power_height(m: int) -> int:
    """The largest |coordinate| of a power of zeta_m, so each coordinate of
    x * y is at most power_height(m) |x|_1 |y|_1 in absolute value."""
    return max(abs(c) for row in _reduction_rows(m) for c in row)


def from_exponents(m: int, coeffs: dict[int, int]) -> tuple[int, ...]:
    """The coordinates of sum c_k * zeta_m^k, for {k: c_k}; any integer k."""
    rows = _reduction_rows(m)
    phi = len(rows[0])
    out = [0] * phi
    for k, c in coeffs.items():
        if c:
            row = rows[k % m]
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out)


def conjugate(m: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates of the complex conjugate of x: zeta_m -> zeta_m^-1."""
    return from_exponents(m, {-k: c for k, c in enumerate(x)})
