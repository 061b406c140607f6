"""Number fields presented by monic integral polynomials.

A field carries its defining polynomial, degree, signature (r1, r2) from an
exact Sturm count, and the polynomial discriminant.  Prime splitting goes
through Dedekind's theorem: factor the defining polynomial mod p and read
off (e, f) pairs -- but only after certifying that p does not divide the
index [O_F : Z[theta]] (p^2 does not divide disc(f), or Dedekind's index
criterion passes).  Unsafe primes raise UnsafePrime; splitting data for
them must be ingested, never guessed.  Total splitting at p not dividing
disc(f) needs no factorization.  For odd p, Stickelberger's theorem
(Swan, Pacific J. Math. 12 (1962), Cor. 1) gives (disc(f) | p) = (-1)^(n - r),
where r is the number of irreducible factors of f mod p, so a non-residue
disc(f) mod p rules total splitting out at the cost of one integer power.
Otherwise the answer is one Frobenius power X^p mod (f, p), reduced through
the Barrett inverse of f that the field computes once.

Irreducibility over Q is *certified*, never assumed: a prime p coprime to
disc(f) with f irreducible mod p, or a cross-prime factorization-pattern
argument (no proper degree is a subset sum of every observed pattern).
When neither certificate exists the constructor refuses with
IrreducibilityUndecided rather than risk an unsound field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import modpoly
from .errors import InternalCheckError, IrreducibilityUndecided, Reducible, UnsafePrime
from .intpoly import IntPoly, count_real_roots, poly_discriminant
from .modpoly import factor_mod_p
from .numutil import divisors, is_prime, primes_upto, require_prime

_CERT_PRIME_COUNT = 25


@dataclass(frozen=True)
class SplittingType:
    """Decomposition type of p in a number field: multiset of (e, f) pairs."""

    p: int
    entries: tuple[tuple[int, int], ...]  # sorted (ramification e, residue degree f)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @property
    def degree_sum(self) -> int:
        return sum(e * f for e, f in self.entries)

    @property
    def is_totally_split(self) -> bool:
        return all(ef == (1, 1) for ef in self.entries)



@dataclass(frozen=True)
class NumberField:
    defining_poly: IntPoly
    degree: int
    r1: int
    r2: int
    poly_disc: int
    # floor(X^(2n-2) / f) over Z: reduced mod p, the Barrett inverse of f mod p
    barrett_mu: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def signature(self) -> tuple[int, int]:
        return (self.r1, self.r2)

    @property
    def is_totally_real(self) -> bool:
        return self.r2 == 0

    def document(self) -> dict:
        """The field's descriptor-document entry: f without its leading 1."""
        return {"base_poly": list(self.defining_poly.coeffs[:-1])}

    def __str__(self):
        return f"Q[X]/({self.defining_poly})"


def _subset_sums(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _factor_degrees(f: IntPoly, p: int) -> list[int]:
    """The degrees of the irreducible factors of monic f mod a prime p that
    does not divide disc(f), ascending.  There f mod p is squarefree, so its
    distinct-degree factorization alone gives them."""
    return [
        d
        for g, d in modpoly._distinct_degree(modpoly.reduce_intpoly(f, p), p)
        for _ in range(modpoly.deg(g) // d)
    ]


def _certify_irreducible(f: IntPoly, disc: int) -> None:
    """Raise Reducible/IrreducibilityUndecided unless f is provably irreducible."""
    n = f.degree
    if n == 1:
        return
    # monic => rational roots are integers dividing the constant term
    a0 = f.coeffs[0]
    if a0 == 0:
        raise Reducible(f"{f} has root 0")
    for d in divisors(a0):
        for r in (d, -d):
            if f(r) == 0:
                raise Reducible(f"{f} has root {r}")
    # collect factorization patterns at the first 25 primes coprime to disc(f)
    candidate_degrees: set[int] | None = None
    p, used = 2, 0
    while used < _CERT_PRIME_COUNT:
        if is_prime(p) and disc % p != 0:
            used += 1
            # f irreducible mod p leaves no proper subset sum
            proper = {s for s in _subset_sums(_factor_degrees(f, p)) if 0 < s < n}
            candidate_degrees = proper if candidate_degrees is None else candidate_degrees & proper
            if not candidate_degrees:
                return
        p += 1
    raise IrreducibilityUndecided(
        f"cannot certify irreducibility of {f} from factorization patterns; "
        f"surviving factor degrees {sorted(candidate_degrees or set())}"
    )


def make_field(f: IntPoly) -> NumberField:
    """Validated number field from a monic integral polynomial, with its
    irreducibility certified.  This is the library's only NumberField
    constructor; a compositum's base is an ``extensions.MultiquadraticField``,
    with no polynomial.

    Raises NotMonic, Reducible, or IrreducibilityUndecided.
    """
    disc = poly_discriminant(f)  # raises NotMonic unless f is monic and nonconstant
    if disc == 0:
        raise Reducible(f"{f} has a repeated factor (disc = 0)")
    _certify_irreducible(f, disc)
    r1 = count_real_roots(f)  # disc != 0 => squarefree
    return NumberField(
        defining_poly=f,
        degree=f.degree,
        r1=r1,
        r2=(f.degree - r1) // 2,
        poly_disc=disc,
        barrett_mu=modpoly.barrett_mu(f.coeffs),
    )


def _dedekind_safe(F: NumberField, p: int, fac: modpoly.ModPFactorization) -> bool:
    """True iff p does not divide [O_F : Z[theta]] (Dedekind's criterion);
    fac is the factorization of F's defining polynomial mod p."""
    if F.poly_disc % (p * p) != 0:
        return True
    f = F.defining_poly
    g_bar = (1,)
    h_bar = (1,)
    for g, _, m in fac.parts:
        g_bar = modpoly.mul(g_bar, g, p)
        for _ in range(m - 1):
            h_bar = modpoly.mul(h_bar, g, p)
    # monic lifts with coefficients in [0, p)
    g_lift = IntPoly(g_bar)
    h_lift = IntPoly(h_bar)
    t = g_lift * h_lift - f
    if any(c % p for c in t.coeffs):
        raise InternalCheckError(f"g*h - f is not divisible by {p}")
    t_bar = modpoly.reduce_intpoly(IntPoly([c // p for c in t.coeffs]), p)
    d = modpoly.gcd_p(modpoly.gcd_p(t_bar, g_bar, p), h_bar, p)
    return modpoly.deg(d) == 0


def splitting_type(F: NumberField, p: int) -> SplittingType:
    """Splitting of p in F via Dedekind's theorem.

    Raises UnsafePrime when p divides the index, in which case splitting
    data must come from ingestion.
    """
    require_prime(p)
    fac = factor_mod_p(F.defining_poly, p)
    if not _dedekind_safe(F, p, fac):
        raise UnsafePrime(f"{p} divides the index [O_F : Z[theta]] for {F}")
    entries = tuple((m, d) for d, m in fac.degrees())
    st = SplittingType(p=p, entries=entries)
    if st.degree_sum != F.degree:
        raise InternalCheckError(f"splitting degrees at {p} do not sum to [F:Q]")
    return st


def _is_totally_split(F: NumberField, p: int) -> bool:
    """Whether the prime p splits completely in F.

    When p does not divide disc(f), f mod p is squarefree, so p is
    Dedekind-safe, and p splits completely exactly when X^p = X mod
    (f, p): one Frobenius power, with no factorization, taken on packed
    residues (``modpoly.frobenius_fixes_x``), which reduce f and the
    field's ``barrett_mu`` mod p as they pack them.  For odd p the
    power is taken only when disc(f) is a square mod p: by Stickelberger's
    theorem f mod p has r irreducible factors with (disc(f) | p) =
    (-1)^(n - r), so a non-residue means r < n.  At p = 2 the power is always
    taken.  At p | disc(f) the answer comes from ``splitting_type``, which
    raises UnsafePrime when p divides the index.  p is not tested for
    primality.
    """
    d = F.poly_disc % p
    if d:
        # Euler's criterion: r = n needs disc(f) to be a square mod p
        if p > 2 and pow(d, (p - 1) // 2, p) != 1:
            return False
        return modpoly.frobenius_fixes_x(F.defining_poly.coeffs, p, F.barrett_mu)
    # splitting_type checks that e * f sums to [F:Q]
    return splitting_type(F, p).is_totally_split


def scan_split_primes(fields, bound: int, skipped: list | None = None) -> list[int]:
    """Ascending odd primes p <= bound, unramified and totally split in every
    listed field.  A prime at which any field is Dedekind-unsafe is skipped,
    never treated as split, and noted in ``skipped`` when it is given.  The
    primes come from a sieve, so none is tested for primality again.  An
    empty field list raises ValueError, as a bound below 3 does, since every
    odd prime would pass it vacuously."""
    if bound < 3:
        raise ValueError("prime bound must be >= 3")
    if not fields:
        raise ValueError("no field to scan")
    out = []
    for p in primes_upto(bound)[1:]:
        for F in fields:
            try:
                if not _is_totally_split(F, p):
                    break
            except UnsafePrime:
                if skipped is not None:
                    skipped.append(
                        f"skipping p = {p}; Dedekind-unsafe for {F} (splitting not certified)"
                    )
                break
        else:
            out.append(p)
    return out
