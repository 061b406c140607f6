"""Order-of-vanishing computations for totally odd characters.

``tate_order`` evaluates Tate's formula r_{S,chi} = sum_{v in S_p(R)}
dim V_chi^{G_w} (the infinite places of a CM extension contribute nothing
for odd chi, which is enforced, not recomputed).  ``t_order_ledger`` turns
that into the T-order bookkeeping: with f_A and f_{A'} the characteristic
polynomials of gamma - 1 on the chi-parts of the standard Iwasawa modules,

    ord_T f_{A,chi} = ord_T f_{A',chi} + chi(1) * r_{S,chi},

because each local summand contributes ord_T(omega_n) = 1 per copy; the
main-conjecture translation then predicts

    ord_{s=0} L_{p,S}(s, contragredient(chi) * omega_R) = ord_T f_{A,chi} / chi(1).

Under the Gross-Kuz'min assumption ord_T f_{A',chi} = 0 the prediction is
exactly r_{S,chi} -- the Gross order-of-vanishing statement.  The p-adic
L-functions themselves are never computed; only their integer orders move
through this ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import Character, character_table, fixed_dim, is_odd, odd_characters
from .errors import (
    EvenCharacter,
    LiftedOrderMismatch,
    NonDivisibleOrder,
    NotAbelian,
    PrimesNotSplitInSubfield,
)
from .extensions import ExtensionDescriptor
from .groups import subgroup_embedding

GKC_ASSUMED = "gkc-assumed"


@dataclass(frozen=True)
class BvComponent:
    """chi-component of the local module at v: a (Lambda/omega_{n})-power."""

    label: str
    chi_multiplicity: int  # chi(1) * dim V_chi^{G_w}
    omega_level: int  # tower depth n(v); descriptive only
    t_order_contribution: int  # always equals chi_multiplicity (ord_T omega_m = 1)


@dataclass(frozen=True)
class VanishingReport:
    chi_degree: int
    r_s: int
    contributions: tuple[tuple[str, int], ...]  # per record: dim V_chi^{G_w} of each of its primes
    ord_a_prime: int | None = None  # ord_T f_{A',chi}; None = unknown
    ord_a: int | None = None  # ord_T f_{A,chi} = ord_T f_{X,chi}
    predicted_lp_order: int | None = None
    gkc_assumed: bool = False
    gkc_fails: bool = False


def _require_odd(ext: ExtensionDescriptor, chi: Character) -> None:
    if chi.group is not ext.group:
        raise ValueError("character belongs to a different group than the descriptor")
    if not is_odd(chi, ext.tau):
        raise EvenCharacter("vanishing-order formulas apply to totally odd characters only")


def tate_order(ext: ExtensionDescriptor, chi: Character) -> VanishingReport:
    """r_{S,chi} for S = S_infty(R) u S_p(R); rejects even characters."""
    _require_odd(ext, chi)
    contribs = tuple((rec.label, fixed_dim(chi, rec.decomposition)) for rec in ext.primes)
    return VanishingReport(
        chi_degree=chi.degree,
        r_s=sum(rec.count * d for rec, (_, d) in zip(ext.primes, contribs)),
        contributions=contribs,
    )


def bv_component(ext: ExtensionDescriptor, chi: Character, label: str, n: int = 0) -> BvComponent:
    """Local chi-component at each prime of the record ``label``; n is the
    ingested tower depth n(v) and never changes the T-order contribution."""
    _require_odd(ext, chi)
    rec = next((r for r in ext.primes if r.label == label), None)
    if rec is None:
        raise KeyError(f"no prime record labelled {label!r}")
    mult = chi.degree * fixed_dim(chi, rec.decomposition)
    return BvComponent(
        label=label,
        chi_multiplicity=mult,
        omega_level=n,
        t_order_contribution=mult,
    )


def t_order_ledger(ext: ExtensionDescriptor, chi: Character, ord_a_prime) -> VanishingReport:
    """Complete the T-order ledger from a supplied ord_T f_{A',chi}.

    ``ord_a_prime`` is a nonnegative integer or GKC_ASSUMED (which sets it to
    zero, the Gross-Kuz'min statement for chi).  The supplied order must be
    divisible by chi(1); the predicted p-adic L order is ord_T f_A / chi(1).
    """
    base = tate_order(ext, chi)
    assumed = ord_a_prime == GKC_ASSUMED
    value = 0 if assumed else int(ord_a_prime)
    if value < 0:
        raise NonDivisibleOrder("ord_T f_{A'} must be nonnegative")
    if value % chi.degree != 0:
        raise NonDivisibleOrder(
            f"ord_T f_{{A'}} = {value} is not divisible by chi(1) = {chi.degree}"
        )
    ord_a = value + chi.degree * base.r_s
    return VanishingReport(
        chi_degree=base.chi_degree,
        r_s=base.r_s,
        contributions=base.contributions,
        ord_a_prime=value,
        ord_a=ord_a,
        predicted_lp_order=ord_a // chi.degree,
        gkc_assumed=assumed,
        gkc_fails=value > 0,
    )


def lifted_order(ext: ExtensionDescriptor, subfield_gal) -> int:
    """Common r_{S,chi~} over an intermediate totally real R~, specified by
    H~ = Gal(K/R~) <= G (which must contain tau; R~ <= K+).

    Requires K/R abelian and every prime of R above p totally split in R~
    (G_w <= H~), returns [R~:R] * |S_p(R)|, and cross-validates against
    tate_order over the restricted descriptor -- mismatch (possible when some
    G_w is nontrivial) raises LiftedOrderMismatch instead of returning a
    non-uniform "common" value.
    """
    G = ext.group
    if not G.is_abelian:
        raise NotAbelian("lifted orders are computed for abelian K/R only")
    h = G.require_subgroup(subfield_gal)
    if ext.tau not in h:
        raise PrimesNotSplitInSubfield(
            "tau not in Gal(K/R~): R~ is not contained in K+"
        )
    for rec in ext.primes:
        if not rec.decomposition <= h:
            raise PrimesNotSplitInSubfield(
                f"prime {rec.label} of R is not totally split in R~"
            )
    index = G.order // len(h)
    claimed = index * sum(rec.count for rec in ext.primes)

    # exact per-character validation on the restricted data
    H, emb = subgroup_embedding(G, h)
    position = {g: i for i, g in enumerate(emb)}
    tau_h = position[ext.tau]
    for chi in odd_characters(character_table(H), tau_h):
        r = index * sum(
            rec.count * fixed_dim(chi, frozenset(position[g] for g in rec.decomposition))
            for rec in ext.primes
        )
        if r != claimed:
            raise LiftedOrderMismatch(
                f"r_{{S,chi~}} = {r} != [R~:R]*|S_p(R)| = {claimed} for a degree-"
                f"{chi.degree} character; some decomposition group is nontrivial"
            )
    return claimed
