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

from .characters import Character, fixed_dim, is_odd
from .errors import EvenCharacter, NonDivisibleOrder
from .extensions import ExtensionDescriptor

GKC_ASSUMED = "gkc-assumed"


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

