"""Order of vanishing for totally odd characters.

``tate_order`` evaluates Tate's formula r_{S,chi} = sum_{v in S_p(R)}
dim V_chi^{G_w} (the infinite places of a CM extension contribute nothing
for odd chi, which is enforced, not recomputed).  With f_A and f_{A'} the
characteristic polynomials of gamma - 1 on the chi-parts of the standard
Iwasawa modules,

    ord_T f_{A,chi} = ord_T f_{A',chi} + chi(1) * r_{S,chi},

because each local summand contributes ord_T(omega_n) = 1 per copy; the
main-conjecture translation then predicts

    ord_{s=0} L_{p,S}(s, contragredient(chi) * omega_R) = ord_T f_{A,chi} / chi(1).

Under GKC-(K), ord_T f_{A',chi} = 0, so ord_T f_{A,chi} = chi(1) * r_{S,chi}
and the predicted order is r_{S,chi} itself -- the Gross order-of-vanishing
statement.  That is why a ``gkc-gvc-equivalence`` certificate records
r_{S,chi} both as ``r_S`` and as ``predicted_lp_order``.  The p-adic
L-functions themselves are never computed.
"""

from __future__ import annotations

from .characters import Character, character_table, fixed_dim, odd_rows
from .errors import EvenCharacter
from .extensions import ExtensionDescriptor


def tate_order(ext: ExtensionDescriptor, chi: Character) -> int:
    """r_{S,chi} for S = S_infty(R) u S_p(R); raises EvenCharacter unless
    chi is one of the odd rows of its group's table (characters.odd_rows)."""
    G = ext.group
    if chi.group is not G:
        raise ValueError("character belongs to a different group than the descriptor")
    table = character_table(G)
    if chi not in [table[i] for i in odd_rows(G, ext.tau)]:
        raise EvenCharacter("vanishing-order formulas apply to totally odd irreducible characters only")
    return sum(rec.count * fixed_dim(chi, rec.decomposition) for rec in ext.primes)
