"""The certificate rule base.

Each rule inspects an extension descriptor (plus optional tower data and
caller assumptions), checks its hypotheses from the stored decomposition
data, and emits certificates whose hypothesis lists make the audit trail
explicit.  ``certify`` runs ``RULES`` in the order below, the order of the
certificates it returns; a rule that builds on another reads that rule's
certificate from the ones emitted before it.  Rule keys are fixed strings:

* ``klingen-character-bound``         -- chi(1) + chi(tau) <= 2 for all chi
  certifies Leopoldt for an imaginary Galois K/Q.
* ``klingen-abelian-compositum``      -- the same bound on a CM piece M
  certifies Leopoldt for every compositum M * (real abelian).  The two
  Klingen keys are one rule: K over Q, or a built compositum.
* ``split-rank-bound``                -- abelian K/R with a totally split
  Q_p-prime: rank bound r - s on the minus coinvariants.
* ``no-split-primes``                 -- no prime of K+ above p splits in K.
* ``undecomposed-subfield-reduction`` -- a CM-subfield k with p undecomposed
  in K/k reduces GKC-(K) to GKC-(k) (always an Asserted input).
* ``leopoldt-total-split``            -- Leopoldt for K plus p totally split
  in K/Q gives GKC-(K).
* ``abelian-split-rank-zero``         -- the r = s case upgrades to GKC-(K).
* ``chevalley-stabilization``         -- ingested tower data with stabilized
  minus-part orders.
* ``dihedral-odd-character-counting`` -- D_n, n = 2 mod 4, exactly one
  totally split Q_p-prime of R and tau in G_w at the others: the odd-degree
  sum n/2 + 1 beats the rank bound n/2, so some odd chi satisfies
  GKC(K/R,chi).
* ``gkc-gvc-equivalence``             -- with K and the cyclotomic tower of R
  linearly disjoint, GKC-(K) propagates to GVC(K/R,chi) for each odd chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .characters import character_table, odd_rows
from .certificates import (
    Certificate,
    Conclusion,
    Hypothesis,
    asserted,
    make_certificate,
    verified,
)
from .errors import InternalCheckError, PIsTwo
from .extensions import (
    ExtensionDescriptor,
    PrimeSummary,
    check_tower_disjointness,
    classify_primes,
)
from .groups import FiniteGroup
from .towers import Stability, TowerData, gkc_minus_stabilization
from .vanishing import tate_order

# caller-suppliable assumption keys: the keys a config may list, each read by
# a rule that records it as an asserted "caller assumption" hypothesis
ASSUME_LEOPOLDT = "leopoldt"
ASSUME_TOWER_DISJOINT = "tower-disjoint"
ASSUME_GKC_MINUS = "gkc-minus"
ASSUMPTION_KEYS = (ASSUME_LEOPOLDT, ASSUME_TOWER_DISJOINT, ASSUME_GKC_MINUS)


def klingen_criterion(G: FiniteGroup, tau: int) -> bool:
    """chi(1) + chi(tau) <= 2 for every irreducible chi.

    tau must be a central involution, which is checked on every call; the
    result must coincide with abelianness of G/<tau> (a theorem), and a
    discrepancy raises InternalCheckError.  The verdict, cross-check
    included, is computed on the first call for each group object and tau
    and then kept on G under the key ("klingen", tau).
    """
    G.require_central_involution(tau)
    return G.verdict(("klingen", tau), lambda: _klingen_verdict(G, tau))


def _klingen_verdict(G: FiniteGroup, tau: int) -> bool:
    # chi(tau) = -chi(1) on an odd row and chi(1) on an even one, so the
    # bound holds exactly when every even row is linear
    odd = odd_rows(G, tau)
    result = all(ch.degree == 1 for i, ch in enumerate(character_table(G)) if i not in odd)
    quotient_abelian = G.quotient_is_abelian(G.subgroup_generated_by([tau]))
    if result != quotient_abelian:
        raise InternalCheckError(
            "character-sum criterion disagrees with abelianness of G/<tau>"
        )
    return result


def _labels(records) -> str:
    return ", ".join(rec.label for rec in records)


def _cite(statement: str, cert: Certificate) -> Hypothesis:
    """The hypothesis that ``statement`` holds by the certificate ``cert``:
    verified when cert is unconditional, else asserted, so that a
    certificate resting on a conditional one is conditional too."""
    if cert.conditional:
        return asserted(statement, f"conditional certificate {cert.rule} [{cert.digest()}]")
    return verified(statement, f"rule {cert.rule} [{cert.digest()}]")


@dataclass
class CertifyOutcome:
    certificates: list[Certificate] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def __iter__(self):
        return iter(self.certificates)

    def by_rule(self, rule: str) -> list[Certificate]:
        return [c for c in self.certificates if c.rule == rule]

    def rules_cited(self) -> list[str]:
        seen = []
        for c in self.certificates:
            if c.rule not in seen:
                seen.append(c.rule)
        return seen


@dataclass(frozen=True)
class _Context:
    """What the rules of one ``certify`` call read: its inputs, the values
    computed once for all rules, and the certificates emitted so far."""

    ext: ExtensionDescriptor
    assumptions: frozenset[str]
    tower: TowerData | None
    summary: PrimeSummary
    digest: str
    subject: str
    certificates: list[Certificate]

    def emitted(self, conclusion: Conclusion) -> list[Certificate]:
        return [c for c in self.certificates if c.conclusion is conclusion]

    def certificate(self, conclusion, rule, hypotheses, payload, subject=None) -> Certificate:
        return make_certificate(
            conclusion, subject or self.subject, rule, hypotheses, payload, self.digest
        )


def _klingen(ctx: _Context):
    """Leopoldt for K by Klingen's criterion.  Over R = Q the bound is
    checked on G = Gal(K/Q); for a built compositum M * R, G = Gal(K/R) is
    Gal(M/Q) of the CM piece M.  Any other K gets neither key."""
    ext, con = ctx.ext, ctx.ext.construction
    if ext.base.degree == 1:
        rule = "klingen-character-bound"
        galois_hyp = verified("K is an imaginary Galois extension of Q", "R = Q, tau central")
        if con is not None and con.assertion:
            galois_hyp = asserted("K is an imaginary Galois extension of Q", con.assertion)
        hyps = [galois_hyp, verified("chi(1) + chi(tau) <= 2 for every irreducible chi")]
        payload = {"group_order": ext.group.order}
        failure = "some irreducible chi has chi(1)+chi(tau) > 2"
    elif con is None:
        return []
    else:
        rule = "klingen-abelian-compositum"
        if con.assertion:
            galois_hyp = asserted("M is an imaginary Galois extension of Q", con.assertion)
        else:
            galois_hyp = verified("M is an imaginary Galois extension of Q", con.label)
        hyps = [
            galois_hyp,
            verified(
                "chi(1) + chi(tau) <= 2 for every irreducible chi of Gal(M/Q)",
                f"CM piece {con.label}",
            ),
            verified(
                "R is a compositum of real quadratic fields (abelian over Q)",
                f"discriminants {list(ext.base.discs)}",
            ),
        ]
        payload = {"group_order": ext.group.order, "cm_piece": con.label}
        failure = "the CM piece fails the character bound"
    if not klingen_criterion(ext.group, ext.tau):
        return f"{rule}: {failure}"
    return [ctx.certificate(Conclusion.LEOPOLDT, rule, hyps, payload)]


def _split_rank_bound(ctx: _Context):
    """Rank bound r - s on the minus coinvariants for abelian K/R with a
    totally split prime v with R_v = Q_p.  The r = s case is flagged in the
    payload (GKC- upgrade)."""
    summary = ctx.summary
    if not summary.split_qp:
        return "split-rank-bound: hypothesis (a) failed: no totally split prime with R_v = Q_p"
    if not ctx.ext.group.is_abelian:
        return "split-rank-bound: hypothesis (b) failed: Gal(K/R) is not abelian"
    bound = summary.r - summary.s
    return [
        ctx.certificate(
            Conclusion.RANK_BOUND,
            "split-rank-bound",
            [
                verified(
                    "some prime of R above p is totally split in K with R_v = Q_p",
                    f"records {_labels(summary.split_qp)}",
                ),
                verified("Gal(K/R) is abelian"),
            ],
            {
                "r": summary.r,
                "s": summary.s,
                "bound": bound,
                "gkc_minus_implied": bound == 0,
            },
        )
    ]


def _no_split_primes(ctx: _Context):
    summary = ctx.summary
    if summary.r != 0 or not ctx.ext.primes:
        return "no-split-primes: some prime of K+ above p splits in K"
    return [
        ctx.certificate(
            Conclusion.GKC_MINUS,
            "no-split-primes",
            [
                verified(
                    "no prime of K+ above p splits in K",
                    f"tau lies in every decomposition group ({_labels(summary.tau_inert)})",
                )
            ],
            {"r": 0, "s": summary.s},
        )
    ]


def _undecomposed_subfield_reduction(ctx: _Context):
    reduction = _undecomposed_subfield(ctx.ext)
    if reduction is None:
        return "undecomposed-subfield-reduction: no proper CM-subfield with p undecomposed"
    n_sub, rem49 = reduction
    return [
        ctx.certificate(
            Conclusion.GKC_MINUS,
            "undecomposed-subfield-reduction",
            [
                verified(
                    "k = K^N is a CM-subfield of K",
                    f"N of order {len(n_sub)} with tau not in N",
                ),
                verified(
                    "p is undecomposed in K/k",
                    "N lies in the core of every decomposition group" + rem49,
                ),
                asserted(
                    "GKC-(k) holds",
                    "supply via a stored certificate for the subfield",
                ),
            ],
            {"subgroup_order": len(n_sub)},
        )
    ]


def _leopoldt_total_split(ctx: _Context):
    # with e = f = 1 everywhere the degree check on the descriptor makes the
    # count of primes [R:Q]
    ext = ctx.ext
    if not all(rec.base_is_qp and ext.totally_split(rec) for rec in ext.primes):
        return "leopoldt-total-split: p is not totally split in K/Q"
    klingen = ctx.emitted(Conclusion.LEOPOLDT)
    if klingen:
        leopoldt_hyp = _cite("Leopoldt's conjecture holds for K", klingen[0])
    elif ASSUME_LEOPOLDT in ctx.assumptions:
        leopoldt_hyp = asserted("Leopoldt's conjecture holds for K", "caller assumption")
    else:
        return "leopoldt-total-split: no Leopoldt certificate or assumption"
    return [
        ctx.certificate(
            Conclusion.GKC_MINUS,
            "leopoldt-total-split",
            [
                verified(
                    "p is totally split in K/Q",
                    f"{ctx.summary.t} primes of R, all with e = f = 1 and trivial G_w",
                ),
                leopoldt_hyp,
            ],
            {"primes_of_r": ctx.summary.t},
        )
    ]


def _abelian_split_rank_zero(ctx: _Context):
    # the rank bound's own diagnostic says why it is missing
    rank = ctx.emitted(Conclusion.RANK_BOUND)
    if not rank or rank[0].payload_dict()["bound"] != 0:
        return []
    return [
        ctx.certificate(
            Conclusion.GKC_MINUS,
            "abelian-split-rank-zero",
            list(rank[0].hypotheses)
            + [
                verified(
                    "every other prime of K+ above p is unsplit in K (r = s)",
                    _rem_4_9_detail(ctx.ext),
                )
            ],
            {"r": ctx.summary.r, "s": ctx.summary.s},
        )
    ]


def _chevalley_stabilization(ctx: _Context):
    tower, ext = ctx.tower, ctx.ext
    if tower is None:
        return []
    if tower.p != ext.p:
        return f"chevalley-stabilization: tower is for p = {tower.p}, descriptor for p = {ext.p}"
    stab = gkc_minus_stabilization(tower)
    if stab.status is not Stability.STABLE:
        return f"chevalley-stabilization: {stab.status.value} ({stab.detail})"
    return [
        ctx.certificate(
            Conclusion.GKC_MINUS,
            "chevalley-stabilization",
            [
                asserted(
                    "ingested tower data is correct",
                    f"tower {tower.label!r}, provenance {tower.provenance!r}",
                ),
                verified(
                    "consecutive minus-part orders agree",
                    stab.detail + f"; stabilized order {stab.bound}",
                ),
            ],
            {"bound": stab.bound, "tower": tower.label},
        )
    ]


def _dihedral_odd_character_counting(ctx: _Context):
    ext, summary = ctx.ext, ctx.summary
    G = ext.group
    # n = 2 (mod 4) exactly when |G| = 4 (mod 8); other orders read no element
    n = G.dihedral_n() if G.order % 8 == 4 else None
    if n is None:
        return "dihedral-odd-character-counting: G is not dihedral of order 2n with n = 2 (mod 4)"
    # the count r = n needs exactly one totally split prime of R: with t
    # of them r = t * n, and "every other prime" would be vacuous at t > 1
    split_ok = sum(rec.count for rec in summary.split_qp) == 1
    others_inert = all(ext.tau_in(rec) for rec in ext.primes if rec not in summary.split_qp)
    if not (split_ok and others_inert):
        return "dihedral-odd-character-counting: hypotheses (a)/(b) not satisfied"
    table = character_table(G)
    degree_sum = sum(table[i].degree for i in odd_rows(G, ext.tau))
    if degree_sum != n // 2 + 1:
        raise InternalCheckError("dihedral odd-degree sum is off")
    return [
        ctx.certificate(
            Conclusion.GKC_CHI_EXISTS,
            "dihedral-odd-character-counting",
            [
                verified("Gal(K/R) is dihedral of order 2n with n = 2 mod 4", f"n = {n}"),
                verified(
                    "some prime of R above p is totally split in K with R_v = Q_p",
                    f"records {_labels(summary.split_qp)}",
                ),
                verified("primes of K+ above the other primes of R are unsplit in K"),
            ],
            {
                "r": n,
                "s_over_rotation_subfield": n // 2,
                "rank_bound": n // 2,
                "odd_degree_sum": degree_sum,
                "counting": f"(n-2)/4 * 2 + 2 * 1 = {degree_sum} > {n // 2} = r - s",
            },
        )
    ]


def _gkc_gvc_equivalence(ctx: _Context):
    ext = ctx.ext
    G = ext.group
    if check_tower_disjointness(ext):
        disjoint_hyp = verified("K and the cyclotomic Z_p-tower of R are linearly disjoint",
                                f"p = {ext.p} does not divide |G| = {G.order}")
    elif ASSUME_TOWER_DISJOINT in ctx.assumptions:
        disjoint_hyp = asserted("K and the cyclotomic Z_p-tower of R are linearly disjoint",
                                "caller assumption")
    else:
        disjoint_hyp = None
    sources = ctx.emitted(Conclusion.GKC_MINUS)
    if not sources and ASSUME_GKC_MINUS not in ctx.assumptions:
        return "gkc-gvc-equivalence: no GKC-(K) certificate to propagate"
    if disjoint_hyp is None:
        return "gkc-gvc-equivalence: tower disjointness neither guaranteed (p | |G|) nor asserted"
    if sources:
        # prefer an unconditional source, else the first emitted
        gkc_hyp = _cite("GKC-(K) holds", min(sources, key=lambda c: c.conditional))
    else:
        gkc_hyp = asserted("GKC-(K) holds", "caller assumption")
    out = []
    table = character_table(G)
    for idx in odd_rows(G, ext.tau):
        chi = table[idx]
        r_s = tate_order(ext, chi)
        # under GKC-(K) the predicted order of vanishing is r_S (see vanishing)
        out.append(
            ctx.certificate(
                Conclusion.GVC_CHI,
                "gkc-gvc-equivalence",
                [gkc_hyp, disjoint_hyp, verified("chi is totally odd")],
                {
                    "chi_index": idx,
                    "chi_degree": chi.degree,
                    "r_S": r_s,
                    "predicted_lp_order": r_s,
                },
                subject=f"{ctx.subject} / chi{idx} (degree {chi.degree})",
            )
        )
    return out


# each rule returns its certificates (possibly none) or one diagnostic line
RULES = (
    _klingen,
    _split_rank_bound,
    _no_split_primes,
    _undecomposed_subfield_reduction,
    _leopoldt_total_split,
    _abelian_split_rank_zero,
    _chevalley_stabilization,
    _dihedral_odd_character_counting,
    _gkc_gvc_equivalence,
)


def certify(
    ext: ExtensionDescriptor,
    assumptions=(),
    tower: TowerData | None = None,
) -> CertifyOutcome:
    """Apply every rule of ``RULES``; returns certificates plus diagnostics
    for the rules that did not fire.  p = 2 is rejected outright."""
    if ext.p == 2:
        raise PIsTwo("no certification at p = 2 (no main conjecture)")
    out = CertifyOutcome()
    digest = ext.digest()
    ctx = _Context(ext, frozenset(assumptions), tower, classify_primes(ext), digest,
                   ext.label or digest, out.certificates)
    for rule in RULES:
        emitted = rule(ctx)
        if isinstance(emitted, str):
            out.diagnostics.append(emitted)
        else:
            out.certificates.extend(emitted)
    if not out.certificates:
        out.diagnostics.insert(0, "no applicable rule")
    return out


def _rem_4_9_detail(ext: ExtensionDescriptor) -> str:
    """Sufficient conditions for 'unsplit in K': odd split count, or split
    count coprime to the full 2-part with cyclic 2-Sylow.  Reported as
    hypothesis detail when they hold."""
    G = ext.group
    n = G.order
    two_part = 1
    while n % 2 == 0:
        n //= 2
        two_part *= 2
    notes = []
    # a 2-Sylow is cyclic exactly when some element's order is its order
    # (one involution is not enough: Q8 x C_m has one and a Q8 2-Sylow)
    cyclic_two_sylow = two_part in G._orders
    for rec in ext.primes:
        if ext.tau not in rec.decomposition:
            continue
        count = G.order // len(rec.decomposition)
        if count % 2 == 1:
            notes.append(f"{rec.label}: odd number of primes of K")
        elif cyclic_two_sylow and count % two_part != 0:
            notes.append(f"{rec.label}: prime count not divisible by {two_part}, 2-Sylow cyclic")
    return "; ".join(notes)


def _undecomposed_subfield(ext: ExtensionDescriptor):
    """Largest proper subgroup N with tau not in N contained in the core of
    every decomposition group, or None.  N depends only on G, tau and the
    distinct G_w, so it is chosen once per group object and kept on G under
    the key ("undecomposed", tau, frozenset of the distinct G_w); the
    Remark 4.9 detail names the records and is built for each descriptor."""
    G = ext.group
    subgroups = frozenset(rec.decomposition for rec in ext.primes)
    if not subgroups:
        return None
    best = G.verdict(
        ("undecomposed", ext.tau, subgroups), lambda: _largest_undecomposed(G, ext.tau, subgroups)
    )
    if best is None:
        return None
    detail = _rem_4_9_detail(ext)
    return best, (f" ({detail})" if detail else "")


def _largest_undecomposed(G: FiniteGroup, tau: int, subgroups) -> frozenset[int] | None:
    meet = frozenset.intersection(*(G.normal_core(H) for H in subgroups))
    candidates = [h for h in G.all_subgroups(inside=meet) if len(h) > 1 and tau not in h]
    return max(candidates, key=lambda h: (len(h), sorted(h))) if candidates else None
