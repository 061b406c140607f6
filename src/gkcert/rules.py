"""The certificate rule base.

Each rule inspects an extension descriptor (plus optional tower data and
caller assumptions), checks its hypotheses from the stored decomposition
data, and emits certificates whose hypothesis lists make the audit trail
explicit.  Rule keys are fixed strings:

* ``no-split-primes``                 -- no prime of K+ above p splits in K.
* ``undecomposed-subfield-reduction`` -- a CM-subfield k with p undecomposed
  in K/k reduces GKC-(K) to GKC-(k) (always an Asserted input).
* ``leopoldt-total-split``            -- Leopoldt for K plus p totally split
  in K/Q gives GKC-(K).
* ``klingen-character-bound``         -- chi(1) + chi(tau) <= 2 for all chi
  certifies Leopoldt for an imaginary Galois K/Q.
* ``klingen-abelian-compositum``      -- the same bound on a CM piece M
  certifies Leopoldt for every compositum M * (real abelian).
* ``split-rank-bound``                -- abelian K/R with a totally split
  Q_p-prime: rank bound r - s on the minus coinvariants.
* ``abelian-split-rank-zero``         -- the r = s case upgrades to GKC-(K).
* ``dihedral-odd-character-counting`` -- D_n, n = 2 mod 4, exactly one
  totally split Q_p-prime of R and tau in G_w at the others: the odd-degree
  sum n/2 + 1 beats the rank bound n/2, so some odd chi satisfies
  GKC(K/R,chi).
* ``chevalley-stabilization``         -- ingested tower data with stabilized
  minus-part orders.
* ``gkc-gvc-equivalence``             -- with K and the cyclotomic tower of R
  linearly disjoint, GKC-(K) propagates to GVC(K/R,chi) for each odd chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .characters import SCALE_BOUND, character_table, is_odd, odd_characters
from .certificates import (
    Certificate,
    Conclusion,
    Hypothesis,
    asserted,
    make_certificate,
    verified,
)
from .errors import (
    HypothesisFailed,
    InternalCheckError,
    PIsTwo,
    TauNotCentralInvolution,
)
from .extensions import (
    ExtensionDescriptor,
    PrimeSummary,
    check_tower_disjointness,
    classify_primes,
)
from .groups import FiniteGroup
from .towers import Stability, TowerData, gkc_minus_stabilization
from .vanishing import GKC_ASSUMED, t_order_ledger

# caller-suppliable assumption keys
ASSUME_LEOPOLDT = "leopoldt"
ASSUME_TOWER_DISJOINT = "tower-disjoint"
ASSUME_GKC_MINUS = "gkc-minus"


def klingen_criterion(G: FiniteGroup, tau: int) -> bool:
    """chi(1) + chi(tau) <= 2 for every irreducible chi.

    tau must be a central involution, which is checked on every call; the
    result must coincide with abelianness of G/<tau> (a theorem), and a
    discrepancy raises InternalCheckError.  The verdict, cross-check
    included, is computed on the first call for each group object and tau
    and then kept on G under the key ("klingen", tau).
    """
    if not G.is_central_involution(tau):
        raise TauNotCentralInvolution(f"element {tau} is not a central involution")
    return G.verdict(("klingen", tau), lambda: _klingen_verdict(G, tau))


def _klingen_verdict(G: FiniteGroup, tau: int) -> bool:
    result = all(ch.degree + ch.value_at(tau).as_int() <= 2 for ch in character_table(G))
    quotient_abelian = G.quotient_is_abelian(G.subgroup_generated_by([tau]))
    if result != quotient_abelian:
        raise InternalCheckError(
            "character-sum criterion disagrees with abelianness of G/<tau>"
        )
    return result


def _subject(ext: ExtensionDescriptor) -> str:
    return ext.label or ext.digest()


def _cite(statement: str, cert: Certificate) -> Hypothesis:
    """The hypothesis that ``statement`` holds by the certificate ``cert``:
    verified when cert is unconditional, else asserted, so that a
    certificate resting on a conditional one is conditional too."""
    if cert.conditional:
        return asserted(statement, f"conditional certificate {cert.rule} [{cert.digest()}]")
    return verified(statement, f"rule {cert.rule} [{cert.digest()}]")


def rank_bound(ext: ExtensionDescriptor, summary: PrimeSummary | None = None) -> Certificate:
    """Rank bound r - s on the minus coinvariants for abelian K/R with a
    totally split prime v with R_v = Q_p; raises HypothesisFailed otherwise.
    The r = s case is flagged in the payload (GKC- upgrade).  ``summary`` is
    ``classify_primes(ext)`` for a caller that has it already."""
    if summary is None:
        summary = classify_primes(ext)
    if not summary.split_qp_labels:
        raise HypothesisFailed("a", "no totally split prime with R_v = Q_p")
    if not ext.group.is_abelian:
        raise HypothesisFailed("b", "Gal(K/R) is not abelian")
    bound = summary.r - summary.s
    return make_certificate(
        Conclusion.RANK_BOUND,
        _subject(ext),
        "split-rank-bound",
        [
            verified(
                "some prime of R above p is totally split in K with R_v = Q_p",
                f"records {', '.join(summary.split_qp_labels)}",
            ),
            verified("Gal(K/R) is abelian"),
        ],
        {
            "r": summary.r,
            "s": summary.s,
            "bound": bound,
            "gkc_minus_implied": bound == 0,
        },
        ext.digest(),
    )


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


def _klingen_rule(ext: ExtensionDescriptor):
    """(rule key, hypotheses, payload, failure note) of the Klingen step, or
    None when it does not apply.  Over R = Q the bound is checked on
    G = Gal(K/Q); for a built compositum M * R, G = Gal(K/R) is Gal(M/Q) of
    the CM piece M."""
    con = ext.construction
    if ext.base.degree == 1:
        galois_hyp = verified("K is an imaginary Galois extension of Q", "R = Q, tau central")
        if con is not None and con.assertion:
            galois_hyp = asserted("K is an imaginary Galois extension of Q", con.assertion)
        return (
            "klingen-character-bound",
            [galois_hyp, verified("chi(1) + chi(tau) <= 2 for every irreducible chi")],
            {"group_order": ext.group.order},
            "some irreducible chi has chi(1)+chi(tau) > 2",
        )
    if con is None:
        return None
    if con.assertion:
        galois_hyp = asserted("M is an imaginary Galois extension of Q", con.assertion)
    else:
        galois_hyp = verified("M is an imaginary Galois extension of Q", con.label)
    return (
        "klingen-abelian-compositum",
        [
            galois_hyp,
            verified(
                "chi(1) + chi(tau) <= 2 for every irreducible chi of Gal(M/Q)",
                f"CM piece {con.label}",
            ),
            verified(
                "R is a compositum of real quadratic fields (abelian over Q)",
                f"discriminants {list(ext.base.discs)}",
            ),
        ],
        {"group_order": ext.group.order, "cm_piece": con.label},
        "the CM piece fails the character bound",
    )


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
    involutions = [g for g in range(G.order) if g != G.identity and G.op(g, g) == G.identity]
    cyclic_two_sylow = len(involutions) == 1
    for rec in ext.primes:
        if ext.tau not in rec.decomposition:
            continue
        count = G.order // len(rec.decomposition)
        if count % 2 == 1:
            notes.append(f"{rec.label}: odd number of primes of K")
        elif cyclic_two_sylow and count % two_part != 0:
            notes.append(f"{rec.label}: prime count not divisible by {two_part}, 2-Sylow cyclic")
    return "; ".join(notes)


def certify(
    ext: ExtensionDescriptor,
    assumptions=(),
    tower: TowerData | None = None,
) -> CertifyOutcome:
    """Apply every applicable rule; returns certificates plus diagnostics for
    the rules that did not fire.  p = 2 is rejected outright."""
    if ext.p == 2:
        raise PIsTwo("no certification at p = 2 (no main conjecture)")
    assumptions = frozenset(assumptions)
    out = CertifyOutcome()
    digest = ext.digest()
    subject = _subject(ext)
    summary = classify_primes(ext)
    G = ext.group

    # rules that read the character table are skipped above this order
    tabulated = G.order <= SCALE_BOUND

    # ---- Leopoldt certificates (Klingen's criterion) ----
    leopoldt_cert = None
    klingen = _klingen_rule(ext)
    if klingen is not None:
        rule, hyps, payload, failure = klingen
        if not tabulated:
            out.diagnostics.append(f"{rule}: |G| exceeds the character-table bound")
        elif klingen_criterion(G, ext.tau):
            leopoldt_cert = make_certificate(
                Conclusion.LEOPOLDT, subject, rule, hyps, payload, digest
            )
            out.certificates.append(leopoldt_cert)
        else:
            out.diagnostics.append(f"{rule}: {failure}")

    # ---- GKC-(K) rules ----
    gkc_minus: list[Certificate] = []

    # no prime of K+ above p splits in K
    if summary.r == 0 and ext.primes:
        gkc_minus.append(
            make_certificate(
                Conclusion.GKC_MINUS,
                subject,
                "no-split-primes",
                [
                    verified(
                        "no prime of K+ above p splits in K",
                        f"tau lies in every decomposition group ({', '.join(summary.tau_inert_labels)})",
                    )
                ],
                {"r": 0, "s": summary.s},
                digest,
            )
        )
    else:
        out.diagnostics.append("no-split-primes: some prime of K+ above p splits in K")

    # reduction to a CM-subfield with p undecomposed in K/k
    reduction = _undecomposed_subfield(ext)
    if reduction is not None:
        n_sub, rem49 = reduction
        gkc_minus.append(
            make_certificate(
                Conclusion.GKC_MINUS,
                subject,
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
                digest,
            )
        )
    else:
        out.diagnostics.append(
            "undecomposed-subfield-reduction: no proper CM-subfield with p undecomposed"
        )

    # Leopoldt + totally split in K/Q; with e = f = 1 everywhere the degree
    # check on the descriptor makes the count of primes [R:Q]
    split_kq = all(rec.base_is_qp and ext.totally_split(rec) for rec in ext.primes)
    leopoldt_hyp = None
    if leopoldt_cert is not None:
        leopoldt_hyp = _cite("Leopoldt's conjecture holds for K", leopoldt_cert)
    elif ASSUME_LEOPOLDT in assumptions:
        leopoldt_hyp = asserted("Leopoldt's conjecture holds for K", "caller assumption")
    if split_kq and leopoldt_hyp is not None:
        gkc_minus.append(
            make_certificate(
                Conclusion.GKC_MINUS,
                subject,
                "leopoldt-total-split",
                [
                    verified(
                        "p is totally split in K/Q",
                        f"{summary.t} primes of R, all with e = f = 1 and trivial G_w",
                    ),
                    leopoldt_hyp,
                ],
                {"primes_of_r": summary.t},
                digest,
            )
        )
    elif not split_kq:
        out.diagnostics.append("leopoldt-total-split: p is not totally split in K/Q")
    else:
        out.diagnostics.append("leopoldt-total-split: no Leopoldt certificate or assumption")

    # abelian rank bound; r = s upgrades
    try:
        rb = rank_bound(ext, summary)
        out.certificates.append(rb)
        if rb.payload_dict()["bound"] == 0:
            detail = _rem_4_9_detail(ext)
            gkc_minus.append(
                make_certificate(
                    Conclusion.GKC_MINUS,
                    subject,
                    "abelian-split-rank-zero",
                    list(rb.hypotheses)
                    + [
                        verified(
                            "every other prime of K+ above p is unsplit in K (r = s)",
                            detail,
                        )
                    ],
                    {"r": summary.r, "s": summary.s},
                    digest,
                )
            )
    except HypothesisFailed as exc:
        out.diagnostics.append(f"split-rank-bound: {exc}")

    # tower stabilization
    if tower is not None:
        if tower.p != ext.p:
            out.diagnostics.append(
                f"chevalley-stabilization: tower is for p = {tower.p}, descriptor for p = {ext.p}"
            )
        else:
            stab = gkc_minus_stabilization(tower)
            if stab.status is Stability.STABLE:
                gkc_minus.append(
                    make_certificate(
                        Conclusion.GKC_MINUS,
                        subject,
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
                        digest,
                    )
                )
            else:
                out.diagnostics.append(f"chevalley-stabilization: {stab.status.value} ({stab.detail})")

    out.certificates.extend(gkc_minus)

    # ---- dihedral counting (existential GKC(K/R, chi)) ----
    if G.spec[0] == "dihedral" and G.spec[1] % 4 == 2:
        n = G.spec[1]
        # the count r = n needs exactly one totally split prime of R: with t
        # of them r = t * n, and "every other prime" would be vacuous at t > 1
        split_ok = sum(rec.count for rec in ext.primes if rec.label in summary.split_qp_labels) == 1
        others_inert = all(
            ext.tau_in(rec) for rec in ext.primes if rec.label not in summary.split_qp_labels
        )
        if split_ok and others_inert and tabulated:
            odd = odd_characters(character_table(G), ext.tau)
            degree_sum = sum(ch.degree for ch in odd)
            if degree_sum != n // 2 + 1:
                raise InternalCheckError("dihedral odd-degree sum is off")
            out.certificates.append(
                make_certificate(
                    Conclusion.GKC_CHI_EXISTS,
                    subject,
                    "dihedral-odd-character-counting",
                    [
                        verified("Gal(K/R) is dihedral of order 2n with n = 2 mod 4", f"n = {n}"),
                        verified(
                            "some prime of R above p is totally split in K with R_v = Q_p",
                            f"records {', '.join(summary.split_qp_labels)}",
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
                    digest,
                )
            )
        else:
            out.diagnostics.append(
                "dihedral-odd-character-counting: hypotheses (a)/(b) not satisfied"
            )
    else:
        # n is read from the spec, so a dihedral group written as a table is missed
        out.diagnostics.append(
            "dihedral-odd-character-counting: G is not given as D_n with n = 2 (mod 4)"
        )

    # ---- GVC propagation through the equivalence ----
    if check_tower_disjointness(ext):
        disjoint_hyp = verified("K and the cyclotomic Z_p-tower of R are linearly disjoint",
                                f"p = {ext.p} does not divide |G| = {G.order}")
    elif ASSUME_TOWER_DISJOINT in assumptions:
        disjoint_hyp = asserted("K and the cyclotomic Z_p-tower of R are linearly disjoint",
                                "caller assumption")
    else:
        disjoint_hyp = None

    gkc_source = None
    if gkc_minus:
        # prefer an unconditional source
        gkc_source = min(gkc_minus, key=lambda c: c.conditional)
    if gkc_source is not None or ASSUME_GKC_MINUS in assumptions:
        if disjoint_hyp is None:
            out.diagnostics.append(
                "gkc-gvc-equivalence: tower disjointness neither guaranteed (p | |G|) nor asserted"
            )
        elif not tabulated:
            out.diagnostics.append("gkc-gvc-equivalence: |G| exceeds the character-table bound")
        else:
            if gkc_source is not None:
                gkc_hyp = _cite("GKC-(K) holds", gkc_source)
            else:
                gkc_hyp = asserted("GKC-(K) holds", "caller assumption")
            for idx, one in enumerate(character_table(G)):
                if not is_odd(one, ext.tau):
                    continue
                ledger = t_order_ledger(ext, one, GKC_ASSUMED)
                out.certificates.append(
                    make_certificate(
                        Conclusion.GVC_CHI,
                        f"{subject} / chi{idx} (degree {one.degree})",
                        "gkc-gvc-equivalence",
                        [gkc_hyp, disjoint_hyp, verified("chi is totally odd")],
                        {
                            "chi_index": idx,
                            "chi_degree": one.degree,
                            "r_S": ledger.r_s,
                            "predicted_lp_order": ledger.predicted_lp_order,
                        },
                        digest,
                    )
                )
    else:
        out.diagnostics.append("gkc-gvc-equivalence: no GKC-(K) certificate to propagate")

    if not out.certificates:
        out.diagnostics.insert(0, "no applicable rule")
    return out


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
