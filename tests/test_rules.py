import glob
import json
import os
import random
import re
from dataclasses import replace

import pytest

from gkcert.certificates import Conclusion, Status
from gkcert.errors import PIsTwo, TauNotCentralInvolution
from gkcert.extensions import (
    ExtensionDescriptor,
    PrimeRecord,
    Q8_PIECE,
    QuadraticComponent,
    build_compositum_over_Q,
    ingest_extension,
)
from gkcert.groups import abelian_group, dihedral_group, group_from_table, quaternion_group
from gkcert.intpoly import IntPoly
from gkcert.numberfield import make_field
from gkcert.numutil import kronecker
from gkcert.rules import (
    ASSUME_GKC_MINUS,
    ASSUME_TOWER_DISJOINT,
    _undecomposed_subfield,
    certify,
    klingen_criterion,
)
from gkcert.towers import TOWER_SCHEMA_ID, TowerData, TowerLayer
from helpers import (
    direct_product,
    groups_with_central_involution,
    random_descriptor,
    relabelled_table,
    sl23_group,
)
from test_characters import counting
from test_extensions import q8_split_primes


def test_klingen_examples():
    assert klingen_criterion(quaternion_group(), 1) is True
    assert klingen_criterion(dihedral_group(4), 2) is True
    assert klingen_criterion(dihedral_group(6), 3) is False  # D6/<a^3> = D3


def test_klingen_equivalence_exhaustive():
    for G, tau in groups_with_central_involution(24):
        expected = G.quotient_is_abelian(G.subgroup_generated_by([tau]))
        assert klingen_criterion(G, tau) == expected


def test_rank_bound_examples():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    (cert,) = certify(ext).by_rule("split-rank-bound")
    pd = cert.payload_dict()
    assert (pd["r"], pd["s"], pd["bound"]) == (1, 1, 0) and pd["gkc_minus_implied"]
    assert cert.subject == (ext.label or ext.digest()) and cert.inputs_digest == ext.digest()
    # hypothesis (a) fails at an inert prime
    out = certify(build_compositum_over_Q([QuadraticComponent(-4)], 7))
    assert not out.by_rule("split-rank-bound")
    assert (
        "split-rank-bound: hypothesis (a) failed: no totally split prime with R_v = Q_p"
        in out.diagnostics
    )
    # hypothesis (b) fails for Q8
    p0 = q8_split_primes(600)[0]
    out = certify(build_compositum_over_Q([Q8_PIECE], p0))
    assert not out.by_rule("split-rank-bound")
    assert "split-rank-bound: hypothesis (b) failed: Gal(K/R) is not abelian" in out.diagnostics


def test_certify_imaginary_quadratic():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    out = certify(ext)
    conclusions = {c.conclusion for c in out}
    assert {Conclusion.LEOPOLDT, Conclusion.GKC_MINUS, Conclusion.GVC_CHI} <= conclusions
    gvc = out.by_rule("gkc-gvc-equivalence")
    assert len(gvc) == 1 and gvc[0].payload_dict()["r_S"] == 1
    assert not gvc[0].conditional


def test_certify_theorem_b_chain():
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    ext = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    out = certify(ext)
    rules = out.rules_cited()
    for rule in ("klingen-abelian-compositum", "leopoldt-total-split", "gkc-gvc-equivalence"):
        assert rule in rules, rules
    gvc = out.by_rule("gkc-gvc-equivalence")[0]
    assert gvc.payload_dict()["r_S"] == 4
    disjoint = [h for h in gvc.hypotheses if "disjoint" in h.statement][0]
    assert disjoint.status is Status.VERIFIED
    # the klingen certificate on the compositum cites the character bound
    leo = out.by_rule("klingen-abelian-compositum")[0]
    assert any("chi(1) + chi(tau) <= 2" in h.statement for h in leo.hypotheses)


def test_certify_tau_inert_route():
    ptau = next(
        p
        for p in range(5, 500)
        if _q8_frob_or_none(p) == 1
    )
    ext = build_compositum_over_Q([Q8_PIECE], ptau)
    out = certify(ext)
    assert out.by_rule("no-split-primes")
    gvc = out.by_rule("gkc-gvc-equivalence")
    assert gvc and all(c.payload_dict()["r_S"] == 0 for c in gvc)


def _q8_frob_or_none(p):
    from gkcert.errors import AmbiguousDecomposition, RamifiedPrime
    from gkcert.numutil import is_prime

    if not is_prime(p):
        return None
    try:
        return Q8_PIECE.frobenius(p)
    except (AmbiguousDecomposition, RamifiedPrime):
        return None


def test_certify_dihedral_counting():
    base = make_field(IntPoly([-5, 0, 1]))
    d6 = dihedral_group(6)
    ext = ExtensionDescriptor(
        base=base,
        group=d6,
        tau=3,
        p=11,
        primes=(
            PrimeRecord("v1", 1, 1, frozenset({0})),
            PrimeRecord("v2", 1, 1, frozenset({0, 3})),
        ),
        label="d6-demo",
    )
    out = certify(ext)
    ex = [c for c in out if c.conclusion is Conclusion.GKC_CHI_EXISTS]
    assert len(ex) == 1
    pd = ex[0].payload_dict()
    assert pd["odd_degree_sum"] == 4 and pd["rank_bound"] == 3 and pd["r"] == 6
    assert pd["odd_degree_sum"] - pd["rank_bound"] == 1


def test_dihedral_counting_needs_exactly_one_split_prime():
    """D6 over R = Q(sqrt5, sqrt13, sqrt17, sqrt29) at p = 2089, where all 16
    primes of R are totally split: r = 16 * 6, not n = 6, so the counting
    rule must not fire, whether the primes are one record of count 16 or 16
    records.  The shipped demo, with exactly one split prime, still fires."""
    assert all(kronecker(d, 2089) == 1 for d in (5, 13, 17, 29))
    split = {"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]}
    for primes in (
        [{"label": "v1-v16", "count": 16, **split}],
        [{"label": f"v{i}", **split} for i in range(1, 17)],
    ):
        doc = {
            "schema": "gkcert/extension-descriptor/v1",
            "label": "d6-sixteen-split",
            "base": {"multiquadratic": [5, 13, 17, 29]},
            "group": {"kind": "dihedral", "data": 6},
            "tau": 3,
            "p": 2089,
            "primes": primes,
        }
        out = certify(ingest_extension(doc))
        assert not out.by_rule("dihedral-odd-character-counting")
        assert "dihedral-odd-character-counting: hypotheses (a)/(b) not satisfied" in out.diagnostics
    with open(os.path.join(DESCRIPTOR_DIR, "d6_counting_demo.json")) as fh:
        demo = certify(ingest_extension(json.load(fh)))
    assert [c.payload_dict()["r"] for c in demo.by_rule("dihedral-odd-character-counting")] == [6]


def test_rules_read_prime_records_by_content_not_by_label():
    """A label names a record in hypothesis details and nothing more: with
    every record of a descriptor relabelled "v", the same rules fire with
    the same payloads and the same diagnostics."""
    rng = random.Random(3131)
    outcomes = {}
    for ext in _shipped_descriptors() + [random_descriptor(rng) for _ in range(80)]:
        want = certify(ext)
        got = outcomes[ext.label] = certify(
            replace(ext, primes=tuple(replace(rec, label="v") for rec in ext.primes))
        )
        assert got.rules_cited() == want.rules_cited(), ext.label
        assert [c.payload for c in got] == [c.payload for c in want], ext.label
        assert got.diagnostics == want.diagnostics, ext.label
    (cert,) = outcomes["d6-counting-demo"].by_rule("dihedral-odd-character-counting")
    assert any(h.detail == "records v" for h in cert.hypotheses)


def test_dihedral_counting_reads_the_group_not_its_spec():
    # the shipped demo gets the certificate however its group is written: as
    # D6, as D6's own table, or as that table with its elements renamed and
    # tau and each G_w renamed along
    with open(os.path.join(DESCRIPTOR_DIR, "d6_counting_demo.json")) as fh:
        doc = json.load(fh)
    table = dihedral_group(6).table
    perm = list(range(12))
    random.Random(6).shuffle(perm)
    renamed = {
        **doc,
        "group": {"kind": "table", "data": relabelled_table(table, perm)},
        "tau": perm[doc["tau"]],
        "primes": [
            {**rec, "decomposition_subgroup": sorted(perm[g] for g in rec["decomposition_subgroup"])}
            for rec in doc["primes"]
        ],
    }
    as_table = {**doc, "group": {"kind": "table", "data": table}}
    (spec_cert,) = certify(ingest_extension(doc)).by_rule("dihedral-odd-character-counting")
    for other in (as_table, renamed):
        (cert,) = certify(ingest_extension(other)).by_rule("dihedral-odd-character-counting")
        assert (cert.conclusion, cert.subject, cert.payload, cert.hypotheses) == (
            spec_cert.conclusion, spec_cert.subject, spec_cert.payload, spec_cert.hypotheses
        )
        assert cert.inputs_digest != spec_cert.inputs_digest


def test_v4_gets_one_set_of_certificates_however_it_is_written():
    # abelian [2, 2], D_2 and its raw table share one multiplication table;
    # only the digests differ, and the hypothesis details that cite them
    seen = []
    for G in (abelian_group([2, 2]), dihedral_group(2), group_from_table(dihedral_group(2).table)):
        ext = ExtensionDescriptor(
            base=make_field(IntPoly([0, 1])),
            group=G,
            tau=1,
            p=5,
            primes=(PrimeRecord("v1", 1, 1, frozenset({0})),),
            label="v4-demo",
        )
        out = certify(ext)
        assert out.by_rule("dihedral-odd-character-counting")
        certs = [
            (c.rule, c.conclusion, c.subject, c.payload,
             [(h.statement, h.status) for h in c.hypotheses])
            for c in out
        ]
        seen.append((certs, out.diagnostics))
    assert seen[0] == seen[1] == seen[2]


def test_certify_undecomposed_subfield():
    # Q8 with G_w = <i> (order 4): N = <-1> is a proper subgroup avoiding...
    # tau = -1 IS in <i>, so pick G_w = <i> and check the no-split route/
    # subfield route consistency on a descriptor where tau not in G_w: use
    # cyclic C4 with G_w = C4 and tau the square: tau in G_w -> cor 4.2.
    # For the subfield rule proper, take C2 x C4, tau = (1, 0), G_w = <(0,1)>.
    G = abelian_group([2, 4])
    tau = 1  # (1, 0)
    g_w = G.subgroup_generated_by([2])  # <(0,1)> of order 4, tau not inside
    base = make_field(IntPoly([0, 1]))
    ext = ExtensionDescriptor(
        base=base,
        group=G,
        tau=tau,
        p=5,
        primes=(PrimeRecord("v1", 1, 1, g_w),),
        label="c2xc4-demo",
    )
    out = certify(ext)
    red = out.by_rule("undecomposed-subfield-reduction")
    assert red, out.diagnostics
    cert = red[0]
    assert cert.conditional  # GKC-(k) is always an Asserted input
    assert any(h.status is Status.ASSERTED and "GKC-(k)" in h.statement for h in cert.hypotheses)


def _remark_4_9_details(G, g_w):
    """The hypothesis details that certify gives a descriptor over Q with
    p = 5, the central involution of G as tau and one record with G_w."""
    tau = next(g for g in range(G.order) if G.is_central_involution(g))
    ext = ExtensionDescriptor(
        base=make_field(IntPoly([0, 1])),
        group=G,
        tau=tau,
        p=5,
        primes=(PrimeRecord("v1", 1, 1, G.subgroup_generated_by([tau, *g_w])),),
        label="remark-4.9",
    )
    out = certify(ext)
    assert out.by_rule("undecomposed-subfield-reduction"), out.diagnostics
    return [h.detail for c in out.certificates for h in c.hypotheses]


def test_cyclic_two_sylow_note_is_true():
    # Q8 x C3 has one involution, but its 2-Sylow is Q8: no note may call it
    # cyclic; C12's 2-Sylow C4 is cyclic, and its note stays
    q8_c3 = direct_product(quaternion_group(), abelian_group([3]))
    details = _remark_4_9_details(q8_c3, [1])  # element 1 = (identity, generator of C3)
    assert not any("2-Sylow cyclic" in d for d in details), details
    details = _remark_4_9_details(abelian_group([12]), [4])  # G_w = <2> of order 6
    assert any(
        "(v1: prime count not divisible by 4, 2-Sylow cyclic)" in d for d in details
    ), details


def test_certify_with_tower():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    tower = TowerData(
        label="demo",
        p=13,
        r=1,
        layers=(
            TowerLayer(0, 13, 1, 1, 1, 1),
            TowerLayer(1, 13, 1, 13, 1, 13),
        ),
    )
    out = certify(ext, tower=tower)
    stab = out.by_rule("chevalley-stabilization")
    assert stab and stab[0].payload_dict()["bound"] == 13
    assert stab[0].conditional  # ingested data is an assertion


def test_p_equals_two_rejected():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    with pytest.raises(PIsTwo):
        certify(replace(ext, p=2))


def test_gvc_audit_property():
    """Every GVC certificate carries a verified-or-asserted disjointness
    hypothesis; without it none is emitted."""
    rng = random.Random(301)
    emitted = 0
    for _ in range(150):
        ext = random_descriptor(rng)
        if ext.p == 2:
            continue
        for assumptions in ((), (ASSUME_TOWER_DISJOINT, ASSUME_GKC_MINUS)):
            out = certify(ext, assumptions=assumptions)
            for cert in out:
                if cert.conclusion is Conclusion.GVC_CHI:
                    emitted += 1
                    assert any(
                        "linearly disjoint" in h.statement
                        and h.status in (Status.VERIFIED, Status.ASSERTED)
                        for h in cert.hypotheses
                    )
                    if ext.group.order % ext.p == 0:
                        assert ASSUME_TOWER_DISJOINT in assumptions
    assert emitted > 20


def test_no_applicable_rule_diagnostics():
    # split prime, nonabelian D6 with tau not inert anywhere, no Leopoldt:
    base = make_field(IntPoly([0, 1]))
    d6 = dihedral_group(6)
    ext = ExtensionDescriptor(
        base=base,
        group=d6,
        tau=3,
        p=7,
        primes=(PrimeRecord("v1", 1, 1, frozenset({0, 6})),),
        label="d6-no-rule",
    )
    out = certify(ext)
    assert not [c for c in out if c.conclusion is Conclusion.GKC_MINUS]
    assert out.diagnostics


def test_certify_raw_table_runs_dixon_once(monkeypatch):
    from gkcert.extensions import ingest_extension

    runs = {name: counting(monkeypatch, name) for name in ("_dixon_table", "_tensor_with_cyclic")}

    def ingest(G, tau):
        return ingest_extension(
            {
                "base_poly": [0],
                "p": 5,
                "group": {"kind": "table", "data": [list(r) for r in G.table]},
                "tau": tau,
                "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0, tau]}],
            }
        )

    ext = ingest(dihedral_group(4), 2)
    out = certify(ext)
    # Klingen's bound and the GVC propagation both read the table
    assert out.by_rule("klingen-character-bound")
    assert out.by_rule("gkc-gvc-equivalence")
    assert runs == {"_dixon_table": [ext.group], "_tensor_with_cyclic": []}
    # raw D4 x C3 (tau = (a^2, 1)) splits off C3 once; Dixon runs on its D4 factor
    ext = ingest(direct_product(dihedral_group(4), abelian_group([3])), 6)
    runs["_dixon_table"].clear()
    out = certify(ext)
    assert out.by_rule("gkc-gvc-equivalence")
    assert runs["_tensor_with_cyclic"] == [ext.group]
    assert [G.order for G in runs["_dixon_table"]] == [8]


DESCRIPTOR_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data", "descriptors")


def undecomposed_by_full_lattice(ext):
    """The N of _undecomposed_subfield, chosen from the whole subgroup
    lattice filtered by h <= meet."""
    G = ext.group
    cores = [G.normal_core(rec.decomposition) for rec in ext.primes]
    if not cores:
        return None
    meet = set.intersection(*(set(c) for c in cores))
    candidates = [h for h in G.all_subgroups() if len(h) > 1 and ext.tau not in h and h <= meet]
    return max(candidates, key=lambda h: (len(h), sorted(h))) if candidates else None


def _shipped_descriptors():
    """The ingested descriptors of DESCRIPTOR_DIR, its tower file left out."""
    exts = []
    for path in sorted(glob.glob(os.path.join(DESCRIPTOR_DIR, "*.json"))):
        with open(path) as fh:
            document = json.load(fh)
        if document.get("schema") != TOWER_SCHEMA_ID:
            exts.append(ingest_extension(document))
    return exts


def test_undecomposed_subfield_matches_full_lattice_filter():
    exts = _shipped_descriptors()
    assert len(exts) == 3
    rng = random.Random(4242)
    exts += [random_descriptor(rng) for _ in range(300)]
    found = 0
    for ext in exts:
        got = _undecomposed_subfield(ext)
        want = undecomposed_by_full_lattice(ext)
        assert (got[0] if got else None) == want
        found += want is not None
    assert found > 20


def _over_fresh_group(ext):
    """The same descriptor over a newly built copy of its group, which has
    no stored table or verdicts."""
    fresh = replace(ext.group)
    assert fresh == ext.group and fresh is not ext.group and not fresh._verdicts
    return replace(ext, group=fresh)


@pytest.mark.parametrize("piece", ["q8", "d4"])
def test_certify_with_stored_verdicts_matches_a_fresh_group(piece):
    from gkcert.harness import search_theoremB

    hits = search_theoremB(pool=[5, 13], target_r=4, prime_bound=3000, cm_piece=piece, max_hits=None)
    assert len(hits) > 3
    for hit in hits:
        reused = certify(hit.descriptor)
        fresh_ext = _over_fresh_group(hit.descriptor)
        fresh = certify(fresh_ext)
        assert fresh_ext.group._verdicts
        for outcome in (reused, hit.outcome):
            assert [c.digest() for c in outcome] == [c.digest() for c in fresh]
            assert outcome.diagnostics == fresh.diagnostics


def test_certify_asks_each_row_parity_once(monkeypatch):
    # the Klingen, counting and GVC rules share one pass over the values at
    # tau per group object and tau, and tate_order runs on the odd rows alone
    import gkcert.rules as rules
    from gkcert.harness import search_theoremB

    hit = search_theoremB(pool=[5, 13], target_r=4, prime_bound=3000, cm_piece="q8", max_hits=1)[0]
    ext = _over_fresh_group(hit.descriptor)
    passes = counting(monkeypatch, "_odd_rows")
    asked = []
    tate_order = rules.tate_order
    monkeypatch.setattr(rules, "tate_order", lambda e, chi: asked.append(chi) or tate_order(e, chi))
    for _ in range(2):
        outcome = certify(ext)
        assert outcome.by_rule("klingen-abelian-compositum")
        assert len(outcome.by_rule("gkc-gvc-equivalence")) == 1
    assert len(passes) == 1 and passes[0] is ext.group
    assert [chi.degree for chi in asked] == [2, 2]


def test_values_at_tau_are_read_once_per_group_and_tau(monkeypatch):
    # a multi-hit search, whose hits all share the piece's group, and two
    # certify calls on the d6 demo, whose two ingests share D6: one pass
    # over the values at tau for each group
    from gkcert.harness import search_theoremB

    Q8, D6 = quaternion_group(), dihedral_group(6)
    for G, tau in ((Q8, 1), (D6, 3)):
        monkeypatch.delitem(G._verdicts, ("odd", tau), raising=False)
    passes = counting(monkeypatch, "_odd_rows")
    hits = search_theoremB(pool=[5, 13], target_r=4, prime_bound=3000, cm_piece="q8", max_hits=None)
    assert len(hits) > 3 and all(hit.descriptor.group is Q8 for hit in hits)
    with open(os.path.join(DESCRIPTOR_DIR, "d6_counting_demo.json")) as fh:
        document = json.load(fh)
    for _ in range(2):
        outcome = certify(ingest_extension(document))
        assert outcome.by_rule("dihedral-odd-character-counting")
    assert len(passes) == 2 and passes[0] is Q8 and passes[1] is D6


def test_klingen_rejects_a_non_central_tau_after_a_stored_verdict():
    G = replace(quaternion_group())
    assert klingen_criterion(G, 1)
    assert ("klingen", 1) in G._verdicts
    for _ in range(2):
        with pytest.raises(TauNotCentralInvolution):
            klingen_criterion(G, 2)  # i is not central
    assert ("klingen", 2) not in G._verdicts
    D4 = replace(dihedral_group(4))
    assert klingen_criterion(D4, 2)
    with pytest.raises(TauNotCentralInvolution):
        klingen_criterion(D4, 4)  # a reflection


def test_klingen_refuses_an_irrational_value_at_tau():
    # D4's degree-2 row with the value i at tau = a^2, stored as its table:
    # Klingen's bound reads chi(tau) as an integer and refuses, on every call
    from gkcert.characters import character_table
    from gkcert.errors import InternalCheckError

    G = group_from_table(dihedral_group(4).table)
    rows = character_table(G)
    i = next(k for k, ch in enumerate(rows) if ch.degree == 2)
    values = tuple((0, 1) if k == G.class_of[2] else v for k, v in enumerate(rows[i].values))
    G._verdicts[("table",)] = (*rows[:i], replace(rows[i], values=values), *rows[i + 1:])
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="irrational"):
            klingen_criterion(G, 2)
    assert list(G._verdicts) == [("table",)]


def test_equal_groups_never_share_stored_verdicts(monkeypatch):
    import gkcert.rules as rules

    computed = []
    verdict = rules._klingen_verdict

    def counted(G, tau):
        computed.append(G)
        return verdict(G, tau)

    monkeypatch.setattr(rules, "_klingen_verdict", counted)
    G1, G2 = replace(dihedral_group(4)), replace(dihedral_group(4))
    assert G1 == G2 and G1 is not G2
    assert klingen_criterion(G1, 2) and klingen_criterion(G1, 2)
    assert len(computed) == 1 and not G2._verdicts
    assert klingen_criterion(G2, 2)
    assert len(computed) == 2 and computed[1] is G2
    assert G1._verdicts is not G2._verdicts

    ext = random_descriptor(random.Random(7))
    twins = [_over_fresh_group(ext) for _ in range(2)]
    outcomes = [certify(twin) for twin in twins]
    assert [c.digest() for c in outcomes[0]] == [c.digest() for c in outcomes[1]]
    keys = [set(twin.group._verdicts) for twin in twins]
    assert keys[0] == keys[1] and {key[0] for key in keys[0]} == {"table", "odd", "undecomposed"}
    for key in keys[0]:
        stored = [twin.group._verdicts[key] for twin in twins]
        if key == ("table",):  # each group holds its own rows
            assert all(a is not b for a, b in zip(*stored))
            assert all(ch.group is twin.group for twin, rows in zip(twins, stored) for ch in rows)


_CITED = re.compile(r"\[([0-9a-f]{16})\]")


def test_a_certificate_citing_a_conditional_certificate_is_conditional():
    """Every certificate of a q8 search, a d4 search and the shipped
    descriptors (the d6 demo with the shipped tower): a Leopoldt or GKC-(K)
    hypothesis not assumed by the caller names the rule and digest of a
    certificate of the same run, and citing a conditional one makes the
    hypothesis asserted and the certificate conditional."""
    from gkcert.harness import search_theoremB
    from gkcert.towers import tower_from_document

    outcomes = [
        hit.outcome
        for piece in ("q8", "d4")
        for hit in search_theoremB(pool=[5, 13], target_r=4, prime_bound=3000, cm_piece=piece)
    ]
    with open(os.path.join(DESCRIPTOR_DIR, "tower_demo.json")) as fh:
        tower = tower_from_document(json.load(fh))
    for name in ("gaussian_p13.json", "d4_split_demo.json", "d6_counting_demo.json"):
        with open(os.path.join(DESCRIPTOR_DIR, name)) as fh:
            ext = ingest_extension(json.load(fh))
        outcomes.append(certify(ext, tower=tower if tower.p == ext.p else None))

    citations = {True: 0, False: 0}  # by whether the cited certificate is conditional
    for outcome in outcomes:
        by_digest = {c.digest(): c for c in outcome}
        for cert in outcome:
            for hyp in cert.hypotheses:
                cited = _CITED.findall(hyp.detail)
                if hyp.statement in ("Leopoldt's conjecture holds for K", "GKC-(K) holds"):
                    assert cited or hyp.detail == "caller assumption", hyp
                for digest in cited:
                    source = by_digest[digest]
                    assert source.rule in hyp.detail
                    citations[source.conditional] += 1
                    if source.conditional:
                        assert hyp.status is Status.ASSERTED and cert.conditional, cert
    assert citations[True] > 10 and citations[False] >= 2


def _pinned_descriptors():
    """Ingested descriptors over the three table routes, by label: C12 with
    tau = 6 (the dual group, whose odd rows take irrational values), the
    shipped D6 demo (D3 x C2, the tensor route), and D4 and SL(2, 3) as raw
    tables (Dixon).  In C12 and SL(2, 3) the G_w give odd rows of one degree
    different r_S, so moving one past another changes the digests.  Then
    one raw table of order 128 per route: (Z/2)^7 (the dual group),
    Q8 x (Z/2)^4 (tensor, down to Q8) and D4 x D4 x C2 (tensor, down to
    Dixon on D4 x D4), each with a second G_w that leaves out tau."""
    with open(os.path.join(DESCRIPTOR_DIR, "d6_counting_demo.json")) as fh:
        d6 = json.load(fh)

    def doc(label, group, tau, *subgroups):
        return {
            "label": label,
            "base_poly": [-5, 0],
            "p": 11,
            "group": group,
            "tau": tau,
            "primes": [
                {"e_base": 1, "f_base": 1, "decomposition_subgroup": sorted(h)} for h in subgroups
            ],
        }

    sl23 = sl23_group()
    tau = next(g for g in range(1, sl23.order) if sl23.is_central_involution(g))
    order3 = next(h for h in sl23.all_subgroups() if len(h) == 3)
    e7 = abelian_group([2] * 7)
    q8xe4 = direct_product(quaternion_group(), abelian_group([2] * 4))
    d4xd4xc2 = direct_product(direct_product(dihedral_group(4), dihedral_group(4)), abelian_group([2]))
    return {
        "c12": doc("c12", {"kind": "abelian", "data": [12]}, 6, {0}, {0, 4, 8}),
        "d6": d6,
        "d4-table": doc("d4-table", {"kind": "table", "data": dihedral_group(4).table}, 2, {0}, {0, 4}),
        "sl23-table": doc("sl23-table", {"kind": "table", "data": sl23.table}, tau, {0}, order3),
        "e7-table": doc("e7-table", {"kind": "table", "data": e7.table}, 1, {0}, {0, 2, 4, 6}),
        "q8xe4-table": doc("q8xe4-table", {"kind": "table", "data": q8xe4.table}, 16, {0}, {0, 1}),
        "d4xd4xc2-table": doc(
            "d4xd4xc2-table", {"kind": "table", "data": d4xd4xc2.table}, 32, {0}, {0, 2, 4, 6}
        ),
    }


def test_gvc_certificate_digests_pinned():
    # the digest of a GVC certificate names its row by index: these hold the
    # row order of every table route fixed
    got = {}
    for label, doc in _pinned_descriptors().items():
        out = certify(ingest_extension(doc), assumptions=(ASSUME_GKC_MINUS, ASSUME_TOWER_DISJOINT))
        got[label] = [(c.payload_dict()["chi_index"], c.payload_dict()["r_S"], c.digest())
                      for c in out.by_rule("gkc-gvc-equivalence")]
    assert got == {
        "c12": [
            (2, 1, "aef7d39045fdfde4"),
            (3, 1, "518e2fec15db01f6"),
            (5, 2, "44d86a2b3508bb32"),
            (6, 2, "9ce67ee430e9d234"),
            (8, 1, "0d416fecbd5499bf"),
            (9, 1, "75f4b7a439784b7c"),
        ],
        "d6": [(0, 1, "0e302fab3ab542b6"), (1, 1, "5791693f2f350655"), (5, 2, "f3e4ab181a9cf910")],
        "d4-table": [(4, 3, "26518587cfd25dac")],
        "sl23-table": [
            (3, 3, "d284791d0d41990b"),
            (4, 3, "b9aff3416e398253"),
            (5, 2, "6d980e5b12279bbe"),
        ],
        "e7-table": [
            (0, 1, "90cc1add7e7ebaf1"), (1, 1, "e9592f2e24d4309f"), (2, 1, "a578673cd0b46fca"),
            (3, 1, "fdfd6b608c254d36"), (4, 1, "dfec2816a0df12c2"), (5, 1, "9c1d54fecee51461"),
            (6, 1, "247b5ab6b2d20810"), (7, 1, "51a131c7fd95d202"), (8, 1, "a7f4cd76fafa80d4"),
            (9, 1, "2a9cd98828ce493f"), (10, 1, "5ed914deeda38105"), (11, 1, "0903cadaa05c2653"),
            (12, 1, "cf7affe399e2c947"), (13, 1, "7401608f83dec08f"), (14, 1, "0417544ae5ed31de"),
            (15, 1, "8fc638e84b8e4fe8"), (16, 1, "7a3e32608b48bda2"), (17, 1, "cd6e656d584bd5a8"),
            (18, 1, "57ddee0636d027a8"), (19, 1, "2160327ad9bf955b"), (20, 1, "7b0621cba0f37fed"),
            (21, 1, "b637623f31a0055c"), (22, 1, "e6e88cea0e6ee24e"), (23, 1, "215e49c7a5a19e77"),
            (24, 1, "b2bffb32260d2e4a"), (25, 1, "90fe06b5f3ad6daf"), (26, 1, "3cbe68ae292c820c"),
            (27, 1, "56482804c1278ebb"), (28, 1, "cdd284637add36c0"), (29, 1, "23d06ac17d3ba04b"),
            (30, 1, "a6d488edf79edb38"), (31, 1, "5498413a9e5dc4ea"), (32, 1, "76756717e38af921"),
            (33, 1, "96a44a9ee356c20a"), (34, 1, "edefefbe3005068e"), (35, 1, "04e3595450d53821"),
            (36, 1, "54850288161045cb"), (37, 1, "d366f0a52f23568a"), (38, 1, "49fba2e035d577aa"),
            (39, 1, "5c81d3bf79e76bb9"), (40, 1, "f0a2ea9001ee64b6"), (41, 1, "c338757bab387d31"),
            (42, 1, "72e6f5d66ba76582"), (43, 1, "0f11469dfd6d237e"), (44, 1, "709b82538a8b8d87"),
            (45, 1, "51c888778a18e2b2"), (46, 1, "2040f394deee2af3"), (47, 1, "cf9cff1a89bce912"),
            (48, 2, "1f55e27651567fe0"), (49, 2, "3cde37b73bb9404a"), (50, 2, "3b7652c49d93d713"),
            (51, 2, "6c5a5bb88d6dd32f"), (52, 2, "bc295824ba21b38a"), (53, 2, "10b457a23e40b18b"),
            (54, 2, "67bb612aa2c13291"), (55, 2, "0f443bf47266d32c"), (56, 2, "83c8f309acccf7b1"),
            (57, 2, "0273856beb93728f"), (58, 2, "67dd43da89c209cb"), (59, 2, "bdc4292c079c9aad"),
            (60, 2, "565a51e096538c36"), (61, 2, "718b18fd49d1ef24"), (62, 2, "8fb561effd70244c"),
            (63, 2, "ffd21d8b32724b2e"),
        ],
        "q8xe4-table": [
            (64, 2, "bc51b5099b066aaf"), (65, 2, "eb3c799aa32d3113"), (66, 2, "8a7063b97674fadf"),
            (67, 2, "b703af5bc8728b6e"), (68, 2, "e95c83237f185138"), (69, 2, "92cfadab8391c3f6"),
            (70, 2, "906c32b187be42c3"), (71, 2, "b3dd6a4aae6439bf"), (72, 4, "a37fc84924d381e3"),
            (73, 4, "d2b2669b588eac9b"), (74, 4, "e936a4e1e2df0f39"), (75, 4, "8eb12556d6d556ef"),
            (76, 4, "8fbb37541503f8bf"), (77, 4, "98da95a8b2ada23c"), (78, 4, "4a9f395d5248bc13"),
            (79, 4, "d6adc147361c5a41"),
        ],
        "d4xd4xc2-table": [
            (32, 2, "33d5b1c4981736ed"), (33, 2, "e289eff0477951dd"), (38, 4, "a5d305e96bb0228d"),
            (39, 4, "f777e942c4cf1556"), (40, 2, "35ff8d405b367029"), (41, 2, "524720c140964cf6"),
            (46, 4, "694be7222fdc331b"), (47, 4, "f77e3b227cc47d43"), (48, 4, "65bf4956ed9697a5"),
            (49, 4, "c9b33480d5261ae9"),
        ],
    }
