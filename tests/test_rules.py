import glob
import json
import os
import random
import re
from dataclasses import replace

import pytest

from gkcert.certificates import Conclusion, Status
from gkcert.errors import HypothesisFailed, PIsTwo, TauNotCentralInvolution
from gkcert.extensions import (
    ExtensionDescriptor,
    PrimeRecord,
    Q8_PIECE,
    QuadraticComponent,
    build_compositum_over_Q,
    ingest_extension,
)
from gkcert.groups import abelian_group, dihedral_group, quaternion_group
from gkcert.intpoly import IntPoly
from gkcert.numberfield import make_field
from gkcert.numutil import kronecker
from gkcert.rules import (
    ASSUME_GKC_MINUS,
    ASSUME_TOWER_DISJOINT,
    _undecomposed_subfield,
    certify,
    klingen_criterion,
    rank_bound,
)
from gkcert.towers import TOWER_SCHEMA_ID, TowerData, TowerLayer
from helpers import groups_with_central_involution, random_descriptor
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
    cert = rank_bound(ext)
    pd = cert.payload_dict()
    assert (pd["r"], pd["s"], pd["bound"]) == (1, 1, 0) and pd["gkc_minus_implied"]
    # hypothesis (a) fails at an inert prime
    with pytest.raises(HypothesisFailed) as err:
        rank_bound(build_compositum_over_Q([QuadraticComponent(-4)], 7))
    assert err.value.hypothesis == "a"
    # hypothesis (b) fails for Q8
    p0 = q8_split_primes(600)[0]
    with pytest.raises(HypothesisFailed) as err:
        rank_bound(build_compositum_over_Q([Q8_PIECE], p0))
    assert err.value.hypothesis == "b"


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
    import gkcert.characters as characters
    from gkcert.extensions import ingest_extension

    runs = []
    dixon = characters._dixon_table

    def counted(G):
        runs.append(G)
        return dixon(G)

    monkeypatch.setattr(characters, "_dixon_table", counted)
    ext = ingest_extension(
        {
            "base_poly": [0],
            "p": 5,
            "group": {"kind": "table", "data": [list(r) for r in dihedral_group(4).table]},
            "tau": 2,
            "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0, 2]}],
        }
    )
    out = certify(ext)
    # Klingen's bound and the GVC propagation both read the table
    assert out.by_rule("klingen-character-bound")
    assert out.by_rule("gkc-gvc-equivalence")
    assert runs == [ext.group]


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


def test_undecomposed_subfield_matches_full_lattice_filter():
    exts = []
    for path in sorted(glob.glob(os.path.join(DESCRIPTOR_DIR, "*.json"))):
        with open(path) as fh:
            document = json.load(fh)
        if document.get("schema") != TOWER_SCHEMA_ID:
            exts.append(ingest_extension(document))
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
    assert keys[0] == keys[1] and {key[0] for key in keys[0]} == {"odd", "fixed_dim", "undecomposed"}
    for key in keys[0]:
        stored = [twin.group._verdicts[key] for twin in twins]
        if isinstance(stored[0], tuple):  # odd rows: each group holds its own rows
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
