"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them inline).  Every tolerance is
exact -- all arithmetic in the package is exact, so the only budgets are the
stated runtimes."""

import random
import time
from fractions import Fraction

from gkcert.characters import (
    character_table,
    induced_character,
    inner_product,
    odd_characters,
    verify_character_table,
)
from gkcert.errors import NonPPower
from gkcert.extensions import to_document
from gkcert.groups import dihedral_group, subgroup_embedding
from gkcert.harness import EXAMPLE_ROWS, check_example_table, search_theoremB
from gkcert.intpoly import IntPoly
from gkcert.numberfield import cyclotomic_field, make_field, splitting_type
from gkcert.numutil import euler_phi, is_squarefree, kronecker, multiplicative_order, primes_upto
from gkcert.rules import klingen_criterion
from gkcert.towers import TowerData, TowerLayer, chevalley_eval, p_power_exponent
from gkcert.vanishing import t_order_ledger, tate_order
from helpers import groups_with_central_involution, random_descriptor, supported_groups


def _report(criterion, detail, started):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {time.monotonic() - started:.2f}s)")


def test_criterion_1_character_theory_suite():
    started = time.monotonic()
    groups = supported_groups(24)
    for G in groups:
        table = character_table(G)
        verify_character_table(table)  # exact row + column orthogonality
        assert sum(ch.degree**2 for ch in table) == G.order
    for n in (2, 6, 10, 14, 18, 22, 26, 30):
        dn = dihedral_group(n)
        tau = n // 2
        odd = odd_characters(character_table(dn), tau)
        deg1 = sum(1 for ch in odd if ch.degree == 1)
        deg2 = sum(1 for ch in odd if ch.degree == 2)
        assert deg1 == 2 and deg2 == (n - 2) // 4
        assert sum(ch.degree for ch in odd) == n // 2 + 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.5, f"character suite took {elapsed:.2f}s (budget 1.5s)"
    _report(1, f"{len(groups)} groups verified exactly + dihedral counting", started)


def test_criterion_2_splitting_reciprocity_suite():
    started = time.monotonic()
    primes = [p for p in primes_upto(200) if p > 2]
    mismatches = 0
    for d in range(-50, 51):
        if d in (0, 1) or not is_squarefree(d):
            continue
        F = make_field(IntPoly([-d, 0, 1]))
        disc = d if d % 4 == 1 else 4 * d
        for p in primes:
            if d % p == 0:
                continue
            st = splitting_type(F, p)
            symbol = kronecker(disc, p)
            if symbol == 1:
                ok = st.entries == ((1, 1), (1, 1))
            elif symbol == -1:
                ok = st.entries == ((1, 2),)
            else:
                ok = st.entries == ((2, 1),)
            mismatches += 0 if ok else 1
            assert st.degree_sum == 2
    for m in range(3, 41):
        F = cyclotomic_field(m)
        for p in primes:
            if m % p == 0:
                continue
            st = splitting_type(F, p)
            f = multiplicative_order(p, m)
            ok = st.entries == ((1, f),) * (euler_phi(m) // f)
            mismatches += 0 if ok else 1
            assert st.degree_sum == F.degree
    assert mismatches == 0
    elapsed = time.monotonic() - started
    assert elapsed < 4.0, f"splitting suite took {elapsed:.2f}s (budget 4s)"
    _report(2, "quadratic |d| <= 50 and cyclotomic m <= 40 vs oracles, 0 mismatches", started)


def test_criterion_3_tate_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(424242)
    induced_cache = {}
    checked = 0
    while checked < 100:
        ext = random_descriptor(rng)
        odd = odd_characters(character_table(ext.group), ext.tau)
        if not odd:
            continue
        chi = odd[rng.randrange(len(odd))]
        # brute force: r_S = sum_v <Ind_{G_w}^G 1, chi>
        total = 0
        for rec in ext.primes:
            key = (id(ext.group), tuple(sorted(rec.decomposition)))
            if key not in induced_cache:
                H, emb = subgroup_embedding(ext.group, rec.decomposition)
                triv = [c for c in character_table(H) if all(v == 1 for v in c.values)][0]
                induced_cache[key] = induced_character(ext.group, emb, triv)
            value = inner_product(induced_cache[key], chi)
            total += rec.count * int(value.as_fraction())
        assert tate_order(ext, chi).r_s == total
        checked += 1
    _report(3, "100 randomized descriptors, Frobenius-reciprocity brute force", started)


def test_criterion_4_ledger_identity():
    started = time.monotonic()
    rng = random.Random(515151)
    checked = 0
    while checked < 100:
        ext = random_descriptor(rng)
        odd = odd_characters(character_table(ext.group), ext.tau)
        if not odd:
            continue
        chi = odd[rng.randrange(len(odd))]
        supplied = chi.degree * rng.randrange(0, 5)
        ledger = t_order_ledger(ext, chi, supplied)
        assert ledger.ord_a - ledger.ord_a_prime == chi.degree * ledger.r_s
        assert ledger.predicted_lp_order >= ledger.r_s  # Burns inequality
        checked += 1
    _report(4, "100 randomized ledgers, additivity + order inequality exact", started)


def test_criterion_5_example_table_reproduction():
    started = time.monotonic()
    verdicts = check_example_table(EXAMPLE_ROWS)
    identities = []
    for verdict in verdicts:
        facts = {name: status for name, status, _ in verdict.facts}
        assert facts["polynomial-monic-irreducible"] == "verified"
        assert facts["base-totally-real"] == "verified"
        assert facts["degree-identity"] == "verified"
        # ray-class facts are Unverifiable, never failed
        assert facts["ray-class-construction"] == "unverifiable"
        assert facts["split-prime-hypotheses"] == "unverifiable"
        assert "failed" not in facts.values()
        row = verdict.row
        identities.append(
            f"{row['degree_k']} = 2*{row['r_bound']}*{len(row['poly'])}"
        )
    assert identities == [
        "18 = 2*3*3",
        "30 = 2*5*3",
        "60 = 2*10*3",
        "16 = 2*2*4",
        "24 = 2*3*4",
    ]
    _report(5, "all 5 published rows verified structurally", started)


def test_criterion_6_theorem_b_pipeline():
    started = time.monotonic()
    hits = search_theoremB(
        pool=[5, 13, 17, 21, 29],
        target_r=2,
        prime_bound=10_000,
        cm_piece="q8",
        max_hits=1,
    )
    assert hits
    hit = hits[0]
    assert hit.achieved_r >= 4
    rules = hit.outcome.rules_cited()
    for rule in ("klingen-abelian-compositum", "leopoldt-total-split", "gkc-gvc-equivalence"):
        assert rule in rules, rules
    klingen = hit.outcome.by_rule("klingen-abelian-compositum")[0]
    assert any("chi(1) + chi(tau) <= 2" in h.statement for h in klingen.hypotheses)
    gvc = hit.outcome.by_rule("gkc-gvc-equivalence")[0]
    disjoint = [h for h in gvc.hypotheses if "linearly disjoint" in h.statement][0]
    assert disjoint.status.value == "verified"
    assert str(hit.p) in disjoint.detail  # p does not divide |G| = 8 * 2^k
    elapsed = time.monotonic() - started
    assert elapsed < 0.5, f"search took {elapsed:.2f}s (budget 0.5s)"
    _report(6, f"p = {hit.p}, r_S = {hit.achieved_r}, chain {rules}", started)


def test_criterion_6b_theorem_b_at_scale():
    # r_S in the hundreds: R of degree 256 from eight pool discriminants,
    # described by them and built once for the search
    started = time.monotonic()
    hits = search_theoremB(
        pool=[5, 13, 17, 29, 37, 41, 53, 61],
        target_r=256,
        prime_bound=100_000,
        cm_piece="q8",
        max_hits=1,
    )
    hit = hits[0]
    assert hit.p == 77711 and hit.achieved_r == 512
    assert hit.descriptor.base.degree == 256
    elapsed = time.monotonic() - started
    assert elapsed < 0.5, f"search took {elapsed:.2f}s (budget 0.5s)"
    _report("6b", f"p = {hit.p}, r_S = {hit.achieved_r}", started)


def test_criterion_6c_theorem_b_past_4096():
    # r_S in the thousands: R of degree 2048 from the first eleven primes
    # = 1 mod 4; a degree-2048 polynomial for R would not fit the budget
    started = time.monotonic()
    hits = search_theoremB(
        pool=[5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97],
        target_r=2048,
        prime_bound=1_000_000,
        cm_piece="q8",
        max_hits=1,
    )
    hit = hits[0]
    assert hit.p == 940319 and hit.achieved_r == 4096
    assert hit.descriptor.base.degree == 2048
    elapsed = time.monotonic() - started
    # the 2048 primes of R above p are one record, r_S = 2 * 2048
    (entry,) = to_document(hit.descriptor)["primes"]
    assert entry["count"] == 2048 and entry["label"] == "v1-v2048"
    assert elapsed < 2.0, f"search took {elapsed:.2f}s (budget 2s)"
    _report("6c", f"p = {hit.p}, r_S = {hit.achieved_r}", started)


def test_criterion_6d_theorem_b_many_hits():
    # hundreds of certified hits over one base: the group-level verdicts are
    # computed once per group, so each hit costs its descriptor and certificates
    started = time.monotonic()
    hits = {
        piece: search_theoremB(
            pool=[5, 29, 113, 181],
            target_r=16,
            prime_bound=433_319,
            cm_piece=piece,
            max_hits=None,
        )
        for piece in ("q8", "d4")
    }
    elapsed = time.monotonic() - started
    assert len(hits["q8"]) == 250 and len(hits["q8"]) + len(hits["d4"]) == 505
    assert all(hit.achieved_r == 32 for found in hits.values() for hit in found)
    assert elapsed < 1.0, f"searches took {elapsed:.2f}s (budget 1s)"
    _report("6d", f"{len(hits['q8'])} q8 and {len(hits['d4'])} d4 hits, r_S = 32", started)


def test_criterion_7_klingen_equivalence():
    started = time.monotonic()
    pairs = groups_with_central_involution(24)
    for G, tau in pairs:
        expected = G.quotient_is_abelian(G.subgroup_generated_by([tau]))
        assert klingen_criterion(G, tau) == expected
    _report(7, f"{len(pairs)} (group, tau) pairs, character bound == quotient abelianness", started)


def test_criterion_8_chevalley_evaluator():
    started = time.monotonic()
    rng = random.Random(626262)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        layers = [
            TowerLayer(
                n=n,
                order_a_prime=p ** rng.randrange(0, 5),
                order_a_prime_plus=p ** rng.randrange(0, 3),
                ram_ratio=p ** rng.randrange(0, 6),
                norm_index_plus=p ** rng.randrange(0, 3),
                norm_index_full=p ** rng.randrange(0, 3),
            )
            for n in range(rng.randrange(1, 5))
        ]
        layers[0] = TowerLayer(0, layers[0].order_a_prime, layers[0].order_a_prime_plus, 1, 1, 1)
        tower = TowerData(label="synthetic", p=p, r=rng.randrange(1, 4), layers=tuple(layers))
        for layer in layers:
            result = chevalley_eval(tower, layer.n)
            base = layers[0]
            oracle = (
                Fraction(base.order_a_prime)
                / base.order_a_prime_plus
                * layer.ram_ratio
                * layer.norm_index_plus
                / layer.norm_index_full
            )
            assert result.rhs == oracle
            if oracle.denominator == 1 and oracle >= 1:
                try:
                    p_power_exponent(int(oracle), p)
                    assert result.consistent and result.predicted_minus_order == int(oracle)
                except NonPPower:
                    assert not result.consistent
            else:
                assert not result.consistent
    # boundary tower: all indices 1, ram_ratio p^(r n) -> exactly p^(r n)
    p, r = 7, 3
    tower = TowerData(
        label="boundary",
        p=p,
        r=r,
        layers=tuple(TowerLayer(n, 1, 1, p ** (r * n), 1, 1) for n in range(5)),
    )
    for n in range(5):
        assert chevalley_eval(tower, n).predicted_minus_order == p ** (r * n)
    _report(8, "100 synthetic towers vs big-rational oracle + boundary tower", started)
