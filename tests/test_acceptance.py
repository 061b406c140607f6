"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them inline).  Every tolerance is
exact -- all arithmetic in the package is exact, so the only budgets are the
stated runtimes."""

import json
import random
import time
from fractions import Fraction
from types import SimpleNamespace

from gkcert import modpoly, numberfield
from gkcert.characters import character_table, odd_rows, verify_character_table
from gkcert.cli import main as cli_main
from gkcert.errors import IrreducibilityUndecided, NonPPower, Reducible, UnsafePrime
from gkcert.extensions import BUILTIN_PIECES, ingest_extension, to_document
from gkcert.groups import abelian_group, dihedral_group, group_from_table, quaternion_group
from gkcert.harness import EXAMPLE_ROWS, check_example_table, scan_split_primes, search_theoremB
from gkcert.intpoly import IntPoly, from_vector
from gkcert.numberfield import make_field, splitting_type
from gkcert.numutil import kronecker, primes_upto
from gkcert.rules import ASSUME_GKC_MINUS, ASSUME_TOWER_DISJOINT, certify, klingen_criterion
from gkcert.towers import TowerData, TowerLayer, chevalley_eval, p_power_exponent
from gkcert.vanishing import tate_order
from helpers import (
    cyclotomic_field,
    known_irreducible_field,
    direct_product,
    groups_with_central_involution,
    inner_product,
    is_squarefree,
    multiplicative_order,
    permutation_character,
    random_descriptor,
    real_cyclotomic_poly,
    supported_groups,
)


def _report(criterion, detail, started):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {time.monotonic() - started:.2f}s)")


def test_criterion_1_character_theory_suite():
    started = time.monotonic()
    groups = supported_groups(24)
    for G in groups:
        table = character_table(G)
        verify_character_table(table)  # exact row orthonormality, hence column orthogonality
        assert sum(ch.degree**2 for ch in table) == G.order
    for n in (2, 6, 10, 14, 18, 22, 26, 30):
        dn = dihedral_group(n)
        tau = n // 2
        odd = [character_table(dn)[i] for i in odd_rows(dn, tau)]
        deg1 = sum(1 for ch in odd if ch.degree == 1)
        deg2 = sum(1 for ch in odd if ch.degree == 2)
        assert deg1 == 2 and deg2 == (n - 2) // 4
        assert sum(ch.degree for ch in odd) == n // 2 + 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.5, f"character suite took {elapsed:.2f}s (budget 1.5s)"
    _report(1, f"{len(groups)} groups verified exactly + dihedral counting", started)


def test_criterion_1b_raw_tables_by_structure():
    # the five raw tables of the certify bench: (Z/2)^6 by its dual group,
    # Q8 and D4 times (Z/2)^3 and C6 by tensor products down to Q8 or D4;
    # each table passes the exact orthogonality check inside character_table
    Q8, D4 = quaternion_group(), dihedral_group(4)
    groups = [group_from_table(abelian_group([2] * 6).table)]
    groups += [direct_product(A, B) for A in (Q8, D4) for B in (abelian_group([2, 2, 2]), abelian_group([6]))]
    started = time.monotonic()
    for G in groups:
        assert len(character_table(G)) == len(G.classes)
    elapsed = time.monotonic() - started
    assert elapsed < 0.1, f"raw tables took {elapsed:.3f}s (budget 0.1s)"
    _report("1b", "five order-48/64 raw tables", started)


def _order_128_descriptor(group, tau):
    """Base Q, p = 3, one totally split prime."""
    return {
        "base_poly": [0],
        "p": 3,
        "group": group,
        "tau": tau,
        "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]}],
    }


def test_criterion_1c_order_128_on_every_table_route():
    # MAX_INGESTED_ORDER is the one bound on group order: an ingested group
    # of order 128 (or 124) on each table route gets its character table,
    # and with it the rules that read the table
    D4 = dihedral_group(4)
    raw = {
        "e7": abelian_group([2] * 7),
        "q8xe4": direct_product(quaternion_group(), abelian_group([2] * 4)),
        "d4xd4xc2": direct_product(direct_product(D4, D4), abelian_group([2])),
    }
    docs = {
        # the dual group
        "c128": _order_128_descriptor({"kind": "abelian", "data": [128]}, 64),
        "e7": _order_128_descriptor({"kind": "table", "data": raw["e7"].table}, 1),
        # a tensor product with a central cyclic factor, down to Q8 or D31
        "q8xe4": _order_128_descriptor({"kind": "table", "data": raw["q8xe4"].table}, 16),
        "d62": _order_128_descriptor({"kind": "dihedral", "data": 62}, 31),
        # Burnside-Dixon, on D64 and on D4 x D4 inside D4 x D4 x C2
        "d64": _order_128_descriptor({"kind": "dihedral", "data": 64}, 32),
        "d4xd4xc2": _order_128_descriptor({"kind": "table", "data": raw["d4xd4xc2"].table}, 32),
    }
    started = time.monotonic()
    outcomes = {label: certify(ingest_extension(doc)) for label, doc in docs.items()}
    elapsed = time.monotonic() - started
    rules = {label: set(out.rules_cited()) for label, out in outcomes.items()}
    for label in ("c128", "e7", "q8xe4"):
        assert {"klingen-character-bound", "leopoldt-total-split", "gkc-gvc-equivalence"} <= rules[label]
    assert "dihedral-odd-character-counting" in rules["d62"]
    # Klingen's bound is decided from the table, never skipped for size
    for label in ("d62", "d64", "d4xd4xc2"):
        failed = "klingen-character-bound: some irreducible chi has chi(1)+chi(tau) > 2"
        assert failed in outcomes[label].diagnostics
    for out in outcomes.values():
        assert not any("bound" in d.partition(": ")[2] for d in out.diagnostics), out.diagnostics
    assert len(outcomes["c128"].by_rule("gkc-gvc-equivalence")) == 64
    assert elapsed < 2.5, f"order-128 descriptors took {elapsed:.2f}s (budget 2.5s)"
    _report("1c", "six descriptors of order 124/128, one or two per table route", started)


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
            ok = st.entries == ((1, f),) * (F.degree // f)
            mismatches += 0 if ok else 1
            assert st.degree_sum == F.degree
    assert mismatches == 0
    elapsed = time.monotonic() - started
    assert elapsed < 4.0, f"splitting suite took {elapsed:.2f}s (budget 4s)"
    _report(2, "quadratic |d| <= 50 and cyclotomic m <= 40 vs oracles, 0 mismatches", started)


def test_criterion_2b_scan_at_scale(monkeypatch):
    # scan_split_primes to 20 000 over Phi_17, Q(zeta_17)^+ and a random
    # degree-14 field, against congruence oracles and splitting_type; the
    # Frobenius powers taken are exactly the pairs Stickelberger's sign
    # lets through: odd p not dividing disc f with (disc f | p) = +1
    bound = 20_000
    rng = random.Random(20261019)
    while True:
        f = from_vector([rng.randint(-9, 9) or 1] + [rng.randint(-5, 5) for _ in range(13)])
        try:
            random14 = make_field(f)
            break
        except (Reducible, IrreducibilityUndecided):
            pass
    fields = {
        "phi17": cyclotomic_field(17),
        "zeta17plus": known_irreducible_field(real_cyclotomic_poly(17)),
        "random14": random14,
    }
    powers = []

    def counting_frobenius(*args):
        powers.append(args)
        return modpoly.frobenius_fixes_x(*args)

    # the scan's one Frobenius power per pair; factor_mod_p's go unpatched
    counting = SimpleNamespace(**{**vars(modpoly), "frobenius_fixes_x": counting_frobenius})
    monkeypatch.setattr(numberfield, "modpoly", counting)
    started = time.monotonic()
    skipped = []
    found = {name: scan_split_primes([F], bound, skipped) for name, F in fields.items()}
    elapsed = time.monotonic() - started
    monkeypatch.undo()
    odd = primes_upto(bound)[1:]
    assert found["phi17"] == [p for p in odd if p % 17 == 1]
    assert found["zeta17plus"] == [p for p in odd if p % 17 in (1, 16)]
    want, unsafe = [], []
    for p in odd:
        try:
            if splitting_type(random14, p).is_totally_split:
                want.append(p)
        except UnsafePrime:
            unsafe.append(p)
    assert found["random14"] == want and len(skipped) == len(unsafe)
    assert len(powers) == sum(
        F.poly_disc % p != 0 and kronecker(F.poly_disc, p) == 1 for F in fields.values() for p in odd
    )
    assert elapsed < 0.6, f"scans took {elapsed:.2f}s (budget 0.6s)"
    _report(
        "2b",
        f"{len(odd)} odd primes x 3 fields, {len(powers)} Frobenius powers, "
        f"{sum(map(len, found.values()))} split pairs, scans {elapsed:.3f}s",
        started,
    )


def _tate_brute_force(ext, chi):
    """r_S = sum_v <Ind_{G_w}^G 1, chi> by Frobenius reciprocity."""
    total = 0
    for rec in ext.primes:
        value = inner_product(permutation_character(ext.group, rec.decomposition), chi)
        total += rec.count * int(value)
    return total


def test_criterion_3_tate_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        ext = random_descriptor(rng)
        odd = [character_table(ext.group)[i] for i in odd_rows(ext.group, ext.tau)]
        if not odd:
            continue
        chi = odd[rng.randrange(len(odd))]
        assert tate_order(ext, chi) == _tate_brute_force(ext, chi)
        checked += 1
    _report(3, "100 randomized descriptors, Frobenius-reciprocity brute force", started)


def test_criterion_4_ledger_identity():
    # under GKC-(K), ord_T f_{A'} = 0, so ord_T f_A / chi(1) = r_S: each GVC
    # certificate's predicted order is the brute-force r_S of criterion 3
    started = time.monotonic()
    rng = random.Random(515151)
    checked = 0
    while checked < 100:
        ext = random_descriptor(rng)
        gvc = certify(ext, assumptions=(ASSUME_GKC_MINUS, ASSUME_TOWER_DISJOINT)).by_rule(
            "gkc-gvc-equivalence"
        )
        assert gvc
        table = character_table(ext.group)
        for cert in gvc:
            payload = cert.payload_dict()
            want = _tate_brute_force(ext, table[payload["chi_index"]])
            assert payload["r_S"] == payload["predicted_lp_order"] == want
        checked += 1
    _report(4, "100 randomized descriptors, predicted order = brute-force r_S under GKC", started)


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


def test_criterion_6e_theorem_b_large_pool_discriminants(tmp_path):
    # pool discriminants near MAX_DISCRIMINANT = 10^12: the sieve's rows stop
    # at the prime bound and each component factors its discriminant once,
    # so a search costs its bound, not |d|; the hits are the primes a plain
    # Kronecker filter and the CM Frobenius pick
    piece = BUILTIN_PIECES["q8"]
    pool, bound = [5, 999999999989], 20_000
    want = [
        p
        for p in primes_upto(bound)
        if all(kronecker(d, p) == 1 for d in (*pool, *piece.base_discriminants))
        and piece.frobenius(p) == piece.group().identity
    ]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search_b": {"pool": [5, 10000121], "target_r": 4, "prime_bound": 2000}}))
    started = time.monotonic()
    assert cli_main(["search-b", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    hits = search_theoremB(pool=pool, target_r=4, prime_bound=bound, cm_piece="q8", max_hits=None)
    elapsed = time.monotonic() - started
    (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert row["prime"] == 241 and row["achieved_r_S"] == 8
    assert [hit.p for hit in hits] == want and len(want) == 65
    assert all(hit.achieved_r == 8 for hit in hits)
    assert elapsed < 1.0, f"searches took {elapsed:.2f}s (budget 1s)"
    _report("6e", f"{len(hits)} hits with a pool discriminant near 10^12", started)


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
