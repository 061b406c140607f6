import random

import pytest

from gkcert.characters import character_table, fixed_dim, odd_rows
from gkcert.cyclotomic import from_exponents
from gkcert.errors import AmbiguousDecomposition, EvenCharacter, RamifiedPrime
from gkcert.extensions import (
    Compositum,
    ExtensionDescriptor,
    PrimeRecord,
    QuadraticComponent,
    build_compositum_over_Q,
    classify_primes,
)
from gkcert.groups import abelian_group, dihedral_group, quaternion_group
from gkcert.rules import ASSUME_GKC_MINUS, certify
from gkcert.vanishing import tate_order
from helpers import (
    contragredient,
    inner_product,
    order64_raw_groups,
    permutation_character,
    random_descriptor,
    totally_real_field,
)
from test_extensions import q8_split_primes
from test_rules import undecomposed_by_full_lattice
from gkcert.extensions import Q8_PIECE
from gkcert.numutil import kronecker, primes_upto


def _odd(ext):
    table = character_table(ext.group)
    return [table[i] for i in odd_rows(ext.group, ext.tau)]


def test_imaginary_quadratic_split_and_inert():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    sign = _odd(ext)[0]
    assert tate_order(ext, sign) == 1
    ext_inert = build_compositum_over_Q([QuadraticComponent(-4)], 7)
    assert tate_order(ext_inert, _odd(ext_inert)[0]) == 0


def test_even_characters_rejected():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    even = [ch for ch in character_table(ext.group) if ch not in _odd(ext)][0]
    with pytest.raises(EvenCharacter):
        tate_order(ext, even)


def test_q8_totally_split_order():
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    ext = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    odd = _odd(ext)
    assert len(odd) == 1 and odd[0].degree == 2
    assert tate_order(ext, odd[0]) == 2 * classify_primes(ext).t == 4
    # one record for the two primes of R, each fixing a 2-dimensional space
    assert [(rec.label, rec.count, fixed_dim(odd[0], rec.decomposition)) for rec in ext.primes] == [
        ("v1-v2", 2, 2)
    ]


def test_oracle_equivalence_frobenius_route():
    """Tate order equals the induced-character inner product route."""
    rng = random.Random(101)
    checked = 0
    while checked < 60:
        ext = random_descriptor(rng)
        odd = _odd(ext)
        if not odd:
            continue
        chi = odd[rng.randrange(len(odd))]
        total = 0
        for rec in ext.primes:
            ind = permutation_character(ext.group, rec.decomposition)
            total += rec.count * int(inner_product(ind, chi))
        assert total == tate_order(ext, chi)
        checked += 1


def test_conjugate_character_invariance():
    """r_{S,chi} is constant on Galois-conjugate characters."""
    from dataclasses import replace
    from math import gcd

    rng = random.Random(103)
    checked = 0
    while checked < 40:
        ext = random_descriptor(rng)
        odd = _odd(ext)
        if not odd:
            continue
        chi = odd[rng.randrange(len(odd))]
        base = tate_order(ext, chi)
        assert tate_order(ext, contragredient(chi)) == base
        e = ext.group.exponent()
        for k in range(1, e):
            if gcd(k, e) != 1:
                continue
            values = tuple(from_exponents(e, {i * k: c for i, c in enumerate(v)}) for v in chi.values)
            twisted = replace(chi, values=values)
            assert tate_order(ext, twisted) == base
        checked += 1


def _gvc_payloads(ext):
    """Payloads of the GVC certificates of ext with GKC-(K) assumed."""
    outcome = certify(ext, assumptions=(ASSUME_GKC_MINUS,))
    return [c.payload_dict() for c in outcome.by_rule("gkc-gvc-equivalence")]


def test_ledger():
    # with GKC-(K), ord_T f_{A'} = 0 and ord_T f_A = chi(1) * r_S, so the
    # predicted order of vanishing is r_S
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    [gvc] = _gvc_payloads(ext)
    assert gvc["chi_degree"] == 1 and gvc["r_S"] == gvc["predicted_lp_order"] == 1
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    extq = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    [gvcq] = _gvc_payloads(extq)
    assert gvcq["chi_degree"] == 2 and gvcq["r_S"] == gvcq["predicted_lp_order"] == 4


def test_ledger_identity_property():
    rng = random.Random(107)
    checked = 0
    while checked < 100:
        ext = random_descriptor(rng)
        table = character_table(ext.group)
        for gvc in _gvc_payloads(ext):
            chi = table[gvc["chi_index"]]
            assert gvc["chi_degree"] == chi.degree
            # per-record contributions, each for count primes, assemble
            # ord_T f_A = chi(1) * predicted order
            total = sum(rec.count * chi.degree * fixed_dim(chi, rec.decomposition) for rec in ext.primes)
            assert total == chi.degree * gvc["predicted_lp_order"] == chi.degree * gvc["r_S"]
            checked += 1


def _repeating_descriptors():
    """Descriptors whose records repeat one G_w or mix two or three distinct
    G_w: six records over a sextic base for D4, Q8, C2 x C4 and the raw
    Q8 x (Z/2)^3, plus search hits whose one record stands for 16 or 8 primes."""
    rng = random.Random(211)
    exts = []
    groups = (dihedral_group(4), quaternion_group(), abelian_group([2, 4]), order64_raw_groups()[1])
    for G in groups:
        subgroups = sorted(G.all_subgroups(), key=lambda h: (len(h), sorted(h)))
        taus = [t for t in range(G.order) if G.is_central_involution(t)]
        for tau in rng.sample(taus, min(2, len(taus))):
            for distinct in (1, 2, 3):
                for _ in range(4):
                    picks = rng.sample(subgroups, distinct)
                    picks += [rng.choice(picks) for _ in range(6 - distinct)]
                    rng.shuffle(picks)
                    records = tuple(
                        PrimeRecord(f"v{i+1}", 1, 1, H) for i, H in enumerate(picks)
                    )
                    exts.append(
                        ExtensionDescriptor(
                            base=totally_real_field(6), group=G, tau=tau, p=7, primes=records,
                            label=f"{G.spec[0]}-{G.order}-tau{tau}-{distinct}",
                        )
                    )
    compositum = Compositum([Q8_PIECE] + [QuadraticComponent(d) for d in (5, 13, 17, 29)])
    kinds = {}  # (|G_w|, f(v/p)) -> one hit of that kind
    for p in primes_upto(50_000):
        try:
            ext = compositum.at(p)
        except (AmbiguousDecomposition, RamifiedPrime):
            continue
        kinds.setdefault((len(ext.primes[0].decomposition), ext.primes[0].f_base), ext)
        if len(kinds) == 3:
            break
    assert set(kinds) == {(1, 1), (2, 1), (1, 2)}
    return exts + list(kinds.values())


def test_distinct_decomposition_groups_match_per_record_oracle():
    """tate_order and the undecomposed-subfield reduction against
    record-by-record sums of fixed_dim and meets of normal_core."""
    nonzero = reductions = 0
    for ext in _repeating_descriptors():
        for chi in _odd(ext):
            want = [fixed_dim(chi, rec.decomposition) for rec in ext.primes]
            r_s = tate_order(ext, chi)
            assert r_s == sum(rec.count * d for rec, d in zip(ext.primes, want))
            nonzero += r_s > 0
        want_n = undecomposed_by_full_lattice(ext)
        got = certify(ext).by_rule("undecomposed-subfield-reduction")
        if want_n is None:
            assert not got
        else:
            assert [c.payload_dict()["subgroup_order"] for c in got] == [len(want_n)]
            reductions += 1
    assert nonzero > 50 and reductions > 10
