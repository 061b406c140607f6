import random

import pytest

from gkcert.characters import character_table, fixed_dim, inner_product, odd_characters
from gkcert.errors import (
    EvenCharacter,
    LiftedOrderMismatch,
    NonDivisibleOrder,
    NotAbelian,
    PrimesNotSplitInSubfield,
)
from gkcert.errors import AmbiguousDecomposition, RamifiedPrime
from gkcert.extensions import (
    Compositum,
    CyclotomicComponent,
    ExtensionDescriptor,
    PrimeRecord,
    QuadraticComponent,
    build_compositum_over_Q,
    classify_primes,
)
from gkcert.groups import abelian_group, dihedral_group, quaternion_group, subgroup_embedding
from gkcert.rules import certify
from gkcert.vanishing import (
    GKC_ASSUMED,
    bv_component,
    lifted_order,
    t_order_ledger,
    tate_order,
)
from helpers import order64_raw_groups, random_descriptor, totally_real_field
from test_extensions import q8_split_primes
from test_rules import undecomposed_by_full_lattice
from gkcert.extensions import Q8_PIECE
from gkcert.numutil import kronecker, primes_upto


def _odd(ext):
    return odd_characters(character_table(ext.group), ext.tau)


def test_imaginary_quadratic_split_and_inert():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    sign = _odd(ext)[0]
    assert tate_order(ext, sign).r_s == 1
    ext_inert = build_compositum_over_Q([QuadraticComponent(-4)], 7)
    assert tate_order(ext_inert, _odd(ext_inert)[0]).r_s == 0


def test_even_characters_rejected():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    even = [ch for ch in character_table(ext.group) if ch not in _odd(ext)][0]
    with pytest.raises(EvenCharacter):
        tate_order(ext, even)
    with pytest.raises(EvenCharacter):
        bv_component(ext, even, "v1")


def test_q8_totally_split_order():
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    ext = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    odd = _odd(ext)
    assert len(odd) == 1 and odd[0].degree == 2
    report = tate_order(ext, odd[0])
    assert report.r_s == 2 * classify_primes(ext).t == 4
    assert report.contributions == (("v1-v2", 2),)


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
        report = tate_order(ext, chi)
        total = 0
        for rec in ext.primes:
            H, emb = subgroup_embedding(ext.group, rec.decomposition)
            triv = [c for c in character_table(H) if all(v == 1 for v in c.values)][0]
            ind = induced_character_cached(ext.group, emb, triv)
            total += rec.count * int(inner_product(ind, chi).as_fraction())
        assert total == report.r_s
        checked += 1


_IND_CACHE = {}


def induced_character_cached(G, emb, triv):
    key = (id(G), emb)
    if key not in _IND_CACHE:
        from gkcert.characters import induced_character

        _IND_CACHE[key] = induced_character(G, emb, triv)
    return _IND_CACHE[key]


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
        base = tate_order(ext, chi).r_s
        assert tate_order(ext, chi.contragredient()).r_s == base
        e = ext.group.exponent()
        for k in range(1, e):
            if gcd(k, e) != 1:
                continue
            twisted = replace(chi, values=tuple(v.galois(k) for v in chi.values))
            assert tate_order(ext, twisted).r_s == base
        checked += 1


def test_bv_component():
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    ext = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    chi = _odd(ext)[0]
    bv = bv_component(ext, chi, "v1-v2", n=3)
    assert bv.chi_multiplicity == chi.degree * 2 == 4
    assert bv.t_order_contribution == bv.chi_multiplicity  # independent of n
    assert bv.omega_level == 3
    assert bv_component(ext, chi, "v1-v2", n=0).t_order_contribution == 4


def test_ledger():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    sign = _odd(ext)[0]
    led = t_order_ledger(ext, sign, GKC_ASSUMED)
    assert led.ord_a_prime == 0 and led.ord_a == 1 and led.predicted_lp_order == 1
    assert led.gkc_assumed and not led.gkc_fails
    led2 = t_order_ledger(ext, sign, 3)
    assert led2.ord_a == 4 and led2.predicted_lp_order == 4 and led2.gkc_fails
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    extq = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    chi2 = _odd(extq)[0]
    ledq = t_order_ledger(extq, chi2, GKC_ASSUMED)
    assert ledq.ord_a == 2 * ledq.r_s and ledq.predicted_lp_order == ledq.r_s == 4
    with pytest.raises(NonDivisibleOrder):
        t_order_ledger(extq, chi2, 3)
    with pytest.raises(NonDivisibleOrder):
        t_order_ledger(ext, sign, -1)


def test_ledger_identity_property():
    rng = random.Random(107)
    checked = 0
    while checked < 100:
        ext = random_descriptor(rng)
        odd = _odd(ext)
        if not odd:
            continue
        chi = odd[rng.randrange(len(odd))]
        supplied = chi.degree * rng.randrange(0, 4)
        led = t_order_ledger(ext, chi, supplied)
        assert led.ord_a - led.ord_a_prime == chi.degree * led.r_s
        assert led.predicted_lp_order >= led.r_s  # the unconditional inequality
        # per-record contributions, each for count primes, assemble the same total
        total = sum(
            rec.count * bv_component(ext, chi, rec.label).t_order_contribution
            for rec in ext.primes
        )
        assert total == chi.degree * led.r_s
        checked += 1


def test_lifted_order():
    ext = build_compositum_over_Q([CyclotomicComponent(5)], 11)  # totally split
    G = ext.group
    h = G.subgroup_generated_by([ext.tau])
    assert lifted_order(ext, h) == 2  # [R~:R] = 2, one prime of Q
    assert lifted_order(ext, frozenset(range(G.order))) == 1  # R~ = R
    ext7 = build_compositum_over_Q([CyclotomicComponent(5)], 7)
    with pytest.raises(PrimesNotSplitInSubfield):
        lifted_order(ext7, ext7.group.subgroup_generated_by([ext7.tau]))
    p0 = q8_split_primes(600)[0]
    extq = build_compositum_over_Q([Q8_PIECE], p0)
    with pytest.raises(NotAbelian):
        lifted_order(extq, frozenset(range(8)))


def test_lifted_order_mismatch_detected():
    # inert prime in K over the subfield route: G_w = <tau> <= H~ = G, but the
    # uniform formula fails for characters with tau in the kernel complement
    ext = build_compositum_over_Q([CyclotomicComponent(5)], 11)
    G = ext.group
    from gkcert.extensions import ExtensionDescriptor, PrimeRecord

    ext_bad = ExtensionDescriptor(
        base=ext.base,
        group=G,
        tau=ext.tau,
        p=11,
        primes=(PrimeRecord("v1", 1, 1, G.subgroup_generated_by([ext.tau])),),
    )
    with pytest.raises(LiftedOrderMismatch):
        lifted_order(ext_bad, frozenset(range(G.order)))


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
    """tate_order, bv_component and the undecomposed-subfield reduction
    against record-by-record sums of fixed_dim and meets of normal_core."""
    nonzero = reductions = 0
    for ext in _repeating_descriptors():
        for chi in _odd(ext):
            want = tuple((rec.label, fixed_dim(chi, rec.decomposition)) for rec in ext.primes)
            report = tate_order(ext, chi)
            assert report.contributions == want
            assert report.r_s == sum(rec.count * d for rec, (_, d) in zip(ext.primes, want))
            nonzero += report.r_s > 0
            for label, dim in want:
                bv = bv_component(ext, chi, label)
                assert bv.chi_multiplicity == bv.t_order_contribution == chi.degree * dim
        want_n = undecomposed_by_full_lattice(ext)
        got = certify(ext).by_rule("undecomposed-subfield-reduction")
        if want_n is None:
            assert not got
        else:
            assert [c.payload_dict()["subgroup_order"] for c in got] == [len(want_n)]
            reductions += 1
    assert nonzero > 50 and reductions > 10
