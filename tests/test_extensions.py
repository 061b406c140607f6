import itertools
import json
import random
import time

import pytest

from gkcert.errors import (
    AmbiguousDecomposition,
    InternalCheckError,
    InvariantViolation,
    NotLinearlyDisjoint,
    RamifiedPrime,
    Reducible,
    SchemaViolation,
)
from gkcert.extensions import (
    D4_PIECE,
    Q8_PIECE,
    Compositum,
    CyclotomicComponent,
    MAX_DISCRIMINANT,
    ExtensionDescriptor,
    PrimeRecord,
    QuadraticComponent,
    build_compositum_over_Q,
    check_tower_disjointness,
    classify_primes,
    ingest_extension,
    multiquadratic_field,
    to_document,
)
from gkcert.groups import dihedral_group
from gkcert.intpoly import IntPoly
from gkcert.numberfield import make_field, splitting_type
from gkcert.numutil import is_prime, kronecker, multiplicative_order, primes_upto
from helpers import random_descriptor


def q8_split_primes(bound):
    out = []
    for p in primes_upto(bound):
        if p < 5:
            continue
        try:
            if Q8_PIECE.frobenius(p) == 0:
                out.append(p)
        except (AmbiguousDecomposition, RamifiedPrime):
            pass
    return out


def test_builder_gaussian_split():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 13)
    assert len(ext.primes) == 1
    rec = ext.primes[0]
    assert rec.decomposition == frozenset({0}) and rec.base_is_qp
    assert ext.totally_split(rec)


def test_builder_two_components():
    # 29 = 1 mod 4 splits in Q(i); (5|29) = 1 so 29 splits in Q(sqrt 5)
    assert kronecker(-4, 29) == 1 and kronecker(5, 29) == 1
    ext = build_compositum_over_Q([QuadraticComponent(-4), QuadraticComponent(5)], 29)
    assert ext.group.order == 2 and ext.base.degree == 2
    assert ext.primes == (PrimeRecord("v1-v2", 1, 1, frozenset({0}), 2),)
    assert classify_primes(ext).t == 2


def test_builder_ramified():
    with pytest.raises(RamifiedPrime):
        build_compositum_over_Q([QuadraticComponent(-4)], 2)
    with pytest.raises(RamifiedPrime):
        build_compositum_over_Q([CyclotomicComponent(5)], 5)
    with pytest.raises(RamifiedPrime, match="3 ramifies in q8-witt-cm"):
        build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], 3)


def test_builder_inert_prime():
    ext = build_compositum_over_Q([QuadraticComponent(-4)], 7)
    assert ext.primes[0].decomposition == frozenset({0, 1})
    summary = classify_primes(ext)
    assert summary.r == 0 and summary.tau_inert_labels == ("v1",)


def test_cyclotomic_component_frobenius():
    # decomposition order = multiplicative order of p mod m, cross-checked
    # against the defining-polynomial splitting route for every m <= 40
    from gkcert.numberfield import cyclotomic_field

    for m in range(3, 41):
        if m % 4 == 2:
            continue  # duplicate field, rejected by the component
        primes = [p for p in primes_upto(60 if m <= 15 else 30) if p > 2 and m % p]
        field = cyclotomic_field(m)
        for p in primes:
            ext = build_compositum_over_Q([CyclotomicComponent(m)], p)
            f = multiplicative_order(p, m)
            assert len(ext.primes[0].decomposition) == f
            st = splitting_type(field, p)
            assert st.entries[0] == (1, f)


def test_unit_group_structure():
    from gkcert.numutil import euler_phi

    for m in (5, 8, 12, 15, 16, 20, 24):
        piece = CyclotomicComponent(m)
        G = piece.group()
        assert G.order == euler_phi(m)
        # every unit gets a distinct element, products map to products
        units = [u for u in range(1, m) if __import__("math").gcd(u, m) == 1]
        elems = {u: piece.frobenius(u) for u in units}
        assert len(set(elems.values())) == len(units)
        rng = random.Random(m)
        for _ in range(10):
            a, b = rng.choice(units), rng.choice(units)
            assert G.op(elems[a], elems[b]) == elems[a * b % m]


def test_radical_pieces():
    split = q8_split_primes(400)
    assert split and all(kronecker(2, p) == 1 and kronecker(3, p) == 1 for p in split)
    with pytest.raises(RamifiedPrime):
        Q8_PIECE.frobenius(3)
    with pytest.raises(AmbiguousDecomposition):
        Q8_PIECE.frobenius(5)  # 5 is not split in Q(sqrt2, sqrt3)
    # D4 piece has both split and tau primes
    frobs = {}
    for p in primes_upto(250):
        if p < 3:
            continue
        try:
            frobs[p] = D4_PIECE.frobenius(p)
        except (AmbiguousDecomposition, RamifiedPrime):
            pass
    assert 0 in frobs.values() and 2 in frobs.values()


def test_theorem_b_shape():
    p0 = next(p for p in q8_split_primes(600) if kronecker(5, p) == 1)
    ext = build_compositum_over_Q([Q8_PIECE, QuadraticComponent(5)], p0)
    assert ext.group.spec == ("quaternion8",) and ext.tau == 1
    summary = classify_primes(ext)
    assert summary.t == 2 and summary.s == 4 and summary.r == 8
    assert summary.split_qp_labels == ("v1-v2",)
    assert check_tower_disjointness(ext)


def test_disjointness_checks():
    p0 = next(p for p in q8_split_primes(600) if kronecker(21, p) == 1)
    with pytest.raises(NotLinearlyDisjoint):
        build_compositum_over_Q([Q8_PIECE, QuadraticComponent(21)], p0)
    ext = build_compositum_over_Q(
        [Q8_PIECE, QuadraticComponent(21)],
        p0,
        assertions=("disjoint:quadratic(21):q8-witt-cm",),
    )
    assert any(a.startswith("disjoint:") for a in ext.assertions)
    with pytest.raises(NotLinearlyDisjoint):
        # duplicate real component
        build_compositum_over_Q(
            [QuadraticComponent(-4), QuadraticComponent(5), QuadraticComponent(5)], 29
        )


def test_classify_primes_tau_invariance():
    rng = random.Random(11)
    for _ in range(40):
        ext = random_descriptor(rng)
        base = classify_primes(ext)
        # conjugating any decomposition group leaves the summary unchanged
        g = rng.randrange(ext.group.order)
        conj = tuple(
            PrimeRecord(
                label=rec.label,
                e_base=rec.e_base,
                f_base=rec.f_base,
                decomposition=frozenset(
                    ext.group.conjugate(x, g) for x in rec.decomposition
                ),
                count=rec.count,
            )
            for rec in ext.primes
        )
        ext2 = ExtensionDescriptor(
            base=ext.base, group=ext.group, tau=ext.tau, p=ext.p, primes=conj
        )
        other = classify_primes(ext2)
        assert (other.t, other.s, other.r) == (base.t, base.s, base.r)


def test_split_implies_r_at_least_s():
    rng = random.Random(13)
    seen = 0
    for _ in range(300):
        ext = random_descriptor(rng)
        summary = classify_primes(ext)
        if summary.split_qp_labels:
            assert summary.r >= summary.s
            seen += 1
    assert seen > 10


def test_ingest_round_trip_and_violations():
    ext = build_compositum_over_Q([QuadraticComponent(-4), QuadraticComponent(5)], 29)
    doc = to_document(ext)
    del doc["base"]
    doc["base_poly"] = [-5, 0]  # the same R = Q(sqrt 5), given by its polynomial
    assert to_document(ingest_extension(doc)) == doc

    bad = json.loads(json.dumps(doc))
    bad["tau"] = 0
    with pytest.raises(InvariantViolation) as err:
        ingest_extension(bad)
    assert "tau" in str(err.value)

    bad = json.loads(json.dumps(doc))
    bad["primes"][0]["e_base"] = 7
    with pytest.raises(InvariantViolation) as err:
        ingest_extension(bad)
    assert "base degree" in str(err.value)

    bad = json.loads(json.dumps(doc))
    bad["primes"][0].update(e=1, f=1, g=3)
    with pytest.raises(InvariantViolation) as err:
        ingest_extension(bad)
    assert "local-global" in str(err.value)

    bad = json.loads(json.dumps(doc))
    bad["primes"][0]["decomposition_subgroup"] = [1]
    with pytest.raises(InvariantViolation) as err:
        ingest_extension(bad)
    assert "subgroup" in str(err.value)

    bad = json.loads(json.dumps(doc))
    bad["base_poly"] = [-1, 0]  # X^2 - 1 is reducible
    with pytest.raises(InvariantViolation) as err:
        ingest_extension(bad)
    assert err.value.invariant == "base field"

    with pytest.raises(SchemaViolation):
        ingest_extension({"schema": "nope"})
    bad = json.loads(json.dumps(doc))
    bad["base_poly"] = [0.5]
    with pytest.raises(SchemaViolation):
        ingest_extension(bad)


def test_ingest_does_not_relabel_internal_errors(monkeypatch):
    import gkcert.extensions

    def broken(f):
        raise InternalCheckError("bug")

    monkeypatch.setattr(gkcert.extensions, "make_field", broken)
    doc = to_document(build_compositum_over_Q([QuadraticComponent(-4)], 5))
    del doc["base"]
    doc["base_poly"] = [0]  # R = Q, given by its polynomial, so make_field is called
    with pytest.raises(InternalCheckError):
        ingest_extension(doc)


def test_ingested_d4_descriptor():
    doc = {
        "base_poly": [-2, 0],
        "p": 5,
        "group": {"kind": "dihedral", "data": 4},
        "tau": 2,
        "primes": [
            {"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]},
            {"e_base": 1, "f_base": 1, "decomposition_subgroup": [0, 2]},
        ],
    }
    ext = ingest_extension(doc)
    assert ext.group.order == 8
    assert classify_primes(ext).split_qp_labels == ("v1",)


def test_multiquadratic_fields():
    assert multiquadratic_field(()).degree == 1
    assert multiquadratic_field((5,)).degree == 2
    F = multiquadratic_field((5, 13, 17))
    assert F.degree == 8 and F.is_totally_real and F.signature == (8, 0)
    for bad in (-4, 1, 20, 9):
        with pytest.raises(SchemaViolation):
            multiquadratic_field((5, bad))


@pytest.mark.parametrize(
    "pool",
    [
        (5, 13, 65, 17),  # 65 = 5 * 13
        (8, 12, 24, 5),  # radicands 2, 3, 6
        (5, 8, 40, 13),  # radicands 5, 2, 10
        (12, 21, 28, 5),  # radicands 3, 21, 7
        (5, 13, 17, 29),
        (8, 5, 13, 17),
        (61, 53, 41, 37),
    ],
)
def test_multiquadratic_closed_form_matches_make_field(pool):
    # the Kummer check and the closed-form signature against sympy's minimal
    # polynomial of sum sqrt(d_i), a primitive element of
    # Q(sqrt d_1, ..., sqrt d_k), and make_field's Sturm count on it
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for k in (1, 2, 3):
        for discs in itertools.combinations(pool, k):
            minpoly = sympy.Poly(sympy.minimal_polynomial(sum(map(sympy.sqrt, discs)), x), x)
            try:
                F = multiquadratic_field(discs)
            except Reducible:
                assert minpoly.degree() < 2**k, discs
                continue
            f = make_field(IntPoly([int(c) for c in reversed(minpoly.all_coeffs())]), "sympy")
            assert (F.degree, F.signature) == (f.degree, f.signature) == (2**k, (2**k, 0)), discs


def test_dependent_real_discriminants_are_refused_under_disjointness_assertions():
    # 65 = 5 * 13 shares support with 5 and with 13; the caller asserts both
    # pairs disjoint, but sqrt 65 lies in Q(sqrt 5, sqrt 13), so [R:Q] = 4, not 8
    components = [Q8_PIECE] + [QuadraticComponent(d) for d in (5, 13, 65)]
    assertions = ["disjoint:quadratic(65):quadratic(5)", "disjoint:quadratic(65):quadratic(13)"]
    with pytest.raises(NotLinearlyDisjoint):
        Compositum(components)
    with pytest.raises(Reducible):
        Compositum(components, assertions)
    with pytest.raises(Reducible):
        build_compositum_over_Q(components, 311, assertions)


def test_ingest_multiquadratic_base():
    ext = build_compositum_over_Q([QuadraticComponent(-4)] + [QuadraticComponent(d) for d in (5, 13)], 29)
    doc = to_document(ext)
    assert doc["base"] == {"multiquadratic": [5, 13]} and "base_poly" not in doc
    loaded = ingest_extension(doc)
    assert loaded.base == ext.base and loaded.digest() == ext.digest()

    def violation(kind, base=None, **entries):
        bad = json.loads(json.dumps(doc))
        if base is not None:
            bad["base"]["multiquadratic"] = base
        bad.update(entries)
        with pytest.raises(kind) as err:
            ingest_extension(bad)
        return err.value

    both = violation(SchemaViolation, base_poly=[-5, 0])
    assert "base_poly" in str(both) and "base" in str(both)
    assert "base.multiquadratic[1]" in str(violation(SchemaViolation, [5, 13.0]))
    assert "base.multiquadratic" in str(violation(SchemaViolation, [5, -4]))
    assert "base.multiquadratic" in str(violation(SchemaViolation, [5, 52]))
    dependent = violation(InvariantViolation, [5, 13, 65])
    assert dependent.invariant == "base field" and "base.multiquadratic" in str(dependent)
    bad = json.loads(json.dumps(doc))
    del bad["base"]
    with pytest.raises(SchemaViolation):
        ingest_extension(bad)


def test_compositum_builds_the_base_once():
    components = [Q8_PIECE, QuadraticComponent(5), QuadraticComponent(13)]
    compositum = Compositum(components)
    primes = [p for p in q8_split_primes(2000) if kronecker(5, p) == kronecker(13, p) == 1]
    assert len(primes) >= 2
    for p in primes:
        ext = compositum.at(p)
        assert ext.base is compositum.base
        assert ext == build_compositum_over_Q(components, p)


def test_descriptor_invariants_enforced():
    with pytest.raises(InvariantViolation):
        ExtensionDescriptor(
            base=make_field(IntPoly([1, 0, 1])),  # imaginary base
            group=dihedral_group(4),
            tau=2,
            p=5,
            primes=(PrimeRecord("v1", 1, 2, frozenset({0})),),
        )
    with pytest.raises(InvariantViolation, match="count"):
        ExtensionDescriptor(
            base=make_field(IntPoly([0, 1])),  # Q: counts 2 and -1 sum to [R:Q] = 1
            group=dihedral_group(4),
            tau=2,
            p=5,
            primes=(
                PrimeRecord("v1-v2", 1, 1, frozenset({0}), 2),
                PrimeRecord("v3", 1, 1, frozenset({0}), -1),
            ),
        )


@pytest.mark.parametrize("count", [0, -1, True, "2", 1.5])
def test_ingest_refuses_a_count_that_is_not_a_positive_integer(count):
    doc = to_document(build_compositum_over_Q([QuadraticComponent(-4), QuadraticComponent(5)], 29))
    assert doc["primes"][0]["count"] == 2
    doc["primes"][0]["count"] = count
    with pytest.raises(SchemaViolation, match=r"^primes\[0\]\.count: "):
        ingest_extension(doc)


@pytest.mark.parametrize(
    "group, tau, classes, assumptions",
    [
        ({"kind": "quaternion8"}, 1, [([0], 16)], ("leopoldt",)),
        ({"kind": "quaternion8"}, 1, [([0, 1], 16)], ()),
        ({"kind": "abelian", "data": [2, 4]}, 4, [([0], 16)], ()),
        ({"kind": "abelian", "data": [2, 4]}, 4, [([0], 1), ([0, 4], 15)], ()),
        ({"kind": "dihedral", "data": 6}, 3, [([0], 1), ([0, 3], 15)], ()),
    ],
    ids=["q8-split", "q8-tau-inert", "c2xc4-split", "c2xc4-mixed", "d6-mixed"],
)
def test_a_counted_record_certifies_like_its_primes_listed_one_by_one(group, tau, classes, assumptions):
    from gkcert.rules import certify

    shared = {"base": {"multiquadratic": [5, 13, 17, 29]}, "p": 2089, "group": group, "tau": tau}
    counted = [
        {"e_base": 1, "f_base": 1, "decomposition_subgroup": g_w, "count": n} for g_w, n in classes
    ]
    listed = [
        {"e_base": 1, "f_base": 1, "decomposition_subgroup": g_w}
        for g_w, n in classes
        for _ in range(n)
    ]
    outcomes = [
        certify(ingest_extension({**shared, "primes": primes}), assumptions)
        for primes in (counted, listed)
    ]

    def seen(outcome):
        return [(c.conclusion, c.rule, c.payload_dict(), c.conditional) for c in outcome]

    assert outcomes[0].certificates and seen(outcomes[0]) == seen(outcomes[1])
    assert outcomes[0].diagnostics == outcomes[1].diagnostics


# The first prime = 1 mod 4 above 10^30: a fundamental discriminant that
# trial division would take years to factor.
HUGE_PRIME_DISC = 10**30 + 57


def test_discriminants_above_the_bound_are_refused_before_factoring():
    assert HUGE_PRIME_DISC % 4 == 1 and is_prime(HUGE_PRIME_DISC) and HUGE_PRIME_DISC > MAX_DISCRIMINANT
    doc = to_document(build_compositum_over_Q([QuadraticComponent(-4), QuadraticComponent(5)], 29))
    doc["base"]["multiquadratic"] = [5, HUGE_PRIME_DISC]
    for refuse in (
        lambda: ingest_extension(doc),
        lambda: multiquadratic_field((HUGE_PRIME_DISC, 5)),
        lambda: QuadraticComponent(-HUGE_PRIME_DISC),
    ):
        started = time.perf_counter()
        with pytest.raises(SchemaViolation, match="exceeds the bound"):
            refuse()
        assert time.perf_counter() - started < 0.1
    with pytest.raises(SchemaViolation, match=r"base\.multiquadratic: discriminant 10+57 exceeds"):
        ingest_extension(doc)
