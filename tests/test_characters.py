import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from gkcert.characters import (
    Parity,
    _digit_width,
    _integral_coordinates,
    _pack,
    _packed_dot,
    character_table,
    fixed_dim,
    induced_character,
    inner_product,
    is_odd,
    odd_characters,
    parity,
    verify_character_table,
)
from gkcert.cyclotomic import CycNumber
from gkcert.errors import (
    InternalCheckError,
    NotASubgroup,
    ScaleExceeded,
    TauNotCentralInvolution,
)
from gkcert.groups import (
    abelian_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    subgroup_embedding,
)
from helpers import (
    dicyclic12_group,
    order64_raw_groups,
    permutation_group,
    sl23_group,
    supported_groups,
)


def test_c2_table():
    table = character_table(abelian_group([2]))
    values = sorted(tuple(v.as_int() for v in ch.values) for ch in table)
    assert values == [(1, -1), (1, 1)]


def test_q8_table_and_parity():
    q8 = quaternion_group()
    table = character_table(q8)
    assert [ch.degree for ch in table] == [1, 1, 1, 1, 2]
    two = table[-1]
    assert two.value_at(1) == -2  # the central involution column
    assert parity(two, 1) is Parity.ODD
    assert all(parity(ch, 1) is Parity.EVEN for ch in table[:4])
    verify_character_table(table)


def test_d6_table():
    d6 = dihedral_group(6)
    table = character_table(d6)
    assert sorted(ch.degree for ch in table) == [1, 1, 1, 1, 2, 2]
    assert sum(ch.degree**2 for ch in table) == 12
    verify_character_table(table)
    # odd 2-dim character: chi(a) = zeta_6 + zeta_6^-1 = 1, chi(a^3) = -2
    odd2 = [ch for ch in odd_characters(table, 3) if ch.degree == 2]
    assert len(odd2) == 1
    assert odd2[0].value_at(1) == 1 and odd2[0].value_at(3) == -2


def test_parity_requires_central_involution():
    d6 = dihedral_group(6)
    chi = character_table(d6)[0]
    with pytest.raises(TauNotCentralInvolution):
        parity(chi, 6)


def test_deterministic_row_order():
    g1 = group_from_table(dihedral_group(4).table)
    t1 = character_table(g1)
    t2 = character_table(group_from_table(dihedral_group(4).table))
    assert [[(v.num, v.den) for v in ch.values] for ch in t1] == [
        [(v.num, v.den) for v in ch.values] for ch in t2
    ]
    assert [ch.degree for ch in t1] == [1, 1, 1, 1, 2]


def test_dixon_matches_closed_forms():
    # the modular route on a raw copy of every abelian, dihedral and Q8 group
    # of order <= 24 must agree with its closed form
    closed_groups = [G for G in supported_groups(24) if G.spec[0] != "table"]
    assert {G.spec[0] for G in closed_groups} == {"abelian", "dihedral", "quaternion8"}
    for G in closed_groups:
        raw = group_from_table(G.table)
        assert raw.classes == G.classes
        e = G.exponent()
        raw_keys = [[v.sort_key(e) for v in ch.values] for ch in character_table(raw)]
        closed_keys = [[v.sort_key(e) for v in ch.values] for ch in character_table(G)]
        assert raw_keys == closed_keys, G.spec


def test_dixon_bigger_groups():
    for G, degrees in (
        (permutation_group(3), [1, 1, 2]),
        (permutation_group(4, even_only=True), [1, 1, 1, 3]),
        (dicyclic12_group(), [1, 1, 1, 1, 2, 2]),
        (sl23_group(), [1, 1, 1, 2, 2, 2, 3]),
    ):
        table = character_table(G)
        assert sorted(ch.degree for ch in table) == degrees
        verify_character_table(table)


def test_scale_bound():
    with pytest.raises(ScaleExceeded):
        character_table(abelian_group([65]))


def test_fixed_dim_examples():
    d6 = dihedral_group(6)
    table = character_table(d6)
    for ch in table:
        assert fixed_dim(ch, {0}) == ch.degree
        trivial = all(v == 1 for v in ch.values)
        assert fixed_dim(ch, range(12)) == (1 if trivial else 0)
    odd2 = [ch for ch in odd_characters(table, 3) if ch.degree == 2][0]
    assert fixed_dim(odd2, {0, 6}) == 1  # (2 + 0)/2
    with pytest.raises(NotASubgroup):
        fixed_dim(table[0], {0, 1})


def test_induction_examples():
    c2 = abelian_group([2])
    H, emb = subgroup_embedding(c2, {0})
    ind = induced_character(c2, emb, character_table(H)[0])
    assert ind.value_at(0).as_int() == 2 and ind.value_at(1).as_int() == 0
    d6 = dihedral_group(6)
    Hb, embb = subgroup_embedding(d6, {0, 6})
    triv = [c for c in character_table(Hb) if all(v == 1 for v in c.values)][0]
    ind_b = induced_character(d6, embb, triv)
    assert ind_b.value_at(0).as_int() == 6  # [D6 : <b>]


def test_frobenius_reciprocity_oracle():
    rng = random.Random(77)
    pool = [g for g in supported_groups(24) if g.order <= 24]
    checked = 0
    while checked < 100:
        G = pool[rng.randrange(len(pool))]
        subs = G.all_subgroups()
        H_set = subs[rng.randrange(len(subs))]
        H, emb = subgroup_embedding(G, H_set)
        triv = [c for c in character_table(H) if all(v == 1 for v in c.values)][0]
        ind = induced_character(G, emb, triv)
        for chi in character_table(G):
            lhs = inner_product(ind, chi)
            assert lhs.is_rational
            assert lhs.as_fraction() == fixed_dim(chi, H_set)
        checked += 1


def test_contragredient():
    z = character_table(abelian_group([5]))
    chi = next(ch for ch in z if ch.values[1] == CycNumber.zeta(5))
    assert chi.contragredient().values[1] == CycNumber.zeta(5, 4)


def test_builtin_groups_built_once():
    assert quaternion_group() is quaternion_group()
    assert dihedral_group(6) is dihedral_group(6)
    assert character_table(quaternion_group())[0].group is quaternion_group()


def test_character_table_computed_once_per_group(monkeypatch):
    import gkcert.characters as characters

    runs = []
    dixon = characters._dixon_table

    def counted(G):
        runs.append(G)
        return dixon(G)

    monkeypatch.setattr(characters, "_dixon_table", counted)
    G = group_from_table(dihedral_group(4).table)
    first = character_table(G)
    second = character_table(G)
    assert len(runs) == 1
    assert second == first and all(a is b for a, b in zip(first, second))
    assert all(ch.group is G for ch in second)
    # an equal group built separately gets its own table, bound to itself
    H = group_from_table(dihedral_group(4).table)
    assert H == G and H is not G
    assert all(ch.group is H for ch in character_table(H))
    assert len(runs) == 2


def sampled_pairs(r, rng, limit=40):
    pairs = [(i, j) for i in range(r) for j in range(i + 1)]
    return pairs if len(pairs) <= limit else rng.sample(pairs, limit)


def packed_coordinates(coordinates, width):
    return [[_pack(x, width) for x in row] for row in coordinates]


def max_norm(coordinates):
    return max(sum(map(abs, x)) for row in coordinates for x in row)


def test_packed_dot_matches_cycnumber_oracle():
    # random signed coordinates, packed at the width their products need
    rng = random.Random(12)
    for e in (1, 2, 3, 4, 5, 8, 12, 24):
        phi = len(CycNumber.zeta(e).num)
        for _ in range(20):
            terms = rng.randint(1, 6)
            xs = [[rng.randint(-9, 9) for _ in range(phi)] for _ in range(terms)]
            ys = [[rng.randint(-9, 9) for _ in range(phi)] for _ in range(terms)]
            bound = sum(sum(map(abs, x)) * sum(map(abs, y)) for x, y in zip(xs, ys))
            width = _digit_width(bound)
            packed_xs, packed_ys = ([_pack(v, width) for v in vs] for vs in (xs, ys))
            got = _packed_dot(e, width, packed_xs, packed_ys)
            want = CycNumber.from_rational(0)
            for x, y in zip(xs, ys):
                want = want + CycNumber(e, x) * CycNumber(e, y)
            assert CycNumber(e, got) == want


def test_integer_orthogonality_sums_match_cycnumber_oracle():
    # the CycNumber oracle costs about a millisecond per pair, so large
    # tables check a seeded sample of their pairs
    rng = random.Random(64)
    for G in supported_groups(24) + order64_raw_groups():
        table = character_table(G)
        e, n, r = G.exponent(), G.order, len(G.classes)
        sizes = [len(c) for c in G.classes]
        values, conjugates = _integral_coordinates(table, e)
        width = _digit_width(n * max_norm(values + conjugates) ** 2)
        values, conjugates = (packed_coordinates(c, width) for c in (values, conjugates))
        for i, j in sampled_pairs(r, rng):
            weighted = [s * x for s, x in zip(sizes, values[i])]
            row_sum = _packed_dot(e, width, weighted, conjugates[j])
            assert CycNumber(e, row_sum) == inner_product(table[i], table[j]) * n
        for i, j in sampled_pairs(r, rng):
            column = [v[i] for v in values]
            column_sum = _packed_dot(e, width, column, [c[j] for c in conjugates])
            plain = CycNumber.from_rational(0)
            for ch in table:
                plain = plain + ch.values[i] * ch.values[j].conjugate()
            assert CycNumber(e, column_sum) == plain


def test_integer_row_sums_match_on_products_of_characters():
    # products of irreducibles have nontrivial multiplicities <chi psi, phi>
    for G in (sl23_group(), dicyclic12_group()):
        table = character_table(G)
        e, n = G.exponent(), G.order
        sizes = [len(c) for c in G.classes]
        products = [
            replace(a, values=tuple(x * y for x, y in zip(a.values, b.values)), degree=a.degree * b.degree)
            for a in table
            for b in table
        ]
        values, _ = _integral_coordinates(products, e)
        _, conjugates = _integral_coordinates(table, e)
        width = _digit_width(n * max_norm(values) * max_norm(conjugates))
        values, conjugates = (packed_coordinates(c, width) for c in (values, conjugates))
        for prod, vals in zip(products, values):
            weighted = [s * x for s, x in zip(sizes, vals)]
            for chi, conj in zip(table, conjugates):
                row_sum = _packed_dot(e, width, weighted, conj)
                assert CycNumber(e, row_sum) == inner_product(prod, chi) * n


def _with_value(rows, i, k, value):
    values = list(rows[i].values)
    values[k] = value
    return rows[:i] + [replace(rows[i], values=tuple(values))] + rows[i + 1:]


def corrupted_tables(table):
    """(name, table) pairs, each breaking a genuine table in one way."""
    rows = list(table)
    last = len(rows) - 1
    yield "value-changed", _with_value(rows, last, 1, rows[last].values[1] + 1)
    yield "value-off-by-10^30", _with_value(rows, last, 1, rows[last].values[1] + 10**30)
    i, a, b = next(
        (i, a, b)
        for i, ch in enumerate(rows)
        for a in range(1, len(ch.values))
        for b in range(1, a)
        if ch.values[a] != ch.values[b]
    )
    va, vb = rows[i].values[a], rows[i].values[b]
    yield "values-swapped", _with_value(_with_value(rows, i, a, vb), i, b, va)
    i, k = next(
        (i, k)
        for i, ch in enumerate(rows)
        for k in range(1, len(ch.values))
        if (ch.values[k] / 2).den == 2
    )
    yield "value-halved", _with_value(rows, i, k, rows[i].values[k] / 2)
    yield "row-dropped", rows[:last]


REJECTION = {
    "value-changed": "row orthogonality",
    "value-off-by-10^30": "row orthogonality",
    "values-swapped": "row orthogonality",
    "value-halved": "not an algebraic integer",
    "row-dropped": "rows for",
}

CORRUPTION_GROUPS = (
    lambda: group_from_table(dihedral_group(4).table),
    sl23_group,
    dicyclic12_group,
    lambda: order64_raw_groups()[1],
)


def test_corrupted_tables_are_rejected():
    for build in CORRUPTION_GROUPS:
        table = character_table(build())
        verify_character_table(table)
        names = []
        for name, bad in corrupted_tables(table):
            with pytest.raises(InternalCheckError, match=REJECTION[name]):
                verify_character_table(bad)
            names.append(name)
        assert names == list(REJECTION)


def test_corrupted_tables_are_rejected_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "from gkcert.characters import character_table, verify_character_table\n"
        "from gkcert.errors import InternalCheckError\n"
        "from test_characters import CORRUPTION_GROUPS, corrupted_tables\n"
        "for build in CORRUPTION_GROUPS:\n"
        "    for name, bad in corrupted_tables(character_table(build())):\n"
        "        try:\n"
        "            verify_character_table(bad)\n"
        "        except InternalCheckError:\n"
        "            print('rejected', name)\n"
        "        else:\n"
        "            print('accepted', name)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(REJECTION) * len(CORRUPTION_GROUPS)
    assert all(line.startswith("rejected ") for line in lines), proc.stdout


def _parity_violators():
    """(class function, tau) pairs whose value at tau is not +-chi(1): D4's
    degree-2 row with its value at tau = a^2 replaced by 0, by 1/2, and by
    the irrational i and 2 + i."""
    D4 = dihedral_group(4)
    two = next(ch for ch in character_table(D4) if ch.degree == 2)
    at_tau = D4.class_of[2]
    out = []
    zero, half = CycNumber.from_rational(0), CycNumber.from_rational(Fraction(1, 2))
    for bad in (zero, half, CycNumber(4, [0, 1]), CycNumber(4, [2, 1])):
        values = tuple(bad if i == at_tau else v for i, v in enumerate(two.values))
        out.append((replace(two, values=values), 2))
    return out


def test_parity_rejects_values_that_are_not_plus_or_minus_the_degree():
    for chi, tau in _parity_violators():
        with pytest.raises(InternalCheckError):
            parity(chi, tau)


def test_parity_rejects_bad_values_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "from gkcert.characters import parity\n"
        "from gkcert.errors import InternalCheckError\n"
        "from test_characters import _parity_violators\n"
        "for chi, tau in _parity_violators():\n"
        "    try:\n"
        "        parity(chi, tau)\n"
        "    except InternalCheckError:\n"
        "        print('rejected')\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["rejected"] * 4, proc.stdout


def test_fixed_dim_and_odd_rows_are_stored_per_group_object(monkeypatch):
    import gkcert.characters as characters

    computed = []
    fixed = characters._fixed_dim

    def counted(chi, H):
        computed.append((chi, H))
        return fixed(chi, H)

    monkeypatch.setattr(characters, "_fixed_dim", counted)
    G1, G2 = replace(dihedral_group(6)), replace(dihedral_group(6))
    table = character_table(G1)
    odd = odd_characters(table, 3)
    assert odd == odd_characters(table, 3) and G1._verdicts[("odd", 3)] == tuple(odd)
    assert all(is_odd(ch, 3) == (ch in odd) for ch in table)
    two = [ch for ch in odd if ch.degree == 2][0]
    assert fixed_dim(two, [0, 6]) == fixed_dim(two, {6, 0}) == 1
    assert len(computed) == 1
    with pytest.raises(NotASubgroup):
        fixed_dim(two, {0, 1})  # checked on every call
    # a character that is not a stored row is computed each time
    copy = replace(two)
    assert fixed_dim(copy, {0, 6}) == fixed_dim(copy, {0, 6}) == 1 and len(computed) == 3
    assert not G2._verdicts
    two2 = [ch for ch in odd_characters(character_table(G2), 3) if ch.degree == 2][0]
    assert fixed_dim(two2, {0, 6}) == 1 and len(computed) == 4
    # the subset of a table is tested row by row and stores nothing new
    assert odd_characters(table[:3], 3) == [ch for ch in table[:3] if ch in odd]
    assert set(G1._verdicts) == {("odd", 3), ("fixed_dim", table.index(two), frozenset({0, 6}))}


def _corrupted_row_calls():
    """Calls on D4, built from its raw table, whose stored degree-2 row has
    the irrational value i at tau = a^2, made before anything is stored on
    the group: (name, error class name or 'accepted') for each call, twice."""
    G = group_from_table(dihedral_group(4).table)
    rows = character_table(G)
    i = next(k for k, ch in enumerate(rows) if ch.degree == 2)
    at_tau = G.class_of[2]
    values = tuple(CycNumber(4, [0, 1]) if k == at_tau else v for k, v in enumerate(rows[i].values))
    rows[i] = replace(rows[i], values=values)
    object.__setattr__(G, "_characters", tuple(rows))
    calls = [
        ("odd_characters", lambda: odd_characters(character_table(G), 2)),
        ("is_odd", lambda: is_odd(rows[i], 2)),
        ("fixed_dim", lambda: fixed_dim(rows[i], {0, 2})),
    ]
    out = []
    for name, call in calls * 2:
        try:
            call()
        except Exception as exc:
            out.append((name, type(exc).__name__))
        else:
            out.append((name, "accepted"))
    assert not G._verdicts
    return out


def test_corrupted_row_raises_on_every_call_also_under_optimize():
    want = [
        ("odd_characters", "InternalCheckError"),
        ("is_odd", "InternalCheckError"),
        ("fixed_dim", "NonIntegralDimension"),
    ] * 2
    assert _corrupted_row_calls() == want
    here = os.path.dirname(os.path.abspath(__file__))
    script = "from test_characters import _corrupted_row_calls\nprint(_corrupted_row_calls())\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(want)
