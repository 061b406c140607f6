import itertools
import random

import pytest

from gkcert.errors import InvalidTable, NotASubgroup, TauNotCentralInvolution
from gkcert.groups import (
    _associativity_failure,
    abelian_group,
    build_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    subgroup_embedding,
)
from gkcert.schema import Node
from helpers import (
    dicyclic12_group,
    order64_raw_groups,
    permutation_group,
    raw_groups,
    sl23_group,
    supported_groups,
)


def brute_force_classes(G):
    seen, classes = set(), []
    for g in range(G.order):
        if g in seen:
            continue
        orbit = {G.op(G.op(x, g), G.inv(x)) for x in range(G.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return sorted(classes)


def test_build_group_examples():
    c2 = build_group(Node({"kind": "abelian", "data": [2]}))
    assert c2.order == 2 and len(c2.classes) == 2
    d6 = build_group(Node({"kind": "dihedral", "data": 6}))
    assert d6.order == 12 and len(d6.classes) == 6
    q8 = build_group(Node({"kind": "quaternion8"}))
    assert q8.order == 8 and len(q8.classes) == 5


def test_classes_match_brute_force():
    for G in (dihedral_group(6), quaternion_group(), permutation_group(3), dicyclic12_group()):
        assert sorted(G.classes) == brute_force_classes(G)


def test_invalid_tables():
    with pytest.raises(InvalidTable):
        group_from_table([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(InvalidTable):
        group_from_table([[1, 0], [0, 0]])  # wrong identity structure at 0? still valid C2 -> check associativity instead
    # a genuinely non-associative magma with identity and "inverses"
    rows = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidTable):
        group_from_table(rows)


def test_element_orders_and_exponent():
    d6 = dihedral_group(6)
    assert d6.exponent() == 6
    assert quaternion_group().exponent() == 4
    assert sl23_group().exponent() == 12


def test_central_involutions():
    def central_involutions(G):
        return [t for t in range(G.order) if G.is_central_involution(t)]

    assert central_involutions(quaternion_group()) == [1]
    assert central_involutions(dihedral_group(6)) == [3]
    assert central_involutions(dihedral_group(5)) == []
    assert central_involutions(abelian_group([2, 4])) == [1, 4, 5]
    with pytest.raises(TauNotCentralInvolution):
        dihedral_group(6).require_central_involution(6)


def test_subgroups():
    q8 = quaternion_group()
    subs = q8.all_subgroups()
    assert [len(s) for s in subs] == [1, 2, 4, 4, 4, 8]
    assert all(q8.is_subgroup(s) for s in subs)
    with pytest.raises(NotASubgroup):
        q8.require_subgroup({0, 2})  # {1, i} not closed
    d6 = dihedral_group(6)
    rot = d6.subgroup_generated_by([1])
    assert rot == frozenset(range(6))
    H, emb = subgroup_embedding(d6, rot)
    assert H.order == 6 and H.is_abelian and emb[0] == 0


def test_normal_core_and_quotients():
    d6 = dihedral_group(6)
    refl = d6.subgroup_generated_by([6])
    assert d6.normal_core(refl) == frozenset({0})
    assert d6.quotient_is_abelian(frozenset(range(6)))  # D6/<a> = C2
    assert not d6.quotient_is_abelian(frozenset({0, 3}))  # D6/<a^3> = D3
    q8 = quaternion_group()
    assert q8.quotient_is_abelian(frozenset({0, 1}))


def test_power_and_conjugation():
    d6 = dihedral_group(6)
    assert d6.power(1, 6) == 0 and d6.power(1, -1) == 5
    assert d6.conjugate(1, 6) == 5  # b a b^-1 = a^-1


def lattice_by_full_closure(G):
    """Reference lattice, sharing no code with FiniteGroup: close every known
    subgroup plus one more element under products until nothing new appears."""
    def closure(elements):
        s = set(elements)
        while True:
            grown = s | {G.table[a][b] for a in s for b in s}
            if grown == s:
                return frozenset(s)
            s = grown

    found = {frozenset([G.identity])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in range(G.order):
            bigger = closure(h | {g})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_all_subgroups_matches_full_closure():
    for G in supported_groups(24):
        assert G.all_subgroups() == lattice_by_full_closure(G)


def test_all_subgroups_inside_matches_filtered_lattice():
    for G in supported_groups(24) + order64_raw_groups():
        full = G.all_subgroups()
        cores = {G.normal_core(h) for h in full}
        insides = cores | {a & b for a, b in itertools.combinations(cores, 2)}
        for H in insides:
            assert G.all_subgroups(inside=H) == [h for h in full if h <= H]
        if G.order > 1:
            with pytest.raises(NotASubgroup):
                G.all_subgroups(inside=[x for x in range(G.order) if x != G.identity])
        with pytest.raises(NotASubgroup):
            G.all_subgroups(inside=[G.identity, G.order])


def brute_force_associative(rows):
    n = range(len(rows))
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]] for a in n for b in n for c in n)


def reduced_latin_squares(n, rng=None):
    """Every n x n Latin square over 0..n-1 whose first row and column are
    0..n-1 in order (each a loop with identity 0); with ``rng``, one such
    square drawn by randomized backtracking instead."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        choices = [x for x in range(n) if x not in used]
        if rng is not None:
            rng.shuffle(choices)
        for x in choices:
            rows[i][j] = x
            yield from fill(cell + 1)
        rows[i][j] = None

    squares = fill(0)
    return next(squares) if rng is not None else list(squares)


def relabelled(rows, rng):
    """The table under a random relabelling that keeps 0 fixed."""
    n = len(rows)
    perm = [0] + rng.sample(range(1, n), n - 1)
    back = {y: x for x, y in enumerate(perm)}
    return tuple(tuple(perm[rows[back[a]][back[b]]] for b in range(n)) for a in range(n))


def with_intercalate_swapped(rows, rng):
    """A loop one 2 x 2 subsquare away from ``rows`` (rows and columns > 0),
    or None when it has none: associative on all but a few triples."""
    n = len(rows)
    found = [
        (a, b, c, d)
        for a, b in itertools.combinations(range(1, n), 2)
        for c, d in itertools.combinations(range(1, n), 2)
        if rows[a][c] == rows[b][d] and rows[a][d] == rows[b][c]
    ]
    if not found:
        return None
    a, b, c, d = rng.choice(found)
    out = [list(r) for r in rows]
    out[a][c], out[a][d], out[b][c], out[b][d] = rows[a][d], rows[a][c], rows[b][d], rows[b][c]
    return tuple(tuple(r) for r in out)


def loop_sample():
    """Seeded order-6 and order-8 loops: random ones, relabelled group tables,
    and group tables with one subsquare swapped."""
    rng = random.Random(8)
    groups = [G for G in supported_groups(8) if G.order in (6, 8)]
    sample = []
    for n in (6, 8):
        sample += [reduced_latin_squares(n, rng) for _ in range(40)]
    for G in groups:
        for _ in range(5):
            rows = relabelled(G.table, rng)
            sample.append(rows)
            near = with_intercalate_swapped(rows, rng)
            if near is not None:
                sample.append(near)
    return sample


def test_associativity_matches_brute_force():
    squares = reduced_latin_squares(5)
    assert len(squares) == 56
    raw = [G.table for G in raw_groups() + order64_raw_groups()]
    loops = loop_sample()
    verdicts = {True: 0, False: 0}
    for rows in squares + loops + raw:
        failure = _associativity_failure(rows, 0)
        associative = brute_force_associative(rows)
        assert (failure is None) == associative, rows
        if failure is not None:
            x, a, y = failure
            assert rows[rows[x][a]][y] != rows[x][rows[a][y]]
        verdicts[associative] += 1
    # both verdicts occur among the loops of each order
    for n in (6, 8):
        assert {brute_force_associative(r) for r in loops if len(r) == n} == {True, False}
    assert verdicts[True] >= len(raw) and verdicts[False] > 100
