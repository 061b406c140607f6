import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from operator import is_

import pytest

import gkcert.characters as characters
from gkcert.characters import (
    _evaluation,
    _pack,
    character_table,
    fixed_dim,
    odd_rows,
    verify_character_table,
)
from gkcert.cyclotomic import conjugate, cyclotomic_poly, from_exponents, power_height
from gkcert.errors import (
    InternalCheckError,
    NotASubgroup,
    TauNotCentralInvolution,
)
from gkcert.groups import (
    MAX_INGESTED_ORDER,
    abelian_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
)
from helpers import (
    closed_form_table,
    contragredient,
    cyclotomic_product,
    dicyclic12_group,
    direct_product,
    inner_product,
    order64_raw_groups,
    permutation_character,
    permutation_group,
    sl23_group,
    supported_groups,
)


def test_c2_table():
    table = character_table(abelian_group([2]))
    assert sorted(ch.values for ch in table) == [((1,), (-1,)), ((1,), (1,))]


def test_q8_table_and_parity():
    q8 = quaternion_group()
    table = character_table(q8)
    assert [ch.degree for ch in table] == [1, 1, 1, 1, 2]
    two = table[-1]
    assert two.value_at(1) == (-2, 0)  # the central involution column, in Z[i]
    assert odd_rows(q8, 1) == (4,)  # the four linear rows are even
    verify_character_table(table)


def test_d6_table():
    d6 = dihedral_group(6)
    table = character_table(d6)
    assert sorted(ch.degree for ch in table) == [1, 1, 1, 1, 2, 2]
    assert sum(ch.degree**2 for ch in table) == 12
    verify_character_table(table)
    # odd 2-dim character: chi(a) = zeta_6 + zeta_6^-1 = 1, chi(a^3) = -2
    odd2 = [table[i] for i in odd_rows(d6, 3) if table[i].degree == 2]
    assert len(odd2) == 1
    assert odd2[0].value_at(1) == (1, 0) and odd2[0].value_at(3) == (-2, 0)


def test_every_value_is_a_tuple_of_phi_e_ints():
    # phi(e) = deg Phi_e, read off the polynomial, not off the library's rows
    for G in supported_groups(64):
        phi = cyclotomic_poly(G.exponent()).degree
        for chi in character_table(G):
            assert type(chi.values) is tuple and len(chi.values) == len(G.classes)
            for v in chi.values:
                assert type(v) is tuple and len(v) == phi, (G.spec, v)
                assert all(type(c) is int for c in v), (G.spec, v)


def test_parity_requires_central_involution():
    # checked on every call, also once the verdict for the central a^3 is stored
    d6 = dihedral_group(6)
    odd_rows(d6, 3)
    for tau in (6, 6, 1, 12, -1):  # a reflection, a rotation, two non-elements
        with pytest.raises(TauNotCentralInvolution):
            odd_rows(d6, tau)
    assert ("odd", 6) not in d6._verdicts


def test_deterministic_row_order():
    g1 = group_from_table(dihedral_group(4).table)
    t1 = character_table(g1)
    t2 = character_table(group_from_table(dihedral_group(4).table))
    assert [ch.values for ch in t1] == [ch.values for ch in t2]
    assert [ch.degree for ch in t1] == [1, 1, 1, 1, 2]


def sorted_rows(table):
    """The rows as (degree, values), sorted as character_table sorts them."""
    return sorted((ch.degree, ch.values) for ch in table)


def test_dixon_matches_closed_forms():
    # character_table builds every D_n of order <= 64 and Q8 by the general
    # route (D_n with n = 2 (mod 4) as D_(n/2) x C_2, the rest by Dixon), and
    # each table must match the textbook formulas
    closed = [dihedral_group(n) for n in range(2, 33)] + [quaternion_group()]
    for G in closed:
        assert sorted_rows(character_table(G)) == sorted_rows(closed_form_table(G)), G.spec
    # so must Dixon on a raw copy of each of them and of every abelian group
    # of order <= 24, called directly since character_table takes the
    # structural way there
    for G in closed + [G for G in supported_groups(24) if G.spec[0] == "abelian"]:
        raw = group_from_table(G.table)
        assert raw.classes == G.classes
        table = characters._dixon_table(raw)
        verify_character_table(table)
        assert sorted_rows(table) == sorted_rows(character_table(G)), G.spec


def relabelled(G, rng):
    """A raw copy of G under a random relabelling of its elements that keeps
    the identity at 0."""
    labels = [0] + rng.sample(range(1, G.order), G.order - 1)
    rows = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            rows[labels[a]][labels[b]] = labels[G.op(a, b)]
    return group_from_table(rows)


def counting(monkeypatch, name="_dixon_table"):
    """The groups characters.<name> is called on, in order, from now on."""
    runs = []
    original = getattr(characters, name)

    def counted(G, *args):
        runs.append(G)
        return original(G, *args)

    monkeypatch.setattr(characters, name, counted)
    return runs


def test_structural_route_matches_dixon(monkeypatch):
    # the route character_table takes for a raw group against Dixon on the
    # same group, row for row after sorting; inside the route Dixon never
    # runs on an abelian group, and the bench-shaped groups reach it only on
    # their factor Q8 or D4
    rng = random.Random(21)
    Q8, D4 = quaternion_group(), dihedral_group(4)
    E3, C6 = abelian_group([2, 2, 2]), abelian_group([6])
    bench_shaped = [direct_product(A, B) for A in (Q8, D4) for B in (E3, C6)]
    bench_shaped.append(group_from_table(abelian_group([2] * 6).table))
    products = [
        direct_product(dihedral_group(n), abelian_group([m]))
        for n, m in ((3, 2), (3, 4), (4, 3), (5, 6), (6, 5), (7, 4), (8, 4), (10, 3), (15, 2), (16, 2))
    ]
    specd_copies = [group_from_table(G.table) for G in supported_groups(24) if G.spec[0] != "table"]
    cases = [(relabelled(G, rng), [] if G.is_abelian else [8]) for G in bench_shaped]
    cases += [(G, None) for G in products + specd_copies]
    for G, dixon_orders in cases:
        dixon = characters._dixon_table(G)
        runs = counting(monkeypatch)
        table = character_table(G)
        monkeypatch.undo()
        assert sorted_rows(table) == sorted_rows(dixon), (G.order, G.exponent())
        assert not any(H.is_abelian for H in runs)
        if dixon_orders is not None:
            assert [H.order for H in runs] == dixon_orders


def test_indecomposable_groups_reach_dixon(monkeypatch):
    # no central cyclic subgroup splits off these, so Dixon builds
    # each table, once, on the group itself
    groups = [
        group_from_table(quaternion_group().table),
        group_from_table(dihedral_group(4).table),
        sl23_group(),
        dicyclic12_group(),
        permutation_group(4, even_only=True),
    ]
    runs = counting(monkeypatch)
    for G in groups:
        verify_character_table(character_table(G))
    assert len(runs) == len(groups) and all(map(is_, runs, groups))


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


def test_order_128_dihedral_tables_match_closed_forms():
    # D62 by the tensor route (D31 x C2) and D64 by Dixon, at the ingestion bound
    for n in (62, 64):
        G = dihedral_group(n)
        assert G.order == 2 * n <= MAX_INGESTED_ORDER
        assert sorted_rows(character_table(G)) == sorted_rows(closed_form_table(G)), G.spec


def test_fixed_dim_examples():
    d6 = dihedral_group(6)
    table = character_table(d6)
    for ch in table:
        assert fixed_dim(ch, {0}) == ch.degree
        trivial = all(v == (1, 0) for v in ch.values)
        assert fixed_dim(ch, range(12)) == (1 if trivial else 0)
    odd2 = [table[i] for i in odd_rows(d6, 3) if table[i].degree == 2][0]
    assert fixed_dim(odd2, {0, 6}) == fixed_dim(odd2, [6, 0]) == 1  # (2 + 0)/2
    for _ in range(2):  # H is checked on every call
        with pytest.raises(NotASubgroup):
            fixed_dim(odd2, {0, 1})
    # a copy that is not a row of the stored table gives the same results
    copy = replace(odd2)
    assert copy is not odd2 and copy == odd2
    assert fixed_dim(copy, {0, 6}) == fixed_dim(copy, {0, 6}) == 1


def test_induction_examples():
    c2 = abelian_group([2])
    ind = permutation_character(c2, {0})
    assert ind.value_at(0) == (2,) and ind.value_at(1) == (0,)
    d6 = dihedral_group(6)
    ind_b = permutation_character(d6, {0, 6})
    assert ind_b.value_at(0) == (6, 0)  # [D6 : <b>]


def test_frobenius_reciprocity_oracle():
    rng = random.Random(77)
    pool = [g for g in supported_groups(24) if g.order <= 24]
    checked = 0
    while checked < 100:
        G = pool[rng.randrange(len(pool))]
        subs = G.all_subgroups()
        H_set = subs[rng.randrange(len(subs))]
        ind = permutation_character(G, H_set)
        for chi in character_table(G):
            assert inner_product(ind, chi) == fixed_dim(chi, H_set)  # rational, else ValueError
        checked += 1


def test_contragredient():
    z = character_table(abelian_group([5]))
    chi = next(ch for ch in z if ch.values[1] == from_exponents(5, {1: 1}))
    assert contragredient(chi).values[1] == from_exponents(5, {4: 1})


def test_builtin_groups_built_once():
    assert quaternion_group() is quaternion_group()
    assert dihedral_group(6) is dihedral_group(6)
    assert character_table(quaternion_group())[0].group is quaternion_group()


def test_character_table_computed_once_per_group(monkeypatch):
    # raw D4 goes to Dixon; raw D4 x C6 splits off its central C6 in one
    # tensor step and sends the D4 factor to Dixon; raw (Z/2)^3 takes the
    # dual group; each route runs once per group object
    runs = {
        name: counting(monkeypatch, name)
        for name in ("_dixon_table", "_tensor_with_cyclic", "_dual_group_table")
    }
    for rows, route in (
        (dihedral_group(4).table, "_dixon_table"),
        (direct_product(dihedral_group(4), abelian_group([6])).table, "_tensor_with_cyclic"),
        (abelian_group([2, 2, 2]).table, "_dual_group_table"),
    ):
        for found in runs.values():
            found.clear()
        G = group_from_table(rows)
        first = character_table(G)
        second = character_table(G)
        assert runs[route] == [G]
        assert second == first and all(a is b for a, b in zip(first, second))
        assert all(ch.group is G for ch in second)
        # an equal group built separately gets its own table, bound to itself
        H = group_from_table(rows)
        assert H == G and H is not G
        assert all(ch.group is H for ch in character_table(H))
        assert len(runs[route]) == 2 and runs[route][1] is H
        assert sum(map(len, runs.values())) == (4 if route == "_tensor_with_cyclic" else 2)


def moved_identity(G, at, rng):
    """A raw copy of G under a random relabelling that sends its identity to
    ``at``, with the labels: the copy's element label[g] is G's g."""
    others = [x for x in range(G.order) if x != at]
    rng.shuffle(others)
    label = [at] + others
    rows = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            rows[label[a]][label[b]] = label[G.op(a, b)]
    return group_from_table(rows), label


def test_tables_of_groups_whose_identity_is_not_element_0():
    # the identity's class is class 0 wherever the identity sits, so each
    # relabelled copy's table, read through the relabelling, is G's table
    rng = random.Random(22)
    for G in (dihedral_group(4), abelian_group([2, 2]), quaternion_group(), dihedral_group(5)):
        want = sorted_rows(character_table(G))
        for at in (1, G.order - 1):
            H, label = moved_identity(G, at, rng)
            assert H.identity == at and H.classes[0] == (at,)
            assert list(H.classes[1:]) == sorted(H.classes[1:])
            pulled = [
                (ch.degree, tuple(ch.value_at(label[cls[0]]) for cls in G.classes))
                for ch in character_table(H)
            ]
            assert sorted(pulled) == want, (G.spec, at)


def coordinate_sum(values):
    """The coordinates of the sum of the given elements of Z[zeta_e]."""
    return tuple(map(sum, zip(*values)))


def coordinates(table):
    """Per row and class, the coordinates of the value and of its conjugate."""
    e = table[0].group.exponent()
    return [list(ch.values) for ch in table], [[conjugate(e, v) for v in ch.values] for ch in table]


def test_column_relations_hold_on_every_table():
    # verify_character_table checks the rows alone; for a square table the
    # column relations sum_chi chi(C_i) conj(chi(C_j)) = |C_G(g_i)| delta_ij
    # follow, and this oracle checks them by convolving coordinates
    for G in supported_groups(24) + order64_raw_groups():
        table = character_table(G)
        e = G.exponent()
        columns = list(zip(*(ch.values for ch in table)))
        conjugates = [[conjugate(e, v) for v in column] for column in columns]
        for i, column in enumerate(columns):
            centralizer = G.order // len(G.classes[i])
            for j in range(i + 1):
                total = coordinate_sum(map(cyclotomic_product, [e] * len(column), column, conjugates[j]))
                assert total == from_exponents(e, {0: centralizer if i == j else 0}), (G.spec, i, j)


def sampled_pairs(r, rng, limit=40):
    pairs = [(i, j) for i in range(r) for j in range(i + 1)]
    return pairs if len(pairs) <= limit else rng.sample(pairs, limit)


def max_norm(coordinates):
    return max(sum(map(abs, x)) for row in coordinates for x in row)


def packed_row_sum_is(e, sizes, xs, ys, target):
    """Whether sum_C |C| x_C y_C is ``target`` in Z[zeta_e], by the packed
    test of verify_character_table: the integer dot product of the packed
    coordinates minus the packed target is divisible by N, at the width and
    N that _evaluation gives for the bound the library uses."""
    norm = max_norm([xs, ys])
    bound = sum(sizes) * norm * norm * power_height(e) + max(map(abs, target))
    width, modulus = _evaluation(e, bound)
    dot = sum(s * _pack(x, width) * _pack(y, width) for s, x, y in zip(sizes, xs, ys))
    return (dot - _pack(target, width)) % modulus == 0


def nudged(rng, value):
    """``value`` plus a random nonzero element with coordinates in {-1, 0, 1}."""
    while True:
        step = [rng.randint(-1, 1) for _ in value]
        if any(step):
            return tuple(map(sum, zip(value, step)))


def test_evaluation_is_one_to_one_within_its_bound():
    # every element with coordinates at most the bound, zero alone going to
    # 0 mod N; the width is the least _evaluation's argument allows
    for e, bound in ((1, 40), (2, 40), (3, 6), (4, 6), (5, 2), (7, 1), (8, 1), (12, 3), (15, 1)):
        phi = cyclotomic_poly(e).degree
        width, modulus = _evaluation(e, bound)
        assert modulus == _pack(cyclotomic_poly(e).coeffs, width)
        assert 2 ** (width - 1) <= bound + max(map(abs, cyclotomic_poly(e).coeffs)) < 2**width
        for x in product(range(-bound, bound + 1), repeat=phi):
            assert (_pack(x, width) % modulus == 0) == (not any(x)), (e, x)
        # the map is a ring map: zeta^e = 1
        zeta = _pack(from_exponents(e, {1: 1}), width)
        assert (pow(zeta, e, modulus) - 1) % modulus == 0


def test_packed_dot_matches_cycnumber_oracle():
    # random signed coordinates: the sum of their products by convolution
    # stays within the bound the library uses, and the packed test accepts
    # it and refuses it nudged by a small nonzero element
    rng = random.Random(12)
    for e in (1, 2, 3, 4, 5, 8, 12, 15, 24, 60, 105):
        phi = cyclotomic_poly(e).degree
        for _ in range(20):
            terms = rng.randint(1, 6)
            xs = [[rng.randint(-9, 9) for _ in range(phi)] for _ in range(terms)]
            ys = [[rng.randint(-9, 9) for _ in range(phi)] for _ in range(terms)]
            exact = coordinate_sum(cyclotomic_product(e, x, y) for x, y in zip(xs, ys))
            norms = sum(sum(map(abs, x)) * sum(map(abs, y)) for x, y in zip(xs, ys))
            assert max(map(abs, exact)) <= norms * power_height(e)
            sizes = [1] * terms
            assert packed_row_sum_is(e, sizes, xs, ys, exact)
            assert not packed_row_sum_is(e, sizes, xs, ys, nudged(rng, exact))


def test_integer_orthogonality_sums_match_cycnumber_oracle():
    # against the inner product by convolution, which is slow, so large
    # tables check a seeded sample of their pairs
    rng = random.Random(64)
    for G in supported_groups(24) + order64_raw_groups():
        table = character_table(G)
        e, n, r = G.exponent(), G.order, len(G.classes)
        sizes = [len(c) for c in G.classes]
        values, conjugates = coordinates(table)
        for i, j in sampled_pairs(r, rng):
            want = from_exponents(e, {0: int(inner_product(table[i], table[j]) * n)})
            assert packed_row_sum_is(e, sizes, values[i], conjugates[j], want)
            assert not packed_row_sum_is(e, sizes, values[i], conjugates[j], nudged(rng, want))


def test_integer_row_sums_match_on_products_of_characters():
    # products of irreducibles have nontrivial multiplicities <chi psi, phi>
    rng = random.Random(32)
    for G in (sl23_group(), dicyclic12_group()):
        table = character_table(G)
        e, n = G.exponent(), G.order
        sizes = [len(c) for c in G.classes]
        products = [
            replace(
                a,
                values=tuple(cyclotomic_product(e, x, y) for x, y in zip(a.values, b.values)),
                degree=a.degree * b.degree,
            )
            for a in table
            for b in table
        ]
        values, _ = coordinates(products)
        _, conjugates = coordinates(table)
        for prod, vals in zip(products, values):
            for chi, conj in zip(table, conjugates):
                want = from_exponents(e, {0: int(inner_product(prod, chi) * n)})
                assert packed_row_sum_is(e, sizes, vals, conj, want)
                assert not packed_row_sum_is(e, sizes, vals, conj, nudged(rng, want))


def _plus(value, c):
    """value + c for an integer c."""
    return (value[0] + c,) + value[1:]


def _with_value(rows, i, k, value):
    values = list(rows[i].values)
    values[k] = value
    return rows[:i] + [replace(rows[i], values=tuple(values))] + rows[i + 1:]


def corrupted_tables(table):
    """(name, table) pairs, each breaking a genuine table in one way."""
    rows = list(table)
    last = len(rows) - 1
    yield "value-changed", _with_value(rows, last, 1, _plus(rows[last].values[1], 1))
    yield "value-off-by-10^30", _with_value(rows, last, 1, _plus(rows[last].values[1], 10**30))
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
        if any(c % 2 for c in ch.values[k])
    )
    value = rows[i].values[k]
    yield "value-halved", _with_value(rows, i, k, tuple(Fraction(c, 2) for c in value))
    yield "value-lengthened", _with_value(rows, i, k, value + (0,))
    yield "value-as-list", _with_value(rows, i, k, list(value))
    yield "row-dropped", rows[:last]


REJECTION = {
    "value-changed": "row orthogonality",
    "value-off-by-10^30": "row orthogonality",
    "values-swapped": "row orthogonality",
    "value-halved": "not an algebraic integer",
    "value-lengthened": "coordinates",
    "value-as-list": "coordinates",
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


# per route of _raw_table, fresh groups whose table that route builds at the top
CORRUPTED_ROUTES = {
    "_dixon_table": lambda: (
        dihedral_group.__wrapped__(4),
        quaternion_group.__wrapped__(),
        dihedral_group.__wrapped__(5),
    ),
    "_tensor_with_cyclic": lambda: (
        direct_product(quaternion_group(), abelian_group([6])),
        direct_product(dihedral_group(4), abelian_group([2, 2, 2])),
        group_from_table(dihedral_group(6).table),
    ),
    "_dual_group_table": lambda: tuple(replace(abelian_group(d)) for d in ([2, 2], [6], [2, 4, 3])),
}


def _corrupted_route_tables(route):
    """character_table on the groups of CORRUPTED_ROUTES[route], whose top
    call of characters.<route> returns its table with one value changed:
    per group, the error class name and message start, or 'accepted', the
    table stored, and whether a later unpatched call builds a full table."""
    build = getattr(characters, route)
    out = []
    for G in CORRUPTED_ROUTES[route]():

        def corrupted(H, *args, G=G):
            rows = build(H, *args)
            if H is G:
                rows = _with_value(rows, len(rows) - 1, 1, _plus(rows[-1].values[1], 1))
            return rows

        setattr(characters, route, corrupted)
        try:
            character_table(G)
        except Exception as exc:
            outcome = (type(exc).__name__, str(exc).split(" at ")[0])
        else:
            outcome = ("accepted", "")
        finally:
            setattr(characters, route, build)
        stored = G._verdicts.get(("table",))
        out.append((*outcome, stored, len(character_table(G)) == len(G.classes)))
    return out


def _check_corrupted_route_is_rejected_also_under_optimize(route):
    want = [("InternalCheckError", "row orthogonality fails", None, True)] * 3
    assert _corrupted_route_tables(route) == want
    here = os.path.dirname(os.path.abspath(__file__))
    script = f"from test_characters import _corrupted_route_tables\nprint(_corrupted_route_tables({route!r}))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(want)


def test_corrupted_structural_table_is_rejected_also_under_optimize():
    _check_corrupted_route_is_rejected_also_under_optimize("_tensor_with_cyclic")


def test_corrupted_dixon_table_of_a_specd_dihedral_group_or_q8_is_rejected_also_under_optimize():
    # spec'd D_4, Q8 and D_5 take Dixon and its check, with no closed form
    _check_corrupted_route_is_rejected_also_under_optimize("_dixon_table")


def test_corrupted_dual_group_table_of_a_specd_abelian_group_is_rejected_also_under_optimize():
    # spec'd abelian groups take the dual-group route and its check too
    _check_corrupted_route_is_rejected_also_under_optimize("_dual_group_table")


def _parity_violators():
    """(group, row index, message word) for fresh copies of D4, built from
    its raw table, whose stored degree-2 row has the value 0, 1/2, the
    irrational i or 2 + i at tau = a^2 (coordinates in Z[i]): none is
    +-chi(1), and the word is what the refusal must say."""
    out = []
    for bad in ((0, 0), (Fraction(1, 2), 0), (0, 1), (2, 1)):
        G = group_from_table(dihedral_group(4).table)
        rows = character_table(G)
        i = next(k for k, ch in enumerate(rows) if ch.degree == 2)
        values = tuple(bad if k == G.class_of[2] else v for k, v in enumerate(rows[i].values))
        rows[i] = replace(rows[i], values=values)
        G._verdicts[("table",)] = tuple(rows)
        out.append((G, i, "irrational" if bad[1] else "neither"))
    return out


def test_parity_rejects_values_that_are_not_plus_or_minus_the_degree():
    for G, _, word in _parity_violators():
        for _ in range(2):  # read again on every call: a refusal stores nothing
            with pytest.raises(InternalCheckError, match=word):
                odd_rows(G, 2)
        assert list(G._verdicts) == [("table",)]


def test_parity_rejects_bad_values_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "from gkcert.characters import odd_rows\n"
        "from gkcert.errors import InternalCheckError\n"
        "from test_characters import _parity_violators\n"
        "for G, _, word in _parity_violators():\n"
        "    try:\n"
        "        odd_rows(G, 2)\n"
        "    except InternalCheckError as exc:\n"
        "        print('rejected', word in str(exc))\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["rejected True"] * 4, proc.stdout


def _corrupted_row_calls():
    """Calls on D4, built from its raw table, whose stored degree-2 row has
    the irrational value i at tau = a^2, made while the table is all that is
    stored on the group: (name, error class name or 'accepted') for each
    call, twice."""
    G, i, _ = _parity_violators()[2]
    row = character_table(G)[i]
    calls = [
        ("odd_rows", lambda: odd_rows(G, 2)),
        ("fixed_dim", lambda: fixed_dim(row, {0, 2})),
    ]
    out = []
    for name, call in calls * 2:
        try:
            call()
        except Exception as exc:
            out.append((name, type(exc).__name__))
        else:
            out.append((name, "accepted"))
    assert list(G._verdicts) == [("table",)]
    return out


def test_corrupted_row_raises_on_every_call_also_under_optimize():
    want = [("odd_rows", "InternalCheckError"), ("fixed_dim", "NonIntegralDimension")] * 2
    assert _corrupted_row_calls() == want
    here = os.path.dirname(os.path.abspath(__file__))
    script = "from test_characters import _corrupted_row_calls\nprint(_corrupted_row_calls())\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(want)
