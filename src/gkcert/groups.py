"""Finite groups as explicit multiplication tables.

Elements are the indices 0..|G|-1 with the identity at index 0 for the
built-in families; ``table[a][b]`` is the product a*b.  Builders:

* ``abelian_group([d1, ..., dk])`` -- product of cyclic groups; element
  index is mixed-radix over the invariants, first coordinate fastest.
* ``dihedral_group(n)`` -- order 2n; indices 0..n-1 are the rotations a^i,
  indices n..2n-1 are the reflections b*a^(i-n).
* ``quaternion_group()`` -- Q8 with element order 1, -1, i, -i, j, -j, k, -k.
* ``group_from_table(rows)`` -- arbitrary table, fully validated
  (associativity included, by Light's test on a greedy generating set).

Conjugacy classes are computed eagerly and ordered by smallest member, but
with the identity's class first, wherever the identity sits, so the
identity class is always class 0.  ``abelian_group`` (per normalized
invariants), ``dihedral_group(n)`` and ``quaternion_group()`` build each
group once per process and return that shared instance.  A group object has
one memo, filled through ``FiniteGroup.verdict``: its character table and
each verdict the rules read from G and tau alone are computed once and kept
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from math import lcm, prod
from operator import itemgetter

from .errors import (
    InvalidTable,
    InvariantViolation,
    NotASubgroup,
    SchemaViolation,
    TauNotCentralInvolution,
)
from .schema import Node

# Largest order of a group that ``build_group`` builds from a descriptor, and
# the one bound on group order: it guards the table's validation, the
# character table and the subgroup lattice walk.  A table's checks take |G|^2
# steps per generator tried (up to |G|^3 for a table that is no group), so the
# order is read from the spec and checked before anything is built.
MAX_INGESTED_ORDER = 128


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    # how the group was written, for its document: ("abelian", invariants) |
    # ("dihedral", n) | ("quaternion8",) | ("table",); no rule reads it
    spec: tuple
    _orders: tuple[int, ...] = field(repr=False, default=())
    # results that depend only on this group object and the key, filled by
    # ``verdict``; keys are tuples that start with the name of the result
    _verdicts: dict = field(repr=False, compare=False, init=False, default_factory=dict)

    def verdict(self, key: tuple, compute):
        """The result stored on this group object under ``key``, computed by
        ``compute()`` on the first request.  A ``compute`` that raises stores
        nothing, so its checks run again on the next request.  Entries live
        exactly as long as the object: two equal groups share none.  The keys
        in use are ("table",) in characters.character_table, ("odd", tau) in
        characters.odd_rows, ("klingen", tau) in rules.klingen_criterion, and
        ("undecomposed", tau, set of G_w) in rules._undecomposed_subfield."""
        verdicts = self._verdicts
        if key not in verdicts:
            verdicts[key] = compute()
        return verdicts[key]

    # -- basic operations --

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        result = self.identity
        while k:
            if k & 1:
                result = self.table[result][a]
            a = self.table[a][a]
            k >>= 1
        return result

    def exponent(self) -> int:
        return lcm(*self._orders) if self.order else 1

    def conjugate(self, g: int, x: int) -> int:
        """x g x^-1."""
        return self.table[self.table[x][g]][self.inverse[x]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.table[self.table[self.table[a][b]][self.inverse[a]]][self.inverse[b]]

    @property
    def is_abelian(self) -> bool:
        return len(self.classes) == self.order  # every class a singleton

    def is_central_involution(self, t: int) -> bool:
        if not 0 <= t < self.order:
            return False
        if t == self.identity or self.table[t][t] != self.identity:
            return False
        return len(self.classes[self.class_of[t]]) == 1  # central: its class is {t}

    def require_central_involution(self, t: int) -> int:
        if not self.is_central_involution(t):
            raise TauNotCentralInvolution(f"element {t} is not a central involution")
        return t

    def dihedral_n(self) -> int | None:
        """n when G is dihedral of order 2n (n >= 2, so V4 is D_2), read
        from the table alone; None otherwise.

        The test: some a has order n and every element outside <a> is an
        involution.  Then <a> has index 2, and for b outside <a> so is ab,
        so b^2 = (ab)^2 = 1 gives b a b = a^-1: G = <a, b> is D_n.
        Conversely in D_n an element of order n > 2 is a rotation, and in
        V4 any a != 1 will do, so the first a of order n decides."""
        orders = self._orders
        n, odd = divmod(self.order, 2)
        if odd or n < 2 or n not in orders:
            return None
        rotations = self.subgroup_generated_by([orders.index(n)])
        return n if all(orders[g] == 2 for g in range(self.order) if g not in rotations) else None

    # -- subgroups --

    def is_subgroup(self, elements) -> bool:
        s = set(elements)
        if not s or self.identity not in s or not s <= set(range(self.order)):
            return False
        return all(self.table[a][self.inverse[b]] in s for a in s for b in s)

    def require_subgroup(self, elements) -> frozenset[int]:
        s = frozenset(elements)
        if not self.is_subgroup(s):
            raise NotASubgroup(f"{sorted(elements)} is not a subgroup")
        return s

    def subgroup_generated_by(self, gens) -> frozenset[int]:
        # in a finite group g^-1 is a power of g, so closing under right
        # multiplication by the generators alone gives the subgroup
        s = {self.identity}
        frontier = list(s)
        gens = list(gens)
        while frontier:
            row = self.table[frontier.pop()]
            for g in gens:
                y = row[g]
                if y not in s:
                    s.add(y)
                    frontier.append(y)
        return frozenset(s)

    def all_subgroups(self, inside=None) -> list[frozenset[int]]:
        """Every subgroup of ``inside`` (of G when None), sorted by (size,
        sorted elements); ``inside`` must be a subgroup (NotASubgroup).

        Each new subgroup is closed from the generator tuple of the subgroup
        it grew from plus one element of ``inside``.  Groups are of order at
        most MAX_INGESTED_ORDER; the lattice of (Z/2)^7, at that bound, has
        about 29 000 subgroups and takes seconds to walk."""
        pool = range(self.order) if inside is None else sorted(self.require_subgroup(inside))
        trivial = frozenset([self.identity])
        gens = {trivial: ()}
        frontier = [trivial]
        while frontier:
            h = frontier.pop()
            tried = set(h)  # <h, g> depends only on the coset g h
            for g in pool:
                if g in tried:
                    continue
                tried.update(self.table[g][x] for x in h)
                grown = gens[h] + (g,)
                bigger = self.subgroup_generated_by(grown)
                if bigger not in gens:
                    gens[bigger] = grown
                    frontier.append(bigger)
        return sorted(gens, key=lambda s: (len(s), sorted(s)))

    def normal_core(self, elements) -> frozenset[int]:
        """Intersection of all conjugates of the subgroup."""
        h = self.require_subgroup(elements)
        core = set(h)
        for x in range(self.order):
            core &= {self.conjugate(g, x) for g in h}
        return frozenset(core)

    def quotient_is_abelian(self, normal) -> bool:
        n = frozenset(normal)
        return all(
            self.commutator(a, b) in n for a in range(self.order) for b in range(a)
        )


def _associativity_failure(rows, identity):
    """A triple (x, a, y) with (x a) y != x (a y), or None when ``rows`` is
    associative; ``identity`` must be a two-sided identity of the table.

    Light's test on a generating set S grown greedily: the elements a with
    (x a) y = x (a y) for all x, y contain the identity and are closed under
    the product (for such a and b, (x ab) y = ((x a) b) y = (x a)(b y) =
    x (a (b y)) = x ((a b) y)), so checking a in S suffices -- n^2 |S| steps
    instead of n^3."""
    n = len(rows)
    reached = {identity}
    generators = []
    for g in range(n):
        if g in reached:
            continue
        # every product of generators, bracketed from the left, is reached
        generators.append(g)
        frontier = list(reached)
        while frontier:
            row = rows[frontier.pop()]
            for s in generators:
                y = row[s]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    for a in generators:
        # (x a) y = x (a y) for every y: row x a equals row x read through row a
        through_a = itemgetter(*rows[a])
        for x, row in enumerate(rows):
            if rows[row[a]] != through_a(row):
                y = next(y for y in range(n) if rows[row[a]][y] != row[rows[a][y]])
                return (x, a, y)
    return None


def _validate_and_build(table, spec) -> FiniteGroup:
    n = len(table)
    if n == 0:
        raise InvalidTable("empty table")
    rows = tuple(tuple(r) for r in table)
    for r in rows:
        if len(r) != n or not (all(map(isinstance, r, repeat(int))) and 0 <= min(r) and max(r) < n):
            raise InvalidTable("table is not a square array over 0..n-1")
    # identity
    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise InvalidTable("no identity element")
    # inverses (also forces each row/column to be a permutation)
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if rows[a][b] == identity and rows[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise InvalidTable(f"element {a} has no inverse")
    failure = _associativity_failure(rows, identity)
    if failure is not None:
        raise InvalidTable(f"associativity fails at {failure}")
    # conjugacy classes
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = sorted({rows[rows[x][g]][inverse[x]] for x in range(n)})
        for h in orbit:
            seen[h] = True
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: (c[0] != identity, c[0]))
    class_of = [0] * n
    for i, c in enumerate(classes):
        for g in c:
            class_of[g] = i
    # element orders
    orders = []
    for g in range(n):
        k, x = 1, g
        while x != identity:
            x = rows[x][g]
            k += 1
        orders.append(k)
    return FiniteGroup(
        order=n,
        table=rows,
        identity=identity,
        inverse=tuple(inverse),
        classes=tuple(classes),
        class_of=tuple(class_of),
        spec=spec,
        _orders=tuple(orders),
    )


def abelian_group(invariants) -> FiniteGroup:
    """Z/d1 x ... x Z/dk, the invariants with every 1 dropped; one shared
    instance per such tuple."""
    invs = [int(d) for d in invariants]
    if any(d < 1 for d in invs):
        raise InvalidTable("cyclic orders must be >= 1")
    return _abelian_group(tuple(d for d in invs if d > 1) or (1,))


@cache
def _abelian_group(invs: tuple[int, ...]) -> FiniteGroup:
    n = prod(invs)

    def decode(i):
        out = []
        for d in invs:
            out.append(i % d)
            i //= d
        return out

    def encode(v):
        i, mult = 0, 1
        for x, d in zip(v, invs):
            i += (x % d) * mult
            mult *= d
        return i

    table = [
        [encode([x + y for x, y in zip(decode(a), decode(b))]) for b in range(n)]
        for a in range(n)
    ]
    return _validate_and_build(table, ("abelian", invs))


@cache
def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: rotations a^i at 0..n-1, reflections b a^(i-n) at n..2n-1."""
    if n < 2:
        raise InvalidTable("dihedral parameter must be >= 2")

    def mul(x, y):
        rx, sx = x % n, x >= n
        ry, sy = y % n, y >= n
        # (b^sx a^rx)(b^sy a^ry) = b^(sx+sy) a^((-1)^sy rx + ry)
        r = (ry + (rx if not sy else -rx)) % n
        return r + (n if sx != sy else 0)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return _validate_and_build(table, ("dihedral", n))


@cache
def quaternion_group() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k at indices 0..7."""
    # encode +-e as (unit index 0..3, sign); units 1, i, j, k
    def enc(u, s):
        return 2 * u + (0 if s == 1 else 1)

    def dec(x):
        return x // 2, 1 - 2 * (x % 2)

    qtab = {  # (u, v) -> (unit, sign) for units i, j, k
        (0, 0): (0, 1),
        (0, 1): (1, 1), (1, 0): (1, 1),
        (0, 2): (2, 1), (2, 0): (2, 1),
        (0, 3): (3, 1), (3, 0): (3, 1),
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, 1), (2, 1): (3, -1),
        (2, 3): (1, 1), (3, 2): (1, -1),
        (3, 1): (2, 1), (1, 3): (2, -1),
    }

    def mul(x, y):
        ux, sx = dec(x)
        uy, sy = dec(y)
        u, s = qtab[(ux, uy)]
        return enc(u, s * sx * sy)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return _validate_and_build(table, ("quaternion8",))


def group_from_table(rows) -> FiniteGroup:
    return _validate_and_build(rows, ("table",))


def _require_ingestable(order: int) -> None:
    if order > MAX_INGESTED_ORDER:
        raise InvariantViolation("group", f"order {order} exceeds the bound {MAX_INGESTED_ORDER}")


def build_group(spec: Node) -> FiniteGroup:
    """The group a descriptor's group spec names: {"kind": k, "data": d} with k one
    of "abelian" (d = [d1..dk]), "dihedral" (d = n), "quaternion8" (no d) or "table"
    (d = rows).  An unknown kind or a missing or mistyped d raises SchemaViolation;
    an order above MAX_INGESTED_ORDER, read from d before anything is built,
    raises InvariantViolation("group")."""
    kind = spec["kind"].string()
    if kind == "quaternion8":
        return quaternion_group()
    if kind == "abelian":
        invariants = spec["data"].integers()
        _require_ingestable(prod(invariants))
        return abelian_group(invariants)
    if kind == "dihedral":
        n = spec["data"].integer()
        _require_ingestable(2 * n)
        return dihedral_group(n)
    if kind == "table":
        rows = spec["data"].items()
        _require_ingestable(len(rows))
        return group_from_table([row.integers() for row in rows])
    raise SchemaViolation(f"{spec['kind'].path}: unknown group kind {kind!r}")


def subgroup_embedding(G: FiniteGroup, elements) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Materialize a subgroup as a FiniteGroup plus the element embedding.

    Returns (H, emb) with emb[i] the G-element of H's element i; H's identity
    is index 0.
    """
    s = G.require_subgroup(elements)
    emb = sorted(s, key=lambda g: (g != G.identity, g))
    index_of = {g: i for i, g in enumerate(emb)}
    table = [[index_of[G.op(a, b)] for b in emb] for a in emb]
    return group_from_table(table), tuple(emb)
