"""Shared test fixtures: the supported-group roster, raw-table groups for the
modular route, verified totally real base polynomials, and the random
descriptor generator used by the property suites."""

from __future__ import annotations

import itertools
from functools import lru_cache

from gkcert import (
    ExtensionDescriptor,
    PrimeRecord,
    abelian_group,
    dihedral_group,
    group_from_table,
    make_field,
    from_vector,
    quaternion_group,
)

# verified totally real polynomials by degree (vectors, constant first)
TOTALLY_REAL_VECTORS = {
    1: [0],
    2: [-2, 0],
    3: [1, -2, -1],  # maximal real subfield of the 7th cyclotomic field
    4: [7, 5, -6, -2],  # non-normal quartic (published example row)
    5: [1, 3, -3, -4, 1],  # maximal real subfield of the 11th cyclotomic field
    6: [-1, 3, 6, -4, -5, 1],  # maximal real subfield of the 13th cyclotomic field
}


@lru_cache(maxsize=None)
def totally_real_field(degree: int):
    F = make_field(from_vector(TOTALLY_REAL_VECTORS[degree]))
    assert F.is_totally_real
    return F


def invariant_chains(n, max_d=None):
    """Invariant-factor chains d1 | d2 | ... with product n (one per
    isomorphism type of abelian group of order n)."""
    if n == 1:
        yield []
        return
    for d in range(2, n + 1):
        if n % d == 0 and (max_d is None or max_d % d == 0):
            for rest in invariant_chains(n // d, d):
                yield rest + [d]


def permutation_group(n, even_only=False):
    def sgn(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    perms = [p for p in itertools.permutations(range(n)) if not even_only or sgn(p) == 1]
    perms.sort(key=lambda p: p != tuple(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def comp(p, q):
        return tuple(p[q[i]] for i in range(n))

    return group_from_table([[index[comp(a, b)] for b in perms] for a in perms])


def dicyclic12_group():
    """Dic3 = <a, b | a^6 = 1, b^2 = a^3, b a b^-1 = a^-1>, order 12;
    elements are b^j a^i with i < 6, j < 2, index 6j + i."""

    def mul(x, y):
        ix, jx = x % 6, x // 6
        iy, jy = y % 6, y // 6
        # (b^jx a^ix)(b^jy a^iy) = b^(jx+jy) a^(iy + (-1)^jy ix + 3*[jx*jy])
        i = (iy + (ix if jy == 0 else -ix) + (3 if jx and jy else 0)) % 6
        return (jx + jy) % 2 * 6 + i

    return group_from_table([[mul(a, b) for b in range(12)] for a in range(12)])


def sl23_group():
    """SL(2, 3) of order 24 as a raw table (a Burnside-Dixon stress case)."""
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        mats.append((a, b, c, d))
    mats.sort(key=lambda m: m != (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    return group_from_table([[index[mul(x, y)] for y in mats] for x in mats])


@lru_cache(maxsize=None)
def raw_groups():
    return (
        permutation_group(3),  # S3
        permutation_group(4, even_only=True),  # A4
        dicyclic12_group(),
        group_from_table(dihedral_group(4).table),
        sl23_group(),
        group_from_table(abelian_group([6]).table),
    )


def direct_product(A, B):
    """A x B as a raw table; element a * |B| + b is the pair (a, b)."""
    n = B.order
    return group_from_table(
        [[A.op(x // n, y // n) * n + B.op(x % n, y % n) for y in range(A.order * n)]
         for x in range(A.order * n)]
    )


@lru_cache(maxsize=None)
def order64_raw_groups():
    """(Z/2)^6 and Q8 x (Z/2)^3 as raw tables: the largest lattices and
    Burnside-Dixon tables in scope."""
    return (
        group_from_table(abelian_group([2] * 6).table),
        direct_product(quaternion_group(), abelian_group([2, 2, 2])),
    )


@lru_cache(maxsize=None)
def supported_groups(bound: int = 24):
    """Every supported group of order <= bound: all abelian isomorphism
    types, the dihedral family, Q8, and the raw-table roster."""
    groups = []
    for n in range(1, bound + 1):
        for chain in invariant_chains(n):
            groups.append(abelian_group(chain if chain else [1]))
    for n in range(2, bound // 2 + 1):
        groups.append(dihedral_group(n))
    if bound >= 8:
        groups.append(quaternion_group())
    groups.extend(g for g in raw_groups() if g.order <= bound)
    return tuple(groups)


@lru_cache(maxsize=None)
def _subgroups_of(group_key, group):
    return tuple(group.all_subgroups())


def groups_with_central_involution(bound: int = 24):
    out = []
    for G in supported_groups(bound):
        for tau in filter(G.is_central_involution, range(G.order)):
            out.append((G, tau))
    return out


def random_descriptor(rng, bound: int = 24):
    """Random valid (descriptor, odd-capable) instance for property tests."""
    pool = groups_with_central_involution(bound)
    G, tau = pool[rng.randrange(len(pool))]
    subgroups = _subgroups_of(id(G), G)
    # pick local degrees (e, f) whose products fit an available base degree
    while True:
        t = rng.randint(1, 3)
        efs = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(t)]
        degree = sum(e * f for e, f in efs)
        if degree in TOTALLY_REAL_VECTORS:
            break
    primes = tuple(
        PrimeRecord(
            label=f"v{i+1}",
            e_base=e,
            f_base=f,
            decomposition=subgroups[rng.randrange(len(subgroups))],
        )
        for i, (e, f) in enumerate(efs)
    )
    p = rng.choice([3, 5, 7, 11, 13])
    return ExtensionDescriptor(
        base=totally_real_field(degree),
        group=G,
        tau=tau,
        p=p,
        primes=primes,
        label=f"random-{G.spec[0]}-{G.order}",
    )
