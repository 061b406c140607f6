"""Shared test fixtures: the supported-group roster, raw-table groups for the
modular route, verified totally real base polynomials, the random descriptor
generator used by the property suites, and the oracles that production code
is checked against, from the closed-form tables of D_n and Q8 to Rabin's
irreducibility test, and the certificate store's loader as it was before
lines were checked on their own bytes."""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

from gkcert import (
    ExtensionDescriptor,
    IntPoly,
    NumberField,
    PrimeRecord,
    abelian_group,
    cyclotomic_poly,
    dihedral_group,
    group_from_table,
    make_field,
    from_vector,
    quaternion_group,
)
from gkcert.certificates import Certificate, Conclusion, Hypothesis, Status
from gkcert.characters import Character
from gkcert.cyclotomic import conjugate, from_exponents
from gkcert.errors import SchemaViolation
from gkcert.intpoly import count_real_roots, poly_discriminant
from gkcert.modpoly import X_P, barrett_mu, deg, gcd_p, mul, pow_mod, sub
from gkcert.numutil import factorint

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


def real_cyclotomic_poly(m):
    """Minimal polynomial of 2 cos(2 pi / m): Phi_m(X) = X^d g(X + 1/X), and
    X^k + X^-k = D_k(X + 1/X) for the Dickson polynomials D_k."""
    phi = cyclotomic_poly(m).coeffs
    d = len(phi) // 2
    y = IntPoly([0, 1])
    dickson = [IntPoly([2]), y]
    while len(dickson) <= d:
        dickson.append(y * dickson[-1] - dickson[-2])
    g = IntPoly([phi[d]])
    for k in range(1, d + 1):
        g = g + phi[d + k] * dickson[k]
    return g


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


def relabelled_table(table, perm):
    """The multiplication table with each element g renamed perm[g]."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


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


def closed_form_table(G):
    """The character table of a spec'd D_n or Q8 from the textbook formulas,
    unsorted, with values in Z[zeta_e], e = exponent(G): the oracle that
    character_table's general route is compared against.

    D_n (rotations a^k at k < n, reflections at n..2n-1): the trivial
    character and the sign of the reflections; for even n also a^k -> (-1)^k,
    with either sign on the reflections; and for 0 < h < n/2 the degree-2
    row chi_h(a^k) = zeta_n^(hk) + zeta_n^(-hk), which is 0 on reflections.
    Q8 (1, -1, +-i, +-j, +-k at 0, 1, 2..7): the four characters of
    Q8/{+-1} = C2 x C2, i and j going to the signs s and t and k to st, and
    the degree-2 row 2, -2, 0, 0, 0."""
    e = G.exponent()
    if G.spec[0] == "dihedral":
        n = G.spec[1]
        signs = [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else [])
        rows = [(1, lambda g, s=s, t=t: s ** (g % n) * (t if g >= n else 1)) for s, t in signs]
        step = e // n  # zeta_n = zeta_e^step
        rows += [
            (2, lambda g, h=h: 0 if g >= n else from_exponents(e, Counter((h * g * step, -h * g * step))))
            for h in range(1, (n + 1) // 2)
        ]
    elif G.spec[0] == "quaternion8":
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rows = [(1, lambda g, s=s, t=t: (1, s, t, s * t)[g // 2]) for s, t in signs]
        rows.append((2, lambda g: (2, -2)[g] if g < 2 else 0))
    else:
        raise ValueError(f"no closed form for {G.spec}")

    def value(at, g):
        v = at(g)
        return v if isinstance(v, tuple) else from_exponents(e, {0: v})

    return [
        Character(group=G, values=tuple(value(at, cls[0]) for cls in G.classes), degree=d)
        for d, at in rows
    ]


def contragredient(chi):
    """The complex-conjugate character."""
    e = chi.group.exponent()
    return Character(group=chi.group, values=tuple(conjugate(e, v) for v in chi.values), degree=chi.degree)


def cyclotomic_product(e, x, y):
    """The coordinates of x * y in Z[zeta_e], by convolution of the
    coordinates of x and y."""
    products = Counter()
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            products[i + j] += a * b
    return from_exponents(e, products)


def inner_product(a, b):
    """<a, b> = (1/|G|) sum |C| a(C) conj(b(C)), exact, as a Fraction;
    ValueError when it is irrational."""
    G = a.group
    e = G.exponent()
    total = Counter()
    for cls, va, vb in zip(G.classes, a.values, b.values):
        for k, c in enumerate(cyclotomic_product(e, va, conjugate(e, vb))):
            total[k] += len(cls) * c
    if any(total[k] for k in total if k):
        raise ValueError(f"<a, b> is irrational: {dict(total)}")
    return Fraction(total[0], G.order)


def permutation_character(G, subgroup):
    """Ind_H^G 1 for the subgroup H of G, by the definition of induction:
    its value at g is #{x in G : x^-1 g x in H} / |H|."""
    e = G.exponent()
    values = []
    for cls in G.classes:
        hits = sum(G.op(G.op(G.inv(x), cls[0]), x) in subgroup for x in range(G.order))
        value, rest = divmod(hits, len(subgroup))
        if rest:
            raise ValueError(f"Ind_H^G 1 is not integral at {cls[0]}")
        values.append(from_exponents(e, {0: value}))
    return Character(group=G, values=tuple(values), degree=values[0][0])


def is_irreducible_mod_p(a, p):
    """Rabin irreducibility test for a monic polynomial over F_p."""
    n = deg(a)
    if n <= 0:
        return False
    if n == 1:
        return True
    if sub(pow_mod(X_P, p**n, a, p), X_P, p):
        return False
    for q in factorint(n):
        xq = pow_mod(X_P, p ** (n // q), a, p)
        if deg(gcd_p(sub(xq, X_P, p), a, p)) != 0:
            return False
    return True


def factorization_product(fac):
    """unit * prod(g^m) over the parts of a ModPFactorization, mod p."""
    out = (fac.unit % fac.p,)
    for g, _, m in fac.parts:
        for _ in range(m):
            out = mul(out, g, fac.p)
    return out


def known_irreducible_field(f):
    """The field of a monic f known to be irreducible, built without
    make_field's certificate, which some families (Phi_8 = X^4 + 1 is
    reducible mod every prime) never pass; signature and discriminant are
    still computed exactly."""
    r1 = count_real_roots(f)
    return NumberField(
        defining_poly=f,
        degree=f.degree,
        r1=r1,
        r2=(f.degree - r1) // 2,
        poly_disc=poly_discriminant(f),
        barrett_mu=barrett_mu(f.coeffs),
    )


def cyclotomic_field(m):
    """Q(zeta_m); irreducibility of the cyclotomic polynomial is classical."""
    return known_irreducible_field(cyclotomic_poly(m))


def multiplicative_order(a, m):
    """Order of a in (Z/m)^*, m > 1, by trying each exponent; a must be
    coprime to m."""
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    return next(k for k in range(1, m) if pow(a, k, m) == 1)


def is_squarefree(n):
    return n != 0 and all(e == 1 for e in factorint(abs(n)).values())


def is_fundamental_discriminant(d):
    """d != 1 squarefree with d = 1 (mod 4), or 4q with q squarefree and
    q = 2, 3 (mod 4)."""
    if d % 4 == 1:
        return d != 1 and is_squarefree(d)
    return d % 4 == 0 and d // 4 % 4 in (2, 3) and is_squarefree(d // 4)


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


def certificate_json(cert) -> dict:
    """A certificate as the JSON object that docs/formats.md describes: every
    field, each hypothesis without an empty ``detail``, ``conditional``, and
    ``digest``.  Its canonical JSON is the certificate's store line, and the
    digest hashes the canonical JSON of it less those last two."""
    hypotheses = []
    for h in cert.hypotheses:
        hypotheses.append({"statement": h.statement, "status": h.status.value})
        if h.detail:
            hypotheses[-1]["detail"] = h.detail
    return {
        "conclusion": cert.conclusion.value,
        "subject": cert.subject,
        "rule": cert.rule,
        "hypotheses": hypotheses,
        "payload": dict(cert.payload),
        "inputs_digest": cert.inputs_digest,
        "conditional": cert.conditional,
        "digest": cert.digest(),
    }


def reference_store_load(path) -> list:
    """(digest, certificate) of each entry of the store at ``path``, as the
    loader that recomputed digests took them: each line is parsed, rebuilt
    into objects and encoded again with ``json.dumps``, so any JSON spelling
    of a certificate's fields passes.  Raises SchemaViolation (path and line
    first) where that loader did.  A torn final line ends the load; no file
    is repaired."""
    by_digest = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:
                if line.endswith(b"\n"):
                    raise SchemaViolation(f"{where}: not JSON: {exc}") from exc
                break
            try:
                cert = Certificate(
                    conclusion=Conclusion(obj["conclusion"]),
                    subject=obj["subject"],
                    rule=obj["rule"],
                    hypotheses=tuple(
                        Hypothesis(h["statement"], Status(h["status"]), h.get("detail", ""))
                        for h in obj["hypotheses"]
                    ),
                    payload=tuple(sorted(obj["payload"].items())),
                    inputs_digest=obj["inputs_digest"],
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise SchemaViolation(f"{where}: not a certificate: {exc!r}") from exc
            content = {k: v for k, v in certificate_json(cert).items() if k not in ("conditional", "digest")}
            blob = json.dumps(content, sort_keys=True, separators=(",", ":")).encode()
            d, stored = hashlib.sha256(blob).hexdigest()[:16], obj.get("digest")
            if stored != d:
                raise SchemaViolation(f"{where}: stored digest {stored!r} is not {d}; edited entry")
            flag = obj.get("conditional")
            if flag is not cert.conditional:
                raise SchemaViolation(
                    f"{where}: stored conditional {flag!r} is not {cert.conditional}; edited entry"
                )
            by_digest[d] = cert
    return list(by_digest.items())
