"""Exact character tables, their odd rows, and the fixed-space dimension of a row.

A character value is an algebraic integer of Q(zeta_e), e = exponent(G),
stored as its tuple of phi(e) integer coordinates in the power basis of
Z[zeta_e] (``cyclotomic.from_exponents``), always over that same e, so two
values are equal exactly when their tuples are.  Every group, whatever its
spec, takes ``_raw_table``:

* the dual group, built along a generating sequence, when G is abelian,
* for a non-abelian G with a central cyclic direct factor, G = N x <c>:
  the tensor product of N's table and C_m's, where N is the kernel of a
  linear character (a character of G/G') that is injective on <c>; N's
  table comes by the same route (GAP's direct-product tables take this
  way; D_n with n = 2 (mod 4) is D_(n/2) x C_2),
* the Burnside-Dixon method for every other group, Q8 and the other D_n
  among them: simultaneous eigenvectors of the class-multiplication matrices
  over F_q for the smallest prime q = 1 (mod e) with q > 2*sqrt(|G|), lifted
  to exact values in Z[zeta_e] through the eigenvalue-multiplicity transform.

Every table, whichever way it was built, is then *verified* by exact row
orthonormality, which for a square table also gives the column relations
(``verify_character_table``) -- neither the modular step nor a structural
split can silently corrupt a table.

Rows are ordered by (degree, value coordinates), so tables are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import itemgetter, mul

from .cyclotomic import conjugate, cyclotomic_poly, from_exponents, power_height
from .errors import InternalCheckError, NonIntegralDimension
from .groups import FiniteGroup, subgroup_embedding
from .numutil import is_prime, primitive_root


@dataclass(frozen=True)
class Character:
    group: FiniteGroup
    values: tuple[tuple[int, ...], ...]  # per conjugacy class, coordinates in Z[zeta_e]
    degree: int

    def value_at(self, g: int) -> tuple[int, ...]:
        return self.values[self.group.class_of[g]]

    def sort_key(self):
        return (self.degree, self.values)


# -- the row check ------------------------------------------------------------


def _pack(coords, width: int) -> int:
    """Kronecker packing: the polynomial with coefficients ``coords`` at X = 2^width."""
    return sum(c << (width * k) for k, c in enumerate(coords))


def _evaluation(e: int, bound: int) -> tuple[int, int]:
    """(width, N) with N = Phi_e(2^width), such that x -> _pack(x, width) mod N
    is a ring map Z[zeta_e] -> Z/N under which no nonzero element whose
    coordinates are at most ``bound`` in absolute value goes to 0.

    Packing evaluates at X = 2^width, a root of Phi_e mod N, so the map is a
    ring map.  Let h be the largest |coefficient| of Phi_e and take
    bound + h < 2^width.  For x != 0 of degree k < phi(e), the top term
    |x_k| 2^(width k) exceeds the rest, at most bound (2^(width k) - 1) /
    (2^width - 1), so _pack(x) != 0; and |_pack(x)| <= bound (2^(width phi)
    - 1) / (2^width - 1) is less than N >= 2^(width phi) - h (2^(width phi)
    - 1) / (2^width - 1).  So N does not divide _pack(x)."""
    poly = cyclotomic_poly(e).coeffs
    width = (bound + max(map(abs, poly))).bit_length()
    return width, _pack(poly, width)


def verify_character_table(table: list[Character]) -> None:
    """Exact row orthonormality plus the shape checks (row count, values per
    row, each value a tuple of phi(e) ints, degree sum, value at the
    identity), in integer arithmetic on Z[zeta_e] coordinates; raises
    InternalCheckError on any failure.

    The column relations need no pass of their own.  Let X be the r x r
    table over Q(zeta_e), D = diag(|C|) and Y the conjugate transpose of X.
    The row pass proves X D Y = n I.  X is square, so D Y / n, a right
    inverse of X, is also a left inverse: D Y X = n I, that is
    Y X = n D^-1, which is sum_chi conj(chi(C_i)) chi(C_j) = |C_G(g_i)| delta_ij
    (the second orthogonality relation; Isaacs, *Character Theory of Finite
    Groups*, 2.18)."""
    if not table:
        raise InternalCheckError("empty character table")
    G = table[0].group
    n, r, e = G.order, len(G.classes), G.exponent()
    if len(table) != r:
        raise InternalCheckError(f"{len(table)} rows for {r} classes")
    if sum(ch.degree**2 for ch in table) != n:
        raise InternalCheckError("sum of squared degrees != |G|")
    zero = from_exponents(e, {})
    phi = len(zero)
    for chi in table:
        if len(chi.values) != r:
            raise InternalCheckError(f"{len(chi.values)} values for {r} classes")
        for v in chi.values:  # the shape, before any value is hashed
            if type(v) is not tuple or len(v) != phi:
                raise InternalCheckError(f"character value {v!r} is not a tuple of {phi} coordinates")
            # the power basis is integral, so a character value, an
            # algebraic integer, has integer coordinates
            if not all(type(c) is int for c in v):
                raise InternalCheckError(f"character value {v!r} is not an algebraic integer")
        if chi.values[0] != (chi.degree,) + zero[1:]:
            raise InternalCheckError("value at identity != degree")
    # a table has few distinct values: each is conjugated and packed once
    conjugate_of = {v: conjugate(e, v) for v in {v for chi in table for v in chi.values}}
    distinct = conjugate_of.keys() | conjugate_of.values()
    sizes = [len(c) for c in G.classes]
    # every coordinate of a product x * y has absolute value at most
    # power_height(e) |x|_1 |y|_1, a row sum weighs r such products by class
    # sizes that add up to n, and the target n delta_ij adds n
    norm = max(sum(map(abs, x)) for x in distinct)
    width, modulus = _evaluation(e, n * norm * norm * power_height(e) + n)
    packed = {x: _pack(x, width) for x in distinct}
    values = [[packed[x] for x in chi.values] for chi in table]
    conjugates = [[packed[conjugate_of[x]] for x in chi.values] for chi in table]
    # |G| <chi_i, chi_j> = sum_C |C| chi_i(C) conj(chi_j(C)) = |G| delta_ij,
    # each side mapped into Z/N by _evaluation's map, which is exact here
    for i in range(r):
        weighted = list(map(mul, sizes, values[i]))
        for j in range(i + 1):
            if (sum(map(mul, weighted, conjugates[j])) - (n if i == j else 0)) % modulus:
                raise InternalCheckError(f"row orthogonality fails at ({i},{j})")


# -- table construction -------------------------------------------------------


def character_table(G: FiniteGroup) -> list[Character]:
    """Complete irreducible character table, exact values, deterministic order.

    The table is computed on the first request and kept on G itself under
    the verdict key ("table",), so it lives exactly as long as the group
    object and every row's ``group`` is G.  Every table is checked by
    ``verify_character_table``; a build or check that raises stores nothing.
    """
    def build() -> tuple[Character, ...]:
        table = _raw_table(G)
        verify_character_table(table)
        table.sort(key=Character.sort_key)
        return tuple(table)

    return list(G.verdict(("table",), build))


# -- every table: by structure, or else by Dixon -------------------------------


def _raw_table(G: FiniteGroup) -> list[Character]:
    """The table of G, unsorted and unverified: the dual group when G is
    abelian, the tensor product of N's table with C_m's when G = N x C_m for
    a central cyclic C_m (N's table by this same function), and the
    Burnside-Dixon method for every other group."""
    if G.is_abelian:
        return _dual_group_table(G)
    split = _central_split(G)
    if split is None:
        return _dixon_table(G)
    N, embedding, lam, c, m = split
    return _tensor_with_cyclic(G, _raw_table(N), embedding, lam, c, m)


def _linear_characters(G: FiniteGroup, kernel) -> list[list[int]]:
    """The linear characters of G trivial on ``kernel``, a normal subgroup
    with G/kernel abelian, as exponent rows: chi(g) = zeta_e^row[g] with
    e = exponent(G).

    H grows from ``kernel`` one element g at a time.  If m is the order of g
    modulo H, each character of H extends to <H, g> in exactly m ways:
    chi(g) = zeta_e^b with m b = a (mod e), where chi(g^m) = zeta_e^a, and
    chi(g^j h) = chi(g)^j chi(h).  m divides ord(g), which divides e, and
    chi(g^m)^(ord(g)/m) = 1, so m divides a and the m solutions are
    b = (a + s e) / m for s < m."""
    n, e, t = G.order, G.exponent(), G.table
    members = sorted(kernel)
    inside = [False] * n
    for h in members:
        inside[h] = True
    rows = [[0] * n]
    for g in range(n):
        if inside[g]:
            continue
        cosets = []  # g^j H for j = 1 .. m-1
        x = g
        while not inside[x]:
            cosets.append([t[x][h] for h in members])
            x = t[x][g]
        m = len(cosets) + 1
        extended = []
        for row in rows:
            a = row[x]  # x = g^m
            for s in range(m):
                b = (a + s * e) // m
                new = row[:]
                for j, coset in enumerate(cosets, 1):
                    for h, y in zip(members, coset):
                        new[y] = (j * b + row[h]) % e
                extended.append(new)
        rows = extended
        for coset in cosets:
            members += coset
            for y in coset:
                inside[y] = True
    return rows


def _dual_group_table(G: FiniteGroup) -> list[Character]:
    """The table of an abelian G: its linear characters, each value one of e
    shared coordinate tuples of zeta_e^k, e = exponent(G).  Every class is a
    singleton."""
    e = G.exponent()
    roots = [from_exponents(e, {k: 1}) for k in range(e)]
    elements = [cls[0] for cls in G.classes]
    return [
        Character(group=G, values=tuple(roots[row[g]] for g in elements), degree=1)
        for row in _linear_characters(G, [G.identity])
    ]


def _central_split(G: FiniteGroup):
    """(N, embedding, lam, c, m) with G = N x <c>, or None when no central
    cyclic subgroup splits off.

    c is central of order m and lam a linear character of order m that is
    injective on <c>, an exponent row as from _linear_characters.  Then
    N = ker lam is normal of index m and meets <c> trivially, so
    G = N x <c>.  N is returned as a validated group with its embedding into
    G, as from subgroup_embedding.  Every lam is a character of G/G', and G'
    is generated by the commutators of non-central elements."""
    n, e, t, inv = G.order, G.exponent(), G.table, G.inverse
    central = [cls[0] for cls in G.classes if len(cls) == 1 and cls[0] != G.identity]
    if not central:
        return None
    moving = [g for cls in G.classes if len(cls) > 1 for g in cls]
    derived = G.subgroup_generated_by({t[t[t[a][b]][inv[a]]][inv[b]] for a in moving for b in moving})
    linear = [(e // gcd(e, *row), row) for row in _linear_characters(G, derived)]
    for c in central:
        m = G._orders[c]
        for order, lam in linear:
            if order == m and e // gcd(e, lam[c]) == m:
                N, embedding = subgroup_embedding(G, [g for g in range(n) if lam[g] == 0])
                return N, embedding, lam, c, m
    return None


def _tensor_with_cyclic(G: FiniteGroup, n_table, embedding, lam, c: int, m: int) -> list[Character]:
    """The table of G = N x <c> from N's table (rows on the validated copy of
    N that ``embedding`` maps into G) and C_m's: the row (chi, s) takes
    chi(x) zeta_m^(s j) at g = x c^j.  j is read off lam, which is injective
    on <c> and trivial on N.  A table has few distinct values, so each
    product is made once."""
    e, t, inv = G.exponent(), G.table, G.inverse
    N = n_table[0].group
    position = {g: i for i, g in enumerate(embedding)}
    power_of = {}  # lam exponent -> (j, c^j)
    x = G.identity
    for j in range(m):
        power_of[lam[x]] = (j, x)
        x = t[x][c]
    columns = []  # per class of G: (class of x in N, exponent of zeta_m^j in Q(zeta_e))
    for cls in G.classes:
        g = cls[0]
        j, cj = power_of[lam[g]]
        columns.append((N.class_of[position[t[g][inv[cj]]]], j * (e // m)))
    step = e // N.exponent()  # N's zeta is zeta_e^step
    products: dict[tuple, tuple[int, ...]] = {}

    def times_root(v: tuple[int, ...], k: int) -> tuple[int, ...]:
        if (v, k) not in products:
            products[v, k] = from_exponents(e, {i * step + k: a for i, a in enumerate(v) if a})
        return products[v, k]

    return [
        Character(
            group=G,
            values=tuple(times_root(chi.values[i], s * k % e) for i, k in columns),
            degree=chi.degree,
        )
        for chi in n_table
        for s in range(m)
    ]


# -- Burnside-Dixon -----------------------------------------------------------


def _dixon_prime(e: int, n: int) -> int:
    q = max(3, 2 * isqrt(n) + 1)
    q += (1 - q) % e  # q = 1 mod e
    while not (is_prime(q) and q * q > 4 * n):
        q += e if e > 1 else 1
    return q


def _class_action(G: FiniteGroup, i: int, reps, q: int):
    """The map w -> A w mod q for the class matrix A of class i, with
    A[j][k] = #{x in C_i : x^-1 g_k in C_j}."""
    if len(G.classes[i]) == 1:
        # a central z permutes the classes, so A is a permutation matrix
        z_inv = G.inv(G.classes[i][0])
        source = [0] * len(reps)
        for k, rep_k in enumerate(reps):
            source[G.class_of[G.op(z_inv, rep_k)]] = k
        gather = itemgetter(*source)
        return lambda w: list(gather(w))
    columns = []  # column k: the (j, A[j][k]) with A[j][k] != 0
    for rep_k in reps:
        counts: dict[int, int] = {}
        for x in G.classes[i]:
            j = G.class_of[G.op(G.inv(x), rep_k)]
            counts[j] = counts.get(j, 0) + 1
        columns.append(list(counts.items()))

    def apply(w):
        img = [0] * len(w)
        for wk, column in zip(w, columns):
            if wk:
                for j, a in column:
                    img[j] += a * wk
        return [x % q for x in img]

    return apply


def _rref(rows, q):
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        pivots.append(c)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _hessenberg_charpoly(M, q):
    """Characteristic polynomial of M mod q, constant term first (Hessenberg
    reduction by paired row/column operations, then a determinant recurrence)."""
    d = len(M)
    H = [[x % q for x in row] for row in M]
    for c in range(d - 2):
        pr = next((i for i in range(c + 1, d) if H[i][c]), None)
        if pr is None:
            continue
        if pr != c + 1:
            H[c + 1], H[pr] = H[pr], H[c + 1]
            for row in H:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        inv = pow(H[c + 1][c], q - 2, q)
        for i in range(c + 2, d):
            f = H[i][c] * inv % q
            if f:
                H[i] = [(a - f * b) % q for a, b in zip(H[i], H[c + 1])]
                for row in H:
                    row[c + 1] = (row[c + 1] + f * row[i]) % q
    # p_k = charpoly of leading k x k block (lambda as the variable)
    polys = [[1]]
    for k in range(1, d + 1):
        # expand along the last column of the k x k block
        lead = polys[k - 1]
        term = [(-H[k - 1][k - 1]) % q * c % q for c in lead] + [0]
        for i in range(len(lead)):
            term[i + 1] = (term[i + 1] + lead[i]) % q
        beta = 1
        for i in range(k - 1, 0, -1):
            beta = beta * H[i][i - 1] % q
            coef = H[i - 1][k - 1] * beta % q
            if coef:
                sub = polys[i - 1]
                for t, c in enumerate(sub):
                    term[t] = (term[t] - coef * c) % q
        polys.append(term)
    return polys[d]


def _poly_roots_mod(poly, q):
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % q
        if acc == 0:
            roots.append(x)
    return roots


def _split_space(basis, pivots, apply, q):
    """Split an invariant subspace (RREF row basis) by eigenvalues of the
    class matrix that ``apply`` multiplies by (as from _class_action)."""
    d = len(basis)
    C = []
    for w in basis:
        img = apply(w)
        # coordinates in the basis, read off at the pivot columns; an RREF
        # basis is the unit matrix there, so img lies in the span exactly when
        # it equals the combination with these coordinates
        coords = [img[p] for p in pivots]
        recon = [0] * len(w)
        for c, row in zip(coords, basis):
            if c:
                recon = [x + c * y for x, y in zip(recon, row)]
        if [x % q for x in recon] != img:
            raise InternalCheckError("class matrix does not preserve the subspace")
        C.append(coords)
    lam = C[0][0]
    if all(row == [0] * s + [lam] + [0] * (d - 1 - s) for s, row in enumerate(C)):
        return [(basis, pivots)]  # a scalar: the whole space is one eigenspace
    CT = [list(row) for row in zip(*C)]
    spaces = []
    total = 0
    for lam in _poly_roots_mod(_hessenberg_charpoly(CT, q), q):
        A = [row[:] for row in CT]
        for i in range(d):
            A[i][i] = (A[i][i] - lam) % q
        # kernel of A = coordinate vectors of the lambda-eigenspace
        R, piv = _rref(A, q)
        kernel = []
        for fc in (c for c in range(d) if c not in piv):
            coord = [0] * d
            coord[fc] = 1
            for ri, pc in enumerate(piv):
                coord[pc] = (-R[ri][fc]) % q
            kernel.append(coord)
        total += len(kernel)
        if kernel:
            # an RREF coordinate matrix times an RREF basis is the RREF basis
            # of the eigenspace, with pivots among the basis pivots
            K, kpiv = _rref(kernel, q)
            vecs = []
            for coord in K:
                vec = [0] * len(basis[0])
                for c, row in zip(coord, basis):
                    if c:
                        vec = [(x + c * y) % q for x, y in zip(vec, row)]
                vecs.append(vec)
            spaces.append((vecs, [pivots[k] for k in kpiv]))
    if total != d:
        raise InternalCheckError("eigenspace dimensions do not add up")
    return spaces


def _dixon_table(G: FiniteGroup) -> list[Character]:
    n = G.order
    r = len(G.classes)
    e = G.exponent()
    q = _dixon_prime(e, n)
    reps = [c[0] for c in G.classes]
    sizes = [len(c) for c in G.classes]
    inv_class = [G.class_of[G.inv(g)] for g in reps]

    spaces = [_rref([[1 if i == j else 0 for j in range(r)] for i in range(r)], q)]
    for i in range(1, r):
        if all(len(b) == 1 for b, _ in spaces):
            break
        apply = _class_action(G, i, reps, q)
        nxt = []
        for basis, piv in spaces:
            if len(basis) == 1:
                nxt.append((basis, piv))
            else:
                nxt.extend(_split_space(basis, piv, apply, q))
        spaces = nxt
    if not all(len(b) == 1 for b, _ in spaces) or len(spaces) != r:
        raise InternalCheckError("class matrices failed to split the center")

    # The eigenvalues of g are ord(g)-th roots of unity: the multiplicity of
    # zeta_o^s, o = ord(g), is (1/o) sum_{k<o} chi(g^k) zeta_o^(-s k), and
    # zeta_e^t with (e/o) not dividing t never occurs.
    zeta = pow(primitive_root(q), (q - 1) // e, q)
    zeta_powers = [1]
    for _ in range(e - 1):
        zeta_powers.append(zeta_powers[-1] * zeta % q)
    transforms = {}  # o -> (1/o mod q, row s = zeta_o^(-s k) for k < o)
    power_classes = []  # per class: classes of g^k for k < ord(g)
    for g in reps:
        row, x = [], G.identity
        while True:
            row.append(G.class_of[x])
            x = G.op(x, g)
            if x == G.identity:
                break
        o = len(row)
        if o not in transforms:
            step = e // o
            transforms[o] = (
                pow(o, q - 2, q),
                [[zeta_powers[-s * k * step % e] for k in range(o)] for s in range(o)],
            )
        power_classes.append(row)
    inv_sizes = [pow(size, q - 2, q) for size in sizes]

    lifted: dict[tuple, tuple[int, ...]] = {}  # multiplicities -> value, shared across the table
    table = []
    for basis, _ in spaces:
        v = basis[0]
        if v[0] == 0:
            raise InternalCheckError("eigenvector vanishes at the identity class")
        scale = pow(v[0], q - 2, q)
        v = [x * scale % q for x in v]
        csum = sum(v[j] * v[inv_class[j]] * inv_sizes[j] for j in range(r)) % q
        target = n * pow(csum, q - 2, q) % q
        degree = next((d for d in range(1, isqrt(n) + 1) if d * d % q == target), None)
        if degree is None:
            raise InternalCheckError("no admissible degree for eigenvector")
        chi_q = [degree * x * inv_size % q for x, inv_size in zip(v, inv_sizes)]
        values = []
        for row in power_classes:
            inv_o, weight_rows = transforms[len(row)]
            step = e // len(row)
            at_powers = [chi_q[c] for c in row]
            mults: dict[int, int] = {}
            for s, weights in enumerate(weight_rows):
                m = sum(map(mul, at_powers, weights)) % q * inv_o % q
                if m > degree:
                    raise InternalCheckError("eigenvalue multiplicity out of range")
                if m:
                    mults[s * step] = m
            if sum(mults.values()) != degree:
                raise InternalCheckError("eigenvalue multiplicities do not sum to the degree")
            key = tuple(mults.items())
            if key not in lifted:
                lifted[key] = from_exponents(e, mults)
            values.append(lifted[key])
        table.append(Character(group=G, values=tuple(values), degree=degree))
    return table


# -- operations on characters ---------------------------------------------------


def odd_rows(G: FiniteGroup, tau: int) -> tuple[int, ...]:
    """The indices, ascending, of the rows chi of character_table(G) with
    chi(tau) = -chi(1): the totally odd characters.

    tau must be a central involution, which is checked on every call; then
    by Schur chi(tau) = +-chi(1) for every irreducible chi.  The values at
    tau are read on the first call for each group object and tau and the
    verdict kept on G under the key ("odd", tau); a value that is not
    +-chi(1) raises InternalCheckError and stores nothing."""
    G.require_central_involution(tau)
    return G.verdict(("odd", tau), lambda: _odd_rows(G, tau))


def _odd_rows(G: FiniteGroup, tau: int) -> tuple[int, ...]:
    odd = []
    for i, chi in enumerate(character_table(G)):
        v = chi.value_at(tau)
        if any(v[1:]):
            raise InternalCheckError(f"chi(tau) = {v!r} is irrational; chi not irreducible?")
        if v[0] not in (chi.degree, -chi.degree):
            raise InternalCheckError(f"chi(tau) = {v!r} is neither +-chi(1); chi not irreducible?")
        if v[0] < 0:
            odd.append(i)
    return tuple(odd)


def fixed_dim(chi: Character, subgroup) -> int:
    """dim of the subspace of V_chi fixed by H: (1/|H|) sum_{h in H} chi(h).

    H is checked to be a subgroup, and the sum computed, on every call."""
    H = chi.group.require_subgroup(subgroup)
    total = [sum(c) for c in zip(*map(chi.value_at, H))]
    if any(total[1:]):
        raise NonIntegralDimension(f"character sum over H is irrational: {total}")
    d, rest = divmod(total[0], len(H))
    if rest or d < 0:
        raise NonIntegralDimension(f"fixed-space dimension {total[0]}/{len(H)} is not a nonnegative integer")
    return d

