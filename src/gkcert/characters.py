"""Exact character tables and the character-theoretic operations built on them.

Character values live in Q(zeta_e), e = exponent(G), always (uniform equality
semantics; no conductor minimization).  Tables come from:

* the dual-group construction for abelian groups,
* closed-form families for dihedral groups and Q8,
* the Burnside-Dixon method for raw multiplication tables: simultaneous
  eigenvectors of the class-multiplication matrices over F_q for the
  smallest prime q = 1 (mod e) with q > 2*sqrt(|G|), lifted to exact
  cyclotomic values through the eigenvalue-multiplicity transform and then
  *verified* by exact orthogonality -- the modular step cannot silently
  corrupt a table.

Rows are ordered by (degree, lexicographic value key), so tables are
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from operator import is_, itemgetter, mul

from .cyclotomic import CycNumber, _reduce_exponents
from .errors import InternalCheckError, NonIntegralDimension, ScaleExceeded
from .groups import FiniteGroup
from .numutil import is_prime, primitive_root

SCALE_BOUND = 64


@dataclass(frozen=True)
class ClassFunction:
    group: FiniteGroup
    values: tuple[CycNumber, ...]  # one value per conjugacy class

    def value_at(self, g: int) -> CycNumber:
        return self.values[self.group.class_of[g]]


@dataclass(frozen=True)
class Character(ClassFunction):
    degree: int = 1

    def contragredient(self) -> "Character":
        return Character(
            group=self.group,
            values=tuple(v.conjugate() for v in self.values),
            degree=self.degree,
        )

    def sort_key(self):
        e = self.group.exponent()
        return (self.degree, tuple(v.sort_key(e) for v in self.values))


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"


# -- inner products -----------------------------------------------------------


def inner_product(a: ClassFunction, b: ClassFunction) -> CycNumber:
    """<a, b> = (1/|G|) sum |C| a(C) conj(b(C)), exact."""
    G = a.group
    acc = CycNumber.from_rational(0)
    for cls, va, vb in zip(G.classes, a.values, b.values):
        acc = acc + len(cls) * (va * vb.conjugate())
    return acc / G.order


def _integral_coordinates(table: list[Character], e: int):
    """Per row and class, the coordinates of the value and of its complex
    conjugate in the power basis of Z[zeta_e].

    That basis is integral, so a value with den != 1 is not an algebraic
    integer and cannot be a character value: InternalCheckError."""
    values, conjugates = [], []
    conjugate_of: dict[tuple[int, ...], tuple[int, ...]] = {}  # a table has few distinct values
    for chi in table:
        row, row_conj = [], []
        for v in chi.values:
            x = v.embed(e)
            if x.den != 1:
                raise InternalCheckError(f"character value {v!r} is not an algebraic integer")
            if x.num not in conjugate_of:
                flipped = {-k % e: c for k, c in enumerate(x.num) if c}
                conjugate_of[x.num] = _reduce_exponents(e, flipped)
            row.append(x.num)
            row_conj.append(conjugate_of[x.num])
        values.append(row)
        conjugates.append(row_conj)
    return values, conjugates


def _digit_width(bound: int) -> int:
    """Bits per packed digit for signed digits of absolute value <= bound."""
    return bound.bit_length() + 1


def _pack(coords, width: int) -> int:
    """Kronecker packing: the polynomial with coefficients ``coords`` at X = 2^width."""
    return sum(c << (width * k) for k, c in enumerate(coords))


def _packed_dot(e: int, width: int, xs, ys) -> tuple[int, ...]:
    """Power-basis coordinates of sum x * y over packed pairs (x, y) from
    ``xs`` and ``ys``: one integer dot product, whose signed digits are the
    coefficients of the summed products before reduction mod Phi_e.  Each
    such coefficient must have absolute value below 2^(width - 1)."""
    packed = sum(map(mul, xs, ys))
    half, mask = 1 << (width - 1), (1 << width) - 1
    coeffs: dict[int, int] = {}
    k = 0
    while packed:
        digit = packed & mask
        if digit >= half:
            digit -= 1 << width
        coeffs[k] = digit
        packed = (packed - digit) >> width
        k += 1
    return _reduce_exponents(e, coeffs)


def verify_character_table(table: list[Character]) -> None:
    """Exact first and second orthogonality plus the degree-sum identity, in
    integer arithmetic on Z[zeta_e] coordinates; raises InternalCheckError on
    any failure."""
    if not table:
        raise InternalCheckError("empty character table")
    G = table[0].group
    n, r, e = G.order, len(G.classes), G.exponent()
    if len(table) != r:
        raise InternalCheckError(f"{len(table)} rows for {r} classes")
    if sum(ch.degree**2 for ch in table) != n:
        raise InternalCheckError("sum of squared degrees != |G|")
    for chi in table:
        if len(chi.values) != r:
            raise InternalCheckError(f"{len(chi.values)} values for {r} classes")
        if not (chi.values[0].is_integer and chi.values[0].as_int() == chi.degree):
            raise InternalCheckError("value at identity != degree")
    values, conjugates = _integral_coordinates(table, e)
    sizes = [len(c) for c in G.classes]
    # every coefficient of a product x * y has absolute value <= |x|_1 |y|_1,
    # and both relations sum at most n = sum |C| >= r products
    norm = max(sum(map(abs, x)) for row in values + conjugates for x in row)
    width = _digit_width(n * norm * norm)
    packed: dict[tuple[int, ...], int] = {}
    for x in {x for row in values + conjugates for x in row}:
        packed[x] = _pack(x, width)
    values = [[packed[x] for x in row] for row in values]
    conjugates = [[packed[x] for x in row] for row in conjugates]
    zero = _reduce_exponents(e, {})
    # |G| <chi_i, chi_j> = sum_C |C| chi_i(C) conj(chi_j(C)) = |G| delta_ij
    for i in range(r):
        weighted = list(map(mul, sizes, values[i]))
        for j in range(i + 1):
            total = _packed_dot(e, width, weighted, conjugates[j])
            if total != ((n,) + zero[1:] if i == j else zero):
                raise InternalCheckError(f"row orthogonality fails at ({i},{j}): {total!r}")
    # column orthogonality follows from row orthonormality, but check it anyway:
    # sum_chi chi(C_i) conj(chi(C_j)) = |C_G(g_i)| delta_ij
    columns = list(zip(*values))
    conjugate_columns = list(zip(*conjugates))
    for i in range(r):
        for j in range(i + 1):
            total = _packed_dot(e, width, columns[i], conjugate_columns[j])
            if total != ((n // sizes[i],) + zero[1:] if i == j else zero):
                raise InternalCheckError(f"column orthogonality fails at ({i},{j})")


# -- table construction -------------------------------------------------------


def character_table(G: FiniteGroup) -> list[Character]:
    """Complete irreducible character table, exact values, deterministic order.

    The table is computed on the first request and kept on G itself, so it
    lives exactly as long as the group object and every row's ``group`` is G.
    """
    if G.order > SCALE_BOUND:
        raise ScaleExceeded(f"|G| = {G.order} exceeds the supported bound {SCALE_BOUND}")
    if G._characters is None:
        kind = G.spec[0]
        if kind == "abelian":
            table = _abelian_table(G)
        elif kind == "dihedral":
            table = _dihedral_table(G)
        elif kind == "quaternion8":
            table = _q8_table(G)
        else:
            table = _dixon_table(G)
            verify_character_table(table)
        table.sort(key=Character.sort_key)
        object.__setattr__(G, "_characters", tuple(table))
    return list(G._characters)


def _abelian_table(G: FiniteGroup) -> list[Character]:
    invs = G.spec[1]
    e = G.exponent()
    n = G.order

    def decode(i):
        out = []
        for d in invs:
            out.append(i % d)
            i //= d
        return out

    elements = [decode(g) for g in range(n)]
    table = []
    for a in range(n):
        av = decode(a)
        # classes are singletons in element order
        values = []
        for gv in elements:
            k = sum(ai * gi * (e // d) for ai, gi, d in zip(av, gv, invs)) % e
            values.append(CycNumber.from_exponents(e, {k: 1}))
        table.append(Character(group=G, values=tuple(values), degree=1))
    return table


def _dihedral_table(G: FiniteGroup) -> list[Character]:
    n = G.spec[1]
    e = G.exponent()  # lcm(n, 2)
    step = e // n

    def lin(sign_a: int, sign_b: int) -> Character:
        vals = []
        for cls in G.classes:
            g = cls[0]
            i, refl = (g, 0) if g < n else (g - n, 1)
            v = (sign_a**i) * (sign_b**refl)
            vals.append(CycNumber.from_exponents(e, {0: v}))
        return Character(group=G, values=tuple(vals), degree=1)

    table = [lin(1, 1), lin(1, -1)]
    if n % 2 == 0:
        table += [lin(-1, 1), lin(-1, -1)]
    for h in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2):
        vals = []
        for cls in G.classes:
            g = cls[0]
            if g < n:
                k = (h * g * step) % e
                mults: dict[int, int] = {}
                for kk in (k, (e - k) % e):
                    mults[kk] = mults.get(kk, 0) + 1
                vals.append(CycNumber.from_exponents(e, mults))
            else:
                vals.append(CycNumber.from_exponents(e, {}))
        table.append(Character(group=G, values=tuple(vals), degree=2))
    return table


def _q8_table(G: FiniteGroup) -> list[Character]:
    # classes: (0,), (1,), (2,3)=+-i, (4,5)=+-j, (6,7)=+-k
    e = 4
    table = []
    for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        per_class = [1, 1, s, t, s * t]
        vals = tuple(CycNumber.from_exponents(e, {0: v}) for v in per_class)
        table.append(Character(group=G, values=vals, degree=1))
    two = [2, -2, 0, 0, 0]
    vals = tuple(CycNumber.from_exponents(e, {0: v}) for v in two)
    table.append(Character(group=G, values=vals, degree=2))
    return table


# -- Burnside-Dixon for raw tables --------------------------------------------


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

    lifted: dict[tuple, CycNumber] = {}  # multiplicities -> value, shared across the table
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
                lifted[key] = CycNumber.from_exponents(e, mults)
            values.append(lifted[key])
        table.append(Character(group=G, values=tuple(values), degree=degree))
    return table


# -- operations on characters ---------------------------------------------------


def parity(chi: Character, tau: int) -> Parity:
    """Odd iff chi(tau) = -chi(1), even iff chi(tau) = chi(1); tau must be a
    central involution (Schur: exactly one case holds for irreducible chi)."""
    G = chi.group
    G.require_central_involution(tau)
    v = chi.value_at(tau)
    if v.is_integer:
        n = v.as_int()
        if n == chi.degree:
            return Parity.EVEN
        if n == -chi.degree:
            return Parity.ODD
    raise InternalCheckError(f"chi(tau) = {v!r} is neither +-chi(1); chi not irreducible?")


def _row_index(chi: Character) -> int | None:
    """The position of chi among the rows stored on its group, or None when
    chi is not one of those row objects."""
    rows = chi.group._characters
    if rows is not None:
        for i, row in enumerate(rows):
            if row is chi:
                return i
    return None


def _odd_rows(G: FiniteGroup, tau: int) -> tuple[Character, ...]:
    """The odd rows of G's stored table, found by ``parity`` on the first
    request for tau and then kept on G under ("odd", tau)."""
    return G.verdict(
        ("odd", tau), lambda: tuple(ch for ch in G._characters if parity(ch, tau) is Parity.ODD)
    )


def odd_characters(table: list[Character], tau: int) -> list[Character]:
    """The rows chi of ``table`` with parity(chi, tau) ODD, in table order.

    When ``table`` is its group G's own table (the rows character_table(G)
    returns), the odd rows are found on the first call for each tau and kept
    on G under the key ("odd", tau); any other list is tested row by row."""
    rows = table[0].group._characters if table else None
    if rows is not None and len(rows) == len(table) and all(map(is_, table, rows)):
        return list(_odd_rows(table[0].group, tau))
    return [ch for ch in table if parity(ch, tau) is Parity.ODD]


def is_odd(chi: Character, tau: int) -> bool:
    """parity(chi, tau) is ODD; a row of its group's table is looked up among
    the odd rows stored on the group."""
    if _row_index(chi) is None:
        return parity(chi, tau) is Parity.ODD
    return any(chi is row for row in _odd_rows(chi.group, tau))


def fixed_dim(chi: Character, subgroup) -> int:
    """dim of the subspace of V_chi fixed by H: (1/|H|) sum_{h in H} chi(h).

    H is checked to be a subgroup on every call.  For a row of G's table the
    dimension is computed once and kept on G under the key ("fixed_dim", row
    index, H as a frozenset); any other character is computed each time."""
    G = chi.group
    H = G.require_subgroup(subgroup)
    row = _row_index(chi)
    if row is None:
        return _fixed_dim(chi, H)
    return G.verdict(("fixed_dim", row, H), lambda: _fixed_dim(chi, H))


def _fixed_dim(chi: Character, H: frozenset[int]) -> int:
    total = CycNumber.from_rational(0)
    for h in H:
        total = total + chi.value_at(h)
    try:
        d = (total / len(H)).as_fraction()
    except ValueError:
        raise NonIntegralDimension(f"character sum over H is irrational: {total!r}")
    if d.denominator != 1 or d < 0:
        raise NonIntegralDimension(f"fixed-space dimension {d} is not a nonnegative integer")
    return int(d)


def induced_character(G: FiniteGroup, embedding, chi_h: ClassFunction) -> ClassFunction:
    """Induction to G of a class function on the subgroup H given by
    ``embedding`` (H-element index -> G-element, as from subgroup_embedding)."""
    h_order = len(embedding)
    position = {g: i for i, g in enumerate(embedding)}
    values = []
    for cls in G.classes:
        rep = cls[0]
        total = CycNumber.from_rational(0)
        for x in range(G.order):
            y = G.op(G.op(G.inv(x), rep), x)
            if y in position:
                total = total + chi_h.value_at(position[y])
        values.append(total / h_order)
    return ClassFunction(group=G, values=tuple(values))
