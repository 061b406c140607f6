"""Small finite-group toolkit used to build and check the `certify` workload.

Everything here works on explicit multiplication tables (``table[a][b]`` is
a*b) and is written independently of gkcert, so the checks it feeds do not
share code with the program under test.  The closed-form families follow the
element indexing documented in docs/formats.md.
"""

from __future__ import annotations


class Table:
    """A finite group given by its multiplication table."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n = len(self.rows)
        self.identity = next(
            e for e in range(self.n) if all(self.rows[e][x] == x for x in range(self.n))
        )
        self.inverse = [
            next(b for b in range(self.n) if self.rows[a][b] == self.identity)
            for a in range(self.n)
        ]

    def conj(self, g, x):
        """x g x^-1."""
        return self.rows[self.rows[x][g]][self.inverse[x]]

    def class_count(self) -> int:
        """k(G), the number of conjugacy classes."""
        seen = set()
        count = 0
        for g in range(self.n):
            if g not in seen:
                count += 1
                seen.update(self.conj(g, x) for x in range(self.n))
        return count

    def generated(self, gens) -> frozenset:
        out = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.rows[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    def center(self) -> list:
        return [
            g for g in range(self.n)
            if all(self.rows[g][x] == self.rows[x][g] for x in range(self.n))
        ]

    def central_involutions(self) -> list:
        return [
            t for t in self.center()
            if t != self.identity and self.rows[t][t] == self.identity
        ]

    def is_abelian(self) -> bool:
        return all(
            self.rows[a][b] == self.rows[b][a] for a in range(self.n) for b in range(a)
        )

    def quotient(self, normal) -> "Table":
        """G/N for a normal subgroup N, as a table on the cosets."""
        normal = frozenset(normal)
        coset_of = {}
        reps = []
        for g in range(self.n):
            if g in coset_of:
                continue
            idx = len(reps)
            reps.append(g)
            for h in normal:
                coset_of[self.rows[g][h]] = idx
        return Table(
            [[coset_of[self.rows[a][b]] for b in reps] for a in reps]
        )

    def quotient_is_abelian(self, normal) -> bool:
        normal = frozenset(normal)
        r, inv = self.rows, self.inverse
        return all(
            r[r[r[a][b]][inv[a]]][inv[b]] in normal
            for a in range(self.n)
            for b in range(a)
        )

    def normal_core(self, sub) -> frozenset:
        core = set(sub)
        for x in range(self.n):
            core &= {self.conj(g, x) for g in sub}
        return frozenset(core)

    def cyclic_subgroups(self) -> list:
        found = {self.generated([g]) for g in range(self.n)}
        return sorted(found, key=lambda s: (len(s), sorted(s)))


# -- closed-form families, indexed as docs/formats.md prescribes ----------------


def abelian(invariants) -> Table:
    invs = [d for d in invariants if d > 1] or [1]
    n = 1
    for d in invs:
        n *= d

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

    return Table(
        [[encode([x + y for x, y in zip(decode(a), decode(b))]) for b in range(n)] for a in range(n)]
    )


def dihedral(n: int) -> Table:
    """D_n of order 2n: a^i at index i, b a^i at index n + i."""

    def mul(x, y):
        rx, sx = x % n, x >= n
        ry, sy = y % n, y >= n
        r = (ry + (-rx if sy else rx)) % n
        return r + (n if sx != sy else 0)

    return Table([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])


def quaternion() -> Table:
    """Q8 with 1, -1, i, -i, j, -j, k, -k at indices 0..7."""
    # unit products: (u, v) -> (w, sign) for u, v in 1, i, j, k
    units = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }

    def mul(x, y):
        w, s = units[(x // 2, y // 2)]
        s *= (1 - 2 * (x % 2)) * (1 - 2 * (y % 2))
        return 2 * w + (0 if s == 1 else 1)

    return Table([[mul(a, b) for b in range(8)] for a in range(8)])


def direct_product(G: Table, H: Table) -> Table:
    """G x H with (g, h) at index g * |H| + h."""
    m = H.n
    return Table(
        [
            [G.rows[a // m][b // m] * m + H.rows[a % m][b % m] for b in range(G.n * m)]
            for a in range(G.n * m)
        ]
    )
