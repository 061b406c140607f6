"""Seeded inputs, independent oracles and output checks for the three
benchmark workloads.

Each workload writes its configs and descriptor files under ``inputs/`` of
the run directory and lists the gkcert CLI calls of one pass; the calls run
with the pass directory as working directory, so every path in a config is
relative to it.  The config ``seed`` field is left at its default: it reaches
no computation.

The oracles share no code with gkcert.  They use sympy (factorization over
F_p, exact algebraic numbers), plain congruences, Euler's criterion and the
table-based group theory in ``finite``.  A check returns the set of
operation ids whose outputs are wrong.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from itertools import combinations
from math import prod

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_degree,
    gf_factor,
    gf_from_int_poly,
    gf_gcd,
    gf_irreducible_p,
    gf_pow_mod,
    gf_sub,
)

import finite

X = sympy.Symbol("x")


def primes_upto(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return [i for i in range(bound + 1) if sieve[i]]


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _config(**sections) -> dict:
    """A run configuration; the CLI subcommand picks the pipeline."""
    doc = {"formats": ["csv", "json"]}
    doc.update(sections)
    return doc


class Workload:
    """Inputs of one workload and the checks on one pass's outputs."""

    name = ""

    def __init__(self, seed: int, inputs_dir: str, source_root: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = inputs_dir
        self.source_root = source_root
        self.calls: list[dict] = []  # {"name", "argv"}
        self.ops: dict[str, list] = {}  # call name -> operation ids
        self.build()

    def build(self):
        raise NotImplementedError

    def add_call(self, name, command, config: dict, ops):
        path = os.path.join(self.inputs, f"{name}.json")
        _write_json(path, config)
        self.calls.append(
            {
                "name": name,
                "argv": [command, "--config", f"../inputs/{name}.json", "--out", name],
            }
        )
        self.ops[name] = [(name, op) for op in ops]

    @property
    def op_count(self) -> int:
        return sum(len(v) for v in self.ops.values())

    def check(self, outputs) -> set:
        """Failed operation ids for one pass.  ``outputs`` maps a call name to
        its exit code, parsed report and certificate store."""
        failed = set()
        for call in self.calls:
            out = outputs[call["name"]]
            if out["rc"] != 0 or out["report"] is None:
                failed.update(self.ops[call["name"]])
        return failed | self.check_outputs(outputs)

    def check_outputs(self, outputs) -> set:
        raise NotImplementedError

    def corruptions(self, outputs):
        """(description, corrupted copy of outputs) pairs that a sound check
        must reject; used by the self-test."""
        raise NotImplementedError


def _report_rows(out):
    return out["report"]["rows"] if out["report"] else []


# -- scan ----------------------------------------------------------------------

SCAN_BOUND = 800
RANDOM_DEGREES = (7, 10, 14)


def _real_cyclotomic(m: int) -> list[int]:
    """Minimal polynomial of zeta_m + zeta_m^-1 for an odd prime m, constant
    term first: 1 + sum_{k=1}^{(m-1)/2} D_k(x) with D_k the Dickson
    polynomials (z^k + z^-k written in x = z + 1/z)."""
    d_prev, d_cur = [2], [0, 1]
    total = [1]
    for _ in range((m - 1) // 2):
        total = [a + b for a, b in _pad(total, d_cur)]
        x_d = [0] + d_cur
        d_prev, d_cur = d_cur, [a - b for a, b in _pad(x_d, d_prev)]
    assert total[-1] == 1
    return total[:-1]


def _pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _sympy_poly(vector) -> sympy.Poly:
    coeffs = list(vector) + [1]
    return sympy.Poly(list(reversed(coeffs)), X)


def _certifiable(vector) -> bool:
    """Irreducible over Q, with an irreducible reduction among the first 25
    primes not dividing the discriminant (the certificate gkcert looks for)."""
    f = _sympy_poly(vector)
    if not f.is_irreducible:
        return False
    disc = int(sympy.discriminant(f))
    if disc == 0:
        return False
    coeffs = [int(c) for c in f.all_coeffs()]
    used = 0
    for p in primes_upto(1000):
        if disc % p == 0:
            continue
        used += 1
        if gf_irreducible_p(gf_from_int_poly(coeffs, p), p, ZZ):
            return True
        if used == 25:
            return False
    return False


def _totally_split_sympy(vector, p: int) -> bool:
    """f splits into deg f distinct linear factors over F_p."""
    coeffs = [int(c) % p for c in reversed(list(vector) + [1])]
    _, factors = gf_factor(gf_from_int_poly(coeffs, p), p, ZZ)
    return len(factors) == len(vector) and all(
        gf_degree(g) == 1 and k == 1 for g, k in factors
    )


class Scan(Workload):
    """`gkcert scan` over single fields, one joint scan, and a field whose
    constant term is near 10^7."""

    name = "scan"

    def build(self):
        rng = self.rng
        odd_primes = [p for p in primes_upto(SCAN_BOUND) if p > 2]
        fields = {
            # name: (vector, oracle), oracle a congruence test or None (sympy)
            "zeta20plus": ([5, 0, -5, 0], lambda p: p % 20 in (1, 19)),
            "zeta13plus": (_real_cyclotomic(13), lambda p: p % 13 in (1, 12)),
            "zeta17plus": (_real_cyclotomic(17), lambda p: p % 17 in (1, 16)),
            "phi13": ([1] * 12, lambda p: p % 13 == 1),
            "phi17": ([1] * 16, lambda p: p % 17 == 1),
            "quartic": ([7, 5, -6, -2], None),  # X^4 - 2X^3 - 6X^2 + 5X + 7
            "s5quintic": ([-1, -1, 0, 0, 0], None),  # X^5 - X - 1
        }
        for degree in RANDOM_DEGREES:
            while True:
                vec = [rng.choice([c for c in range(-9, 10) if c])]
                vec += [rng.randint(-5, 5) for _ in range(degree - 1)]
                if _certifiable(vec):
                    break
            fields[f"random{degree}"] = (vec, None)
        while True:
            vec = [10**7 + rng.randint(1, 999)] + [rng.randint(-5, 5) for _ in range(3)]
            if _certifiable(vec):
                break
        fields["bigconstant"] = (vec, None)

        split = {}
        for name, (vec, oracle) in fields.items():
            test = oracle or (lambda p, v=vec: _totally_split_sympy(v, p))
            split[name] = {p for p in odd_primes if test(p)}
        scans = {name: [name] for name in fields}
        scans["joint"] = ["zeta20plus", "quartic"]
        self.expect = {}
        self.vectors = {}
        for scan, members in scans.items():
            vectors = [fields[m][0] for m in members]
            config = _config(prime_bound=SCAN_BOUND, scan={"field_vectors": vectors})
            self.add_call(scan, "scan", config, odd_primes)
            self.expect[scan] = set.intersection(*(split[m] for m in members))
            self.vectors[scan] = vectors

    def check_outputs(self, outputs):
        bad = set()
        for scan, want in self.expect.items():
            rows = _report_rows(outputs[scan])
            got = {row["prime"] for row in rows}
            bad.update((scan, p) for p in got ^ want)
            for row in rows:
                if row["fields"] != self.vectors[scan] or row["totally_split"] is not True:
                    bad.add((scan, row["prime"]))
            if len(rows) != len(got):
                bad.update(self.ops[scan])
        return bad

    def corruptions(self, outputs):
        scan = max(self.expect, key=lambda s: len(self.expect[s]))
        dropped = _copy(outputs)
        dropped[scan]["report"]["rows"].pop()
        yield f"split prime dropped from {scan}", dropped
        extra = _copy(outputs)
        row = dict(extra[scan]["report"]["rows"][0])
        row["prime"] = next(p for _, p in self.ops[scan] if p not in self.expect[scan])
        extra[scan]["report"]["rows"].append(row)
        yield f"non-split prime added to {scan}", extra


def _copy(outputs):
    return json.loads(json.dumps(outputs))


# -- certify -------------------------------------------------------------------

CERTIFY_PRIMES = (5, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
TOWER_P = 11  # the shipped tower file is for p = 11 and stabilizes
REAL_QUADRATICS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)
DEMOS = ("gaussian_p13.json", "d4_split_demo.json", "d6_counting_demo.json")
CERTIFY_RULES = (
    "klingen-character-bound",
    "no-split-primes",
    "undecomposed-subfield-reduction",
    "leopoldt-total-split",
    "split-rank-bound",
    "abelian-split-rank-zero",
    "dihedral-odd-character-counting",
    "chevalley-stabilization",
    "gkc-gvc-equivalence",
)


def _closed_form(spec) -> finite.Table:
    if spec["kind"] == "abelian":
        return finite.abelian(spec["data"])
    if spec["kind"] == "dihedral":
        return finite.dihedral(spec["data"])
    return finite.quaternion()


def predict_rules(G: finite.Table, dihedral_n, tau, base_degree, p, records) -> set:
    """Rules that fire on an ingested descriptor (no caller assumptions; the
    shipped tower for p = 11 is stable), from the table alone.  ``records``
    are (e_base, f_base, G_w) triples; ``dihedral_n`` is n for a closed-form
    D_n and None otherwise."""
    n = G.n
    e = G.identity
    r = sum(n // len(gw) // 2 for _, _, gw in records if tau not in gw)
    split_qp = [i for i, (eb, fb, gw) in enumerate(records) if len(gw) == 1 and eb == fb == 1]
    meet = frozenset.intersection(*(G.normal_core(gw) for _, _, gw in records))
    fired = set()
    if base_degree == 1 and G.quotient_is_abelian({e, tau}):
        fired.add("klingen-character-bound")
    if r == 0:
        fired.add("no-split-primes")
    if any(x != e and tau not in G.generated([x]) for x in meet):
        fired.add("undecomposed-subfield-reduction")
    if (
        len(split_qp) == len(records) == base_degree
        and "klingen-character-bound" in fired
    ):
        fired.add("leopoldt-total-split")
    if split_qp and G.is_abelian():
        fired.add("split-rank-bound")
        if r == n // 2:
            fired.add("abelian-split-rank-zero")
    if p == TOWER_P:
        fired.add("chevalley-stabilization")
    if (
        dihedral_n is not None
        and dihedral_n % 4 == 2
        and split_qp
        and all(tau in gw for i, (_, _, gw) in enumerate(records) if i not in split_qp)
    ):
        fired.add("dihedral-odd-character-counting")
    gkc_minus = {
        "no-split-primes",
        "undecomposed-subfield-reduction",
        "leopoldt-total-split",
        "abelian-split-rank-zero",
        "chevalley-stabilization",
    }
    if fired & gkc_minus and n % p != 0 and n <= 64:
        fired.add("gkc-gvc-equivalence")
    return fired


class Certify(Workload):
    """`gkcert certify` over seeded descriptors of order <= 64 plus the
    shipped demos and tower, and `gkcert check-table`."""

    name = "certify"

    def build(self):
        rng = self.rng
        self.descriptors = {}  # label -> facts the checks need

        def cyclic_with(G, tau, inside):
            subs = [h for h in G.cyclic_subgroups() if (tau in h) == inside and len(h) > 1]
            return rng.choice(subs)

        def slot(label, spec, G, taus, degree, pattern, decomp_fn, fixed_p=None):
            """One seeded descriptor: tau from ``taus``, base Q or a real
            quadratic field with p split or inert, decomposition groups from
            ``decomp_fn(tau, number of primes)``."""
            tau = rng.choice(taus)
            if degree == 1:
                base_vec, local = [0], [(1, 1)]
            else:
                base_vec = [-rng.choice(REAL_QUADRATICS), 0]
                local = {"split": [(1, 1), (1, 1)], "inert": [(1, 2)]}[pattern]
            decomp = decomp_fn(tau, len(local))
            p = fixed_p or rng.choice([q for q in CERTIFY_PRIMES if G.n % q])
            records = [(eb, fb, gw) for (eb, fb), gw in zip(local, decomp)]
            doc = {
                "schema": "gkcert/extension-descriptor/v1",
                "label": label,
                "base_poly": base_vec,
                "p": p,
                "group": spec,
                "tau": tau,
                "primes": [
                    {"label": f"v{i + 1}", "e_base": eb, "f_base": fb,
                     "decomposition_subgroup": sorted(gw)}
                    for i, (eb, fb, gw) in enumerate(records)
                ],
                "assertions": ["benchmark descriptor"],
            }
            self._register(label, doc, G)

        def closed(spec):
            return spec, _closed_form(spec)

        def raw(G):
            return {"kind": "table", "data": G.rows}, G

        trivial = lambda G: (lambda tau, k: [[G.identity]] * k)
        split_then = lambda G, inside: (lambda tau, k: [[G.identity], cyclic_with(G, tau, inside)])
        with_tau = lambda G: (lambda tau, k: [cyclic_with(G, tau, True) for _ in range(k)])
        without_tau = lambda G: (lambda tau, k: [cyclic_with(G, tau, False) for _ in range(k)])

        def abelian_quotient(G, wanted):
            return [t for t in G.central_involutions() if G.quotient_is_abelian({0, t}) == wanted]

        # closed-form families
        spec, G = closed({"kind": "abelian", "data": [2]})
        slot("abelian2-over-q", spec, G, [1], 1, None, trivial(G))
        spec, G = closed({"kind": "abelian", "data": [2, 4]})
        slot("abelian2x4-split", spec, G, G.central_involutions(), 2, "split", split_then(G, True))
        spec, G = closed({"kind": "abelian", "data": [2, 2, 2]})
        slot("abelian2x2x2-inert", spec, G, G.central_involutions(), 2, "inert", without_tau(G))
        spec, G = closed({"kind": "abelian", "data": [6]})
        slot("abelian6-tower", spec, G, G.central_involutions(), 1, None, with_tau(G),
             fixed_p=TOWER_P)
        spec, G = closed({"kind": "dihedral", "data": 4})
        slot("dihedral4-reflection", spec, G, [2], 1, None,
             lambda tau, k: [[0, rng.randrange(4, 8)]])
        spec, G = closed({"kind": "dihedral", "data": 6})
        slot("dihedral6-counting", spec, G, [3], 2, "split", split_then(G, True))
        spec, G = closed({"kind": "dihedral", "data": 10})
        slot("dihedral10-inert", spec, G, [5], 2, "split", with_tau(G))
        spec, G = closed({"kind": "quaternion8"})
        slot("q8-decomposed", spec, G, [1], 1, None, with_tau(G))
        slot("q8-split", spec, G, [1], 1, None, trivial(G))
        # raw multiplication tables (Dixon tables, large subgroup lattices)
        E3, Q8, D4, C6 = (
            finite.abelian([2, 2, 2]), finite.quaternion(), finite.dihedral(4), finite.abelian([6])
        )
        spec, G = raw(finite.abelian([2] * 6))
        slot("e6-table", spec, G, G.central_involutions(), 2, "split", split_then(G, False))
        spec, G = raw(finite.direct_product(Q8, E3))
        slot("q8xe3-table", spec, G, abelian_quotient(G, True), 1, None, trivial(G))
        spec, G = raw(finite.direct_product(D4, E3))
        slot("d4xe3-table", spec, G, abelian_quotient(G, False), 1, None, with_tau(G))
        spec, G = raw(finite.direct_product(Q8, C6))
        slot("q8xc6-table", spec, G, abelian_quotient(G, True), 1, None, trivial(G),
             fixed_p=3)
        spec, G = raw(finite.direct_product(D4, C6))
        slot("d4xc6-table", spec, G, G.central_involutions(), 2, "split", with_tau(G))

        # the shipped demo descriptors, copied so that config paths stay relative
        demo_dir = os.path.join(self.source_root, "src", "gkcert", "data", "descriptors")
        for demo in DEMOS:
            with open(os.path.join(demo_dir, demo), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            self._register(doc["label"], doc, _closed_form(doc["group"]))
        shutil.copy(os.path.join(demo_dir, "tower_demo.json"),
                    os.path.join(self.inputs, "tower_demo.json"))

        fired = set().union(*(d["rules"] for d in self.descriptors.values()))
        for rule in CERTIFY_RULES:
            fails = [d for d in self.descriptors.values() if rule not in d["rules"]]
            if rule not in fired or not fails:
                raise AssertionError(f"certify inputs must make {rule} both fire and fail")

        labels = list(self.descriptors)
        config = _config(certify={
            "descriptors": [f"../inputs/{label}.desc.json" for label in labels],
            "towers": ["../inputs/tower_demo.json"],
            "assumptions": [],
        })
        self.add_call("certify", "certify", config, labels)
        self.add_call("check-table", "check-table", _config(), range(5))

    def _register(self, label, doc, G):
        _write_json(os.path.join(self.inputs, f"{label}.desc.json"), doc)
        tau = doc["tau"]
        spec = doc["group"]
        dihedral_n = spec["data"] if spec["kind"] == "dihedral" else None
        records = [
            (r["e_base"], r["f_base"], frozenset(r["decomposition_subgroup"]))
            for r in doc["primes"]
        ]
        base_degree = len(doc["base_poly"])
        odd = G.class_count() - G.quotient({G.identity, tau}).class_count()
        weighted = sum(
            G.n // len(gw) - G.n // len(G.generated(list(gw) + [tau]))
            for _, _, gw in records
        )
        self.descriptors[label] = {
            "p": doc["p"],
            "order": G.n,
            "rules": predict_rules(G, dihedral_n, tau, base_degree, doc["p"], records),
            "odd_characters": odd,
            "weighted_r_s": weighted,
            "klingen": base_degree == 1 and G.quotient_is_abelian({G.identity, tau}),
        }

    def check_outputs(self, outputs):
        bad = set()
        out = outputs["certify"]
        store = out["store"]
        rows = {row["descriptor"]: row for row in _report_rows(out)}
        for label, want in self.descriptors.items():
            row = rows.get(label)
            if row is None or not self._row_ok(row, want, store):
                bad.add(("certify", label))
        if len(rows) != len(self.descriptors):
            bad.update(self.ops["certify"])
        table_rows = _report_rows(outputs["check-table"])
        for i in range(5):
            if i >= len(table_rows) or not _table_row_ok(table_rows[i]):
                bad.add(("check-table", i))
        if len(table_rows) != 5:
            bad.update(self.ops["check-table"])
        return bad

    @staticmethod
    def _row_ok(row, want, store) -> bool:
        if row["p"] != want["p"] or row["group_order"] != want["order"]:
            return False
        certs = [store.get(d) for d in row["certificates"]]
        if any(c is None for c in certs):
            return False
        if set(row["rules"]) != want["rules"] or {c["rule"] for c in certs} != want["rules"]:
            return False
        gvc = [c for c in certs if c["rule"] == "gkc-gvc-equivalence"]
        if "gkc-gvc-equivalence" in want["rules"]:
            if len(gvc) != want["odd_characters"]:
                return False
            total = sum(c["payload"]["chi_degree"] * c["payload"]["r_S"] for c in gvc)
            if total != want["weighted_r_s"]:
                return False
        elif gvc:
            return False
        has_klingen = any(c["rule"] == "klingen-character-bound" for c in certs)
        return has_klingen == want["klingen"]

    def corruptions(self, outputs):
        label = next(l for l, d in self.descriptors.items()
                     if "gkc-gvc-equivalence" in d["rules"])
        store = outputs["certify"]["store"]

        def row_of(outs):
            return next(r for r in outs["certify"]["report"]["rows"] if r["descriptor"] == label)

        extra = _copy(outputs)
        row = row_of(extra)
        digest = next(d for d in row["certificates"] if store[d]["rule"] == "gkc-gvc-equivalence")
        row["certificates"].append(digest)
        yield f"extra GVC certificate on {label}", extra
        shifted = _copy(outputs)
        shifted["certify"]["store"][digest]["payload"]["r_S"] += 1
        yield f"off-by-one r_S on {label}", shifted


def _table_row_ok(row) -> bool:
    """Structural facts of a published row, recomputed with sympy."""
    facts = {name: status for name, status, _ in row["facts"]}
    f = _sympy_poly(row["poly"])
    irreducible = f.is_irreducible
    degree = len(row["poly"])
    real = irreducible and sympy.Poly(f).count_roots() == degree
    want = {
        "polynomial-monic-irreducible": "verified" if irreducible else "failed",
        "base-totally-real": "verified" if real else "failed",
        "degree-identity": "verified" if 2 * row["r_bound"] * degree == row["degree_k"] else "failed",
        "ray-class-construction": "unverifiable",
    }
    return row["ok"] is True and all(facts.get(k) == v for k, v in want.items())


# -- search --------------------------------------------------------------------

SEARCH_TARGET_R = 16
SEARCH_HITS = 250  # hits per CM piece; the prime bound is set to the last one
POOL_PRIMES = [q for q in primes_upto(220) if q % 4 == 1]
POOL_PRODUCT = (2.9e6, 3.1e6)  # keeps the compositum's coefficient sizes alike
SIEVE_LIMIT = 3_000_000


def _octics():
    """Degree-8 polynomials whose splitting mod p decides total splitting in
    each CM piece: M = Q(sqrt2, sqrt3, sqrt g), g = -(2+sqrt2)(3+sqrt3) for
    q8, and the closure of Q(sqrt(-3 - sqrt2)) for d4.  Each piece gets
    primitive elements whose discriminants share no prime outside the
    ramified ones and 3."""
    r2, r3 = sympy.sqrt(2), sympy.sqrt(3)
    alpha, beta = sympy.sqrt(-3 - r2), sympy.sqrt(-3 + r2)
    elements = {
        "q8": [sympy.sqrt(-(2 + r2) * (3 + r3))],
        "d4": [alpha + beta + r2, alpha + sympy.sqrt(7)],
    }
    out = {}
    for piece, thetas in elements.items():
        polys = []
        for theta in thetas:
            f = sympy.Poly(sympy.minimal_polynomial(theta, X), X)
            assert f.degree() == 8
            polys.append(([int(c) for c in f.all_coeffs()], int(sympy.discriminant(f))))
        out[piece] = polys
    return out


# splitting field data restated from the piece definitions
PIECES = {"q8": {"quadratics": (2, 3), "ramified": (2, 3)},
          "d4": {"quadratics": (2, 7), "ramified": (2, 7)}}


def _eight_roots(coeffs, p) -> bool:
    f = gf_from_int_poly(coeffs, p)
    xp = gf_pow_mod([1, 0], p, f, p, ZZ)
    return gf_degree(gf_gcd(f, gf_sub(xp, [1, 0], p, ZZ), p, ZZ)) == 8


def _legendre(a, p) -> int:
    return pow(a % p, (p - 1) // 2, p)


class Search(Workload):
    """`gkcert search-b` (target_r 16, no hit limit) for both CM pieces into
    one fresh store, then `gkcert report` over the store."""

    name = "search"

    def build(self):
        rng = self.rng
        pools = [s for s in combinations(POOL_PRIMES, 4) if POOL_PRODUCT[0] <= prod(s) <= POOL_PRODUCT[1]]
        self.pool = sorted(rng.choice(pools))
        primes = primes_upto(SIEVE_LIMIT)
        octics = _octics()
        self.hits = {}
        store = {"store": "store/certificates.jsonl"}
        for piece, data in PIECES.items():
            hits = []
            for p in primes:
                if p in data["ramified"] or any(d % p == 0 for d in self.pool):
                    continue
                if any(_legendre(d, p) != 1 for d in (*self.pool, *data["quadratics"])):
                    continue
                coeffs = next(c for c, disc in octics[piece] if disc % p)
                if _eight_roots(coeffs, p):
                    hits.append(p)
                    if len(hits) == SEARCH_HITS:
                        break
            else:
                raise AssertionError(f"fewer than {SEARCH_HITS} {piece} hits below {SIEVE_LIMIT}")
            bound = hits[-1]
            self.hits[piece] = set(hits)
            config = _config(search_b={
                "target_r": SEARCH_TARGET_R, "pool": self.pool, "cm_piece": piece,
                "prime_bound": bound, "max_hits": None,
            }, **store)
            self.add_call(piece, "search-b", config, [q for q in primes if q <= bound])
        self.add_call("report", "report", _config(**store), [])

    def check_outputs(self, outputs):
        bad = set()
        digests = []
        for piece, want in self.hits.items():
            rows = _report_rows(outputs[piece])
            got = {row["prime"] for row in rows}
            bad.update((piece, p) for p in got ^ want)
            for row in rows:
                if (
                    row["achieved_r_S"] != 2 * SEARCH_TARGET_R
                    or row["base_discriminants"] != self.pool
                ):
                    bad.add((piece, row["prime"]))
                digests.extend(row["certificates"])
        reported = [row["digest"] for row in _report_rows(outputs["report"])]
        if outputs["report"]["rc"] != 0 or sorted(reported) != sorted(set(digests)):
            for piece in self.hits:
                bad.update(self.ops[piece])
        return bad

    def corruptions(self, outputs):
        dropped = _copy(outputs)
        dropped["q8"]["report"]["rows"].pop(0)
        yield "hit dropped from q8", dropped
        shifted = _copy(outputs)
        shifted["d4"]["report"]["rows"][0]["achieved_r_S"] -= 1
        yield "off-by-one achieved_r_S on d4", shifted


WORKLOADS = {w.name: w for w in (Scan, Certify, Search)}
