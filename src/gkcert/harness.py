"""Batch orchestration: prime scans, the large-vanishing-order search, table
consistency checks, certificate evaluation, and report emission.

Pipelines are the keys of ``PIPELINES``; ``run`` executes those that a
validated RunConfig names, in order.  Runs are deterministic: an identical
config produces byte-identical CSV/JSON reports, and the certificate store is
content-addressed so reruns never duplicate entries.  Each report carries
``config_digest``, a hash of the config that ran (``RunConfig.digest``).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field

from .errors import (
    AmbiguousDecomposition,
    GkcertError,
    InvariantViolation,
    IrreducibilityUndecided,
    MalformedRow,
    PoolExhausted,
    RamifiedPrime,
    Reducible,
    SchemaViolation,
    UnsafePrime,
)
from .certificates import CertificateStore, canonical_json, content_digest
from .extensions import (
    BUILTIN_PIECES,
    MAX_DISCRIMINANT,
    Compositum,
    QuadraticComponent,
    RadicalCMPiece,
    ingest_extension,
)
from .intpoly import IntPoly, from_vector
from .numberfield import NumberField, make_field, scan_split_primes, splitting_type
from .numutil import is_prime, split_primes_upto
from .rules import ASSUMPTION_KEYS, CertifyOutcome, certify
from .schema import Node, parse_json, read_json, read_text
from .towers import tower_from_document

# The published large-vanishing-order example rows:
# (p, base polynomial vector, modulus label, [K:Q], lower bound for r_{S,chi}).
EXAMPLE_ROWS = (
    {"p": 2, "poly": [-12, -26, 0], "modulus": "p_79", "degree_k": 18, "r_bound": 3},
    {"p": 5, "poly": [-13, -20, -1], "modulus": "p_11", "degree_k": 30, "r_bound": 5},
    {"p": 11, "poly": [87, -39, -1], "modulus": "p_61", "degree_k": 60, "r_bound": 10},
    {"p": 7, "poly": [7, 5, -6, -2], "modulus": "p_37", "degree_k": 16, "r_bound": 2},
    {"p": 23, "poly": [4, 8, -9, -2], "modulus": "p_31", "degree_k": 24, "r_bound": 3},
)


# -- the Theorem-B style search ----------------------------------------------------


@dataclass(frozen=True)
class SearchHit:
    p: int
    discs: tuple[int, ...]
    descriptor: object
    outcome: CertifyOutcome

    @property
    def achieved_r(self) -> int:
        gvc = self.outcome.by_rule("gkc-gvc-equivalence")
        return max(c.payload_dict()["r_S"] for c in gvc) if gvc else 0


def _choose_pool_subset(
    pool, piece: RadicalCMPiece, target_r: int, skipped: list
) -> tuple[QuadraticComponent, ...]:
    """The components of the smallest prefix-greedy set of pool
    discriminants, pairwise disjoint and disjoint from the CM piece, with
    2^k >= target_r.  Each entry passed over before enough are chosen is
    noted in ``skipped``: not fundamental, above MAX_DISCRIMINANT, imaginary,
    or sharing support with the piece or with a chosen entry."""
    chosen: list[QuadraticComponent] = []
    needed = 0
    while (1 << needed) < target_r:
        needed += 1
    for d in sorted(pool):
        if len(chosen) == needed:
            break
        try:
            comp = QuadraticComponent(d)
        except SchemaViolation as exc:  # not fundamental, or above MAX_DISCRIMINANT
            skipped.append(f"{exc}; skipped")
            continue
        if not comp.is_real:
            skipped.append(f"skipping discriminant {d} (imaginary; R must be totally real)")
            continue
        if comp.support & piece.support:
            skipped.append(f"skipping discriminant {d} (shares support with {piece.label})")
            continue
        clash = next((c.disc for c in chosen if comp.support & c.support), None)
        if clash is not None:
            skipped.append(f"skipping discriminant {d} (shares support with {clash})")
            continue
        chosen.append(comp)
    if len(chosen) < needed:
        raise PoolExhausted(
            f"pool cannot reach [R:Q] >= {target_r} "
            f"(got {len(chosen)} usable discriminants, need {needed})"
        )
    return tuple(chosen)


def search_theoremB(
    pool,
    target_r: int,
    prime_bound: int,
    cm_piece="q8",
    max_hits: int | None = None,
    skipped: list | None = None,
) -> list[SearchHit]:
    """Search for certified examples with r_{S,chi} = 2|S_p(R)| >= 2*target_r.

    Builds R as a compositum of pool discriminants with [R:Q] >= target_r,
    scans odd primes totally split in the full compositum, and certifies each
    hit (Klingen bound -> compositum Leopoldt -> totally-split rule ->
    equivalence).  Hits come back in ascending prime order.  A hit is
    certified with no caller assumption: it has its Klingen certificate, p
    is totally split in K/Q and p does not divide |G| = 8, so no assumption
    key could change its certificates.

    The pool subset is chosen pairwise disjoint and disjoint from the CM
    piece, so ``Compositum`` accepts it.  It is built once per search,
    before the prime loop; each prime adds only its Frobenius and one prime
    record.  The candidates come from one residue sieve
    (``split_primes_upto``) over the pool discriminants and the
    discriminants of the CM piece's real biquadratic base L, so only primes
    split in R and L reach the CM Frobenius, which still checks them; the
    filter hands that Frobenius to ``Compositum.at``, so a hit computes it
    once.  R is described by its discriminants, with no polynomial:
    ``multiquadratic_field`` checks [R:Q] = 2^k by Kummer theory, and its
    signature (2^k, 0) needs no computation.  The pool entries and hits
    passed over are noted in ``skipped`` when it is given.
    A ``target_r`` or ``max_hits`` below 1 raises ValueError.
    """
    if target_r < 1:
        raise ValueError("target_r must be >= 1")
    if max_hits is not None and max_hits < 1:
        raise ValueError("max_hits must be >= 1")
    skipped = [] if skipped is None else skipped
    piece = BUILTIN_PIECES[cm_piece] if isinstance(cm_piece, str) else cm_piece
    chosen = _choose_pool_subset(pool, piece, target_r, skipped)
    discs = tuple(c.disc for c in chosen)
    compositum = Compositum([piece, *chosen])
    hits: list[SearchHit] = []
    for p in split_primes_upto(prime_bound, discs + piece.base_discriminants):
        try:  # frobenius refuses p = 2 and the primes ramified in the piece
            frob = piece.frobenius(p)
        except (AmbiguousDecomposition, RamifiedPrime):
            continue
        if frob != piece.group().identity:
            continue
        ext = compositum.at(p, frob)
        outcome = certify(ext)
        hit = SearchHit(p=p, discs=discs, descriptor=ext, outcome=outcome)
        if hit.achieved_r < 2 * target_r:
            skipped.append(f"p = {p} certified only r_S = {hit.achieved_r}; skipped")
            continue
        hits.append(hit)
        if max_hits is not None and len(hits) >= max_hits:
            break
    if not hits:
        raise PoolExhausted(f"no prime <= {prime_bound} qualifies")
    return hits


# -- published-table consistency checks ----------------------------------------------


@dataclass(frozen=True)
class RowVerdict:
    row: dict
    facts: tuple[tuple[str, str, str], ...]  # (fact, verified|failed|unverifiable, detail)

    @property
    def ok(self) -> bool:
        return all(status != "failed" for _, status, _ in self.facts)


# the fields of a row, in the order of the equivalent 5-element list
_ROW_FIELDS = {"p": Node.prime_candidate, "poly": Node.integers, "modulus": Node.string,
               "degree_k": Node.integer, "r_bound": Node.integer}


def _parse_row(raw) -> dict:
    if isinstance(raw, (list, tuple)):
        if len(raw) != len(_ROW_FIELDS):
            raise MalformedRow(f"a row list has {len(_ROW_FIELDS)} items, not {len(raw)}")
        raw = dict(zip(_ROW_FIELDS, raw))
    if not isinstance(raw, dict):
        raise MalformedRow(f"expected an object or a list, got {raw!r}")
    row = {key: read(Node(raw)[key]) for key, read in _ROW_FIELDS.items()}
    if not is_prime(row["p"]):
        raise MalformedRow(f"{row['p']} is not prime")
    if row["degree_k"] % 2 != 0:
        raise MalformedRow(f"[K:Q] = {row['degree_k']} is odd; a CM field has even degree")
    if row["r_bound"] < 1:
        raise MalformedRow("r bound must be >= 1")
    return row


def check_example_table(rows) -> list[RowVerdict]:
    """Per-row structural verification of published example rows.

    Checks: the base polynomial is monic irreducible and totally real, the
    degree identity [K:Q] = 2 * [K+:R] * [R:Q] with [K+:R] the published r
    bound, and that the modulus prime has a degree-one prime in R.  Ray-class
    facts (the construction of K itself) are reported Unverifiable by design.
    A malformed row raises SchemaViolation.
    """
    verdicts = []
    for raw in rows:
        row = _parse_row(raw)
        facts: list[tuple[str, str, str]] = []
        F: NumberField | None = None
        try:
            F = make_field(from_vector(row["poly"]))
            facts.append(("polynomial-monic-irreducible", "verified", f"degree {F.degree}"))
        except (Reducible, IrreducibilityUndecided, GkcertError) as exc:
            facts.append(("polynomial-monic-irreducible", "failed", str(exc)))
        if F is not None:
            if F.is_totally_real:
                facts.append(("base-totally-real", "verified", f"signature {F.signature}"))
            else:
                facts.append(("base-totally-real", "failed", f"signature {F.signature}"))
            want = 2 * row["r_bound"] * F.degree
            if want == row["degree_k"]:
                facts.append(
                    (
                        "degree-identity",
                        "verified",
                        f"2 * {row['r_bound']} * {F.degree} = {row['degree_k']}",
                    )
                )
            else:
                facts.append(
                    ("degree-identity", "failed", f"2*{row['r_bound']}*{F.degree} = {want} != {row['degree_k']}")
                )
            modulus = row["modulus"].rsplit("_", 1)[-1]
            if modulus.isdigit() and is_prime(int(modulus)):
                q = int(modulus)
                try:
                    st = splitting_type(F, q)
                    if any(f == 1 for _, f in st.entries):
                        facts.append(
                            ("modulus-prime-degree-one", "verified", f"splitting {list(st.entries)}")
                        )
                    else:
                        # the rows claim no splitting for the modulus; a higher-degree
                        # prime ideal is still a valid ray-class modulus
                        facts.append(
                            (
                                "modulus-prime-degree-one",
                                "unverifiable",
                                f"no degree-one prime (splitting {list(st.entries)}); "
                                "the row claims no splitting for the modulus",
                            )
                        )
                except UnsafePrime as exc:
                    facts.append(("modulus-prime-degree-one", "unverifiable", str(exc)))
            else:
                facts.append(("modulus-prime-degree-one", "unverifiable", "modulus prime not given"))
        facts.append(
            (
                "ray-class-construction",
                "unverifiable",
                "K = R(m_inf * m_fin) requires external ray-class data; not in scope",
            )
        )
        facts.append(
            (
                "split-prime-hypotheses",
                "unverifiable",
                "splitting of p in K depends on the unpublished choice of prime ideal",
            )
        )
        verdicts.append(RowVerdict(row=row, facts=tuple(facts)))
    return verdicts


# -- run configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    pipelines: tuple[str, ...] = ()
    prime_bound: int = 1000
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    store_path: str | None = None
    # scan
    polynomial_db: str | None = None
    field_vectors: tuple[tuple[int, ...], ...] = ()
    # certify
    descriptors: tuple[str, ...] = ()
    towers: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = ()
    # search_b
    target_r: int = 2
    pool: tuple[int, ...] = (5, 13, 17, 21, 29)
    cm_piece: str = "q8"
    search_prime_bound: int | None = None
    max_hits: int | None = 1
    # check_table
    table_rows_path: str | None = None

    def __post_init__(self):
        if self.prime_bound < 3:
            raise SchemaViolation("prime bound must be >= 3")
        if self.search_prime_bound is not None and self.search_prime_bound < 3:
            raise SchemaViolation(
                f"search_b.prime_bound: expected an integer >= 3 or null, got {self.search_prime_bound}"
            )
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                raise SchemaViolation(f"formats: expected 'csv' or 'json', got {fmt!r}")
        if self.cm_piece not in BUILTIN_PIECES:
            raise SchemaViolation(
                f"search_b.cm_piece: expected one of {list(BUILTIN_PIECES)}, got {self.cm_piece!r}"
            )
        if self.target_r < 1:
            raise SchemaViolation(f"search_b.target_r: expected a positive integer, got {self.target_r}")
        if self.max_hits is not None and self.max_hits < 1:
            raise SchemaViolation(f"search_b.max_hits: expected a positive integer or null, got {self.max_hits}")
        for i, d in enumerate(self.pool):
            if abs(d) > MAX_DISCRIMINANT:
                raise SchemaViolation(
                    f"search_b.pool[{i}]: {d} exceeds the discriminant bound {MAX_DISCRIMINANT}"
                )
        for i, key in enumerate(self.assumptions):
            if key not in ASSUMPTION_KEYS:
                raise SchemaViolation(
                    f"certify.assumptions[{i}]: expected one of {list(ASSUMPTION_KEYS)}, got {key!r}"
                )

    def digest(self) -> str:
        """Hash of every field but ``out_dir``, which moves the reports
        without changing what they contain."""
        return content_digest({k: v for k, v in asdict(self).items() if k != "out_dir"})


def config_from_dict(doc) -> RunConfig:
    """RunConfig from a config document; unknown keys are ignored, and a known
    one of the wrong type raises SchemaViolation naming its path."""
    doc = Node(doc)
    scan, search = doc.get("scan", {}), doc.get("search_b", {})
    default = RunConfig()
    return RunConfig(
        pipelines=tuple(doc.get("pipelines", []).strings()),
        prime_bound=doc.get("prime_bound", default.prime_bound).integer(),
        out_dir=doc.get("out_dir", default.out_dir).string(),
        formats=tuple(doc.get("formats", default.formats).strings()),
        store_path=doc.get("store").nullable(Node.string),
        polynomial_db=scan.get("polynomial_db").nullable(Node.string),
        field_vectors=tuple(tuple(v.integers()) for v in scan.get("field_vectors", []).items()),
        descriptors=tuple(doc.get("certify", {}).get("descriptors", []).strings()),
        towers=tuple(doc.get("certify", {}).get("towers", []).strings()),
        assumptions=tuple(doc.get("certify", {}).get("assumptions", []).strings()),
        target_r=search.get("target_r", default.target_r).integer(),
        pool=tuple(search.get("pool", default.pool).integers()),
        cm_piece=search.get("cm_piece", default.cm_piece).string(),
        search_prime_bound=search.get("prime_bound").nullable(Node.integer),
        max_hits=search.get("max_hits", default.max_hits).nullable(Node.integer),
        table_rows_path=doc.get("check_table", {}).get("rows").nullable(Node.string),
    )


def _parse_polynomial_db(text: str) -> list[IntPoly]:
    """One monic polynomial per line, as the coefficient vector [a_0, ..., a_{n-1}]."""
    polys = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            where = f"line {lineno}"
            polys.append(from_vector(Node(parse_json(line, where), where).integers()))
    return polys


def _parse_rows(document) -> list:
    return [row.value for row in Node(document).items()]


# -- reports --------------------------------------------------------------------------


def _rows_to_csv(rows: list[dict]) -> str:
    columns = list(dict.fromkeys(key for row in rows for key in row))  # first-seen order
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(k, "")) for k in columns] for row in rows)
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, (list, tuple, dict)):
        return canonical_json(value)
    return value


@dataclass
class RunResult:
    rows: list[dict] = field(default_factory=list)
    certificates: list = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# -- pipeline steps: each appends to the run's result; ``run`` puts the step's
# name in front of the rows and violations that it added.


def _read_input(path, read, parse, result: RunResult):
    """parse(read(path)), or None once a bad input file (unreadable, or
    breaking its schema or invariants) is recorded as a violation naming it."""
    try:
        return parse(read(path))
    except (OSError, SchemaViolation, InvariantViolation) as exc:
        result.violations.append(f"{path}: {exc}")
        return None


def _scan(config: RunConfig, store: CertificateStore, result: RunResult) -> None:
    db = config.polynomial_db
    fields = _read_input(db, read_text, _parse_polynomial_db, result) if db else []
    if fields is None:
        return
    fields.extend(from_vector(v) for v in config.field_vectors)
    made = []
    for f in fields:
        try:
            made.append(make_field(f))
        except GkcertError as exc:
            result.diagnostics.append(f"scan: skipping {f}: {exc}")
    if not made:
        result.diagnostics.append("scan: no usable field; no primes reported")
        return
    skipped: list[str] = []
    primes = scan_split_primes(made, config.prime_bound, skipped)
    result.diagnostics.extend(f"scan: {note}" for note in skipped)
    for p in primes:
        result.rows.append(
            {
                "prime": p,
                "fields": [list(F.defining_poly.coeffs[:-1]) for F in made],
                "totally_split": True,
            }
        )
    if not primes:
        result.diagnostics.append("scan: no totally split prime within the bound")


def _search_b(config: RunConfig, store: CertificateStore, result: RunResult) -> None:
    skipped: list[str] = []
    bound = config.prime_bound if config.search_prime_bound is None else config.search_prime_bound
    try:
        hits = search_theoremB(
            pool=config.pool,
            target_r=config.target_r,
            prime_bound=bound,
            cm_piece=config.cm_piece,
            max_hits=config.max_hits,
            skipped=skipped,
        )
    except PoolExhausted as exc:
        result.violations.append(str(exc))
        return
    finally:
        result.diagnostics.extend(f"search-b: {note}" for note in skipped)
    for hit in hits:
        result.certificates.extend(hit.outcome.certificates)
        result.rows.append(
            {
                "prime": hit.p,
                "base_discriminants": list(hit.discs),
                "descriptor": hit.descriptor.label,
                "achieved_r_S": hit.achieved_r,
                "rules": hit.outcome.rules_cited(),
                "certificates": [c.digest() for c in hit.outcome.certificates],
            }
        )


def _certify(config: RunConfig, store: CertificateStore, result: RunResult) -> None:
    towers = [_read_input(path, read_json, tower_from_document, result) for path in config.towers]
    if None in towers:
        return
    for path in config.descriptors:
        ext = _read_input(path, read_json, ingest_extension, result)
        if ext is None:
            continue
        tower = next((t for t in towers if t.p == ext.p), None)
        if ext.p == 2:
            result.violations.append(f"{path}: p = 2 is never admitted")
            continue
        outcome = certify(ext, assumptions=config.assumptions, tower=tower)
        result.certificates.extend(outcome.certificates)
        result.diagnostics.extend(f"{ext.label or path}: {d}" for d in outcome.diagnostics)
        result.rows.append(
            {
                "descriptor": ext.label or path,
                "p": ext.p,
                "group_order": ext.group.order,
                "conclusions": [c.conclusion.value for c in outcome.certificates],
                "rules": outcome.rules_cited(),
                "conditional": [c.conditional for c in outcome.certificates],
                "certificates": [c.digest() for c in outcome.certificates],
            }
        )


def _check_table(config: RunConfig, store: CertificateStore, result: RunResult) -> None:
    path = config.table_rows_path
    raw_rows = _read_input(path, read_json, _parse_rows, result) if path else EXAMPLE_ROWS
    if raw_rows is None:
        return
    for i, raw in enumerate(raw_rows):
        try:
            (verdict,) = check_example_table([raw])
        except SchemaViolation as exc:
            result.violations.append(f"{path}: rows[{i}]: {exc}")
            continue
        result.rows.append(
            {
                "prime": verdict.row["p"],
                "poly": verdict.row["poly"],
                "modulus": verdict.row["modulus"],
                "degree_k": verdict.row["degree_k"],
                "r_bound": verdict.row["r_bound"],
                "ok": verdict.ok,
                "facts": [list(f) for f in verdict.facts],
            }
        )


def _report(config: RunConfig, store: CertificateStore, result: RunResult) -> None:
    for cert in store:
        result.rows.append(
            {
                "conclusion": cert.conclusion.value,
                "subject": cert.subject,
                "rule": cert.rule,
                "conditional": cert.conditional,
                "digest": cert.digest(),
            }
        )


# The pipelines, by name: the CLI has one subcommand per key.
PIPELINES = {
    "scan": _scan,
    "search-b": _search_b,
    "certify": _certify,
    "check-table": _check_table,
    "report": _report,
}


def run(config: RunConfig) -> RunResult:
    """Execute the configured pipelines; write reports and append certificates.

    The certificate store is append-only and content-addressed, so rerunning
    an identical config is a no-op for the store and reproduces the reports
    byte for byte.  Every step sees the store as it was loaded; the new
    certificates are appended after the last step.  InvariantViolations are
    collected, not raised; the CLI maps them to a nonzero exit code.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    store = CertificateStore(config.store_path or os.path.join(config.out_dir, "certificates.jsonl"))
    result = RunResult(diagnostics=[f"store: {d}" for d in store.diagnostics])

    for name in config.pipelines:
        step = PIPELINES.get(name)
        if step is None:
            result.violations.append(f"unknown pipeline {name!r}")
            continue
        rows, violations = len(result.rows), len(result.violations)
        step(config, store, result)
        result.rows[rows:] = [{"pipeline": name, **row} for row in result.rows[rows:]]
        result.violations[violations:] = [f"{name}: {v}" for v in result.violations[violations:]]

    store.add_all(result.certificates)

    payload = {"config_digest": config.digest(), "rows": result.rows}
    if "json" in config.formats:
        path = os.path.join(config.out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        result.outputs.append(path)
    if "csv" in config.formats:
        path = os.path.join(config.out_dir, "report.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_rows_to_csv(result.rows))
        result.outputs.append(path)
    return result
