"""Descriptors for Galois CM-extensions K/R and the ways to obtain them.

A descriptor carries exactly the data the vanishing-order and certificate
machinery consumes: the totally real base field R, the Galois group
G = Gal(K/R) with its central complex conjugation tau, the working prime p,
and one PrimeRecord per class of primes v of R above p that share their
local data (local degrees e(v/p), f(v/p) and the decomposition subgroup G_w
of a prime w | v of K, stored as an explicit subgroup up to conjugacy),
with the number of primes in the class.  K itself is never represented by a
polynomial; every formula in scope consumes only (G, tau, G_w, e, f) and
the counts.

Two construction routes:

* ``Compositum`` / ``build_compositum_over_Q`` -- composita of real quadratic
  fields with a single CM piece (imaginary quadratic, or a
  quaternion/dihedral octic given by radical data over a real biquadratic
  field).  Every CM piece answers ``group()``, ``tau()``, ``frobenius(p)``
  and ``assertion``, and its Frobenius is computed exactly (Kronecker
  symbols, Legendre tests on the radical's conjugates).  The base
  R is a ``MultiquadraticField``, described by its discriminants.
* ``ingest_extension`` -- JSON documents for extensions built by external
  systems (e.g. ray-class constructions); every group-theoretic invariant is
  re-validated.  The base is a ``base_poly`` polynomial or a
  ``base.multiquadratic`` discriminant list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import content_digest
from .errors import (
    AmbiguousDecomposition,
    InvalidTable,
    InvariantViolation,
    IrreducibilityUndecided,
    NotLinearlyDisjoint,
    NotMonic,
    RamifiedPrime,
    Reducible,
    SchemaViolation,
)
from .groups import (
    FiniteGroup,
    abelian_group,
    build_group,
    dihedral_group,
    quaternion_group,
)
from .intpoly import from_vector
from .numberfield import NumberField, make_field
from .numutil import (
    discriminant_symbol,
    factorint,
    is_prime,
    kronecker,
    require_prime,
    sqrt_mod_p,
)
from .schema import Node

# Largest |d| of a discriminant that gkcert checks.  Whether d is fundamental
# is decided by trial-division factoring, up to sqrt(|d|)/3 steps (about
# 0.06 s for a prime near 10^12, tenfold more per two digits), so |d| is
# checked against this bound before anything is factored.
MAX_DISCRIMINANT = 10**12


def _require_bounded(d: int) -> None:
    if abs(d) > MAX_DISCRIMINANT:
        raise SchemaViolation(f"discriminant {d} exceeds the bound {MAX_DISCRIMINANT} in absolute value")


# -- prime records and descriptors ---------------------------------------------


@dataclass(frozen=True)
class PrimeRecord:
    """Local data shared by ``count`` primes v of R above p."""

    label: str
    e_base: int  # e(v/p)
    f_base: int  # f(v/p)
    decomposition: frozenset[int]  # G_w, a subgroup of G (fixed representative)
    count: int = 1  # primes v of R with these local data

    @property
    def base_is_qp(self) -> bool:
        return self.e_base == 1 and self.f_base == 1


@dataclass(frozen=True)
class ExtensionDescriptor:
    base: NumberField | MultiquadraticField  # totally real R
    group: FiniteGroup  # G = Gal(K/R)
    tau: int  # central involution (complex conjugation)
    p: int
    primes: tuple[PrimeRecord, ...]
    assertions: tuple[str, ...] = ()
    label: str = ""
    # the CM piece of a built compositum, read by the Klingen rules
    construction: QuadraticComponent | RadicalCMPiece | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvariantViolation("p not prime", str(self.p))
        if not self.base.is_totally_real:
            raise InvariantViolation("base not totally real", str(self.base))
        if not self.group.is_central_involution(self.tau):
            raise InvariantViolation("tau not central")
        total = sum(rec.e_base * rec.f_base * rec.count for rec in self.primes)
        if total != self.base.degree:
            raise InvariantViolation(
                "base degree", f"sum e(v/p)f(v/p) = {total} != [R:Q] = {self.base.degree}"
            )
        for rec in self.primes:
            if min(rec.e_base, rec.f_base, rec.count) < 1:
                raise InvariantViolation("local degrees and count", rec.label)
            if not self.group.is_subgroup(rec.decomposition):
                raise InvariantViolation("decomposition subgroup", rec.label)

    def tau_in(self, rec: PrimeRecord) -> bool:
        return self.tau in rec.decomposition

    def totally_split(self, rec: PrimeRecord) -> bool:
        return len(rec.decomposition) == 1

    def digest(self) -> str:
        return content_digest(to_document(self))


@dataclass(frozen=True)
class PrimeSummary:
    """Counting data for the rank/certificate rules."""

    t: int  # primes of R above p
    s: int  # |G|/2
    r: int  # primes of K+ above p that split in K
    split_qp: tuple[PrimeRecord, ...]  # totally split records with R_v = Q_p
    tau_inert: tuple[PrimeRecord, ...]  # records with tau in G_w


def classify_primes(ext: ExtensionDescriptor) -> PrimeSummary:
    n = ext.group.order
    r = 0
    split_qp = []
    tau_inert = []
    for rec in ext.primes:
        if ext.tau_in(rec):
            tau_inert.append(rec)
        else:
            # each of the [G:G_w]/2 primes of K+ below a split pair splits in K
            r += rec.count * (n // len(rec.decomposition) // 2)
        if ext.totally_split(rec) and rec.base_is_qp:
            split_qp.append(rec)
    return PrimeSummary(
        t=sum(rec.count for rec in ext.primes),
        s=n // 2,
        r=r,
        split_qp=tuple(split_qp),
        tau_inert=tuple(tau_inert),
    )


def check_tower_disjointness(ext: ExtensionDescriptor) -> bool:
    """True when K and the cyclotomic Z_p-tower of R are guaranteed linearly
    disjoint, which holds when p does not divide |G|; False means unknown,
    and the disjointness needs a caller assertion."""
    return ext.group.order % ext.p != 0


# -- compositum components -------------------------------------------------------


@dataclass(frozen=True)
class QuadraticComponent:
    """Quadratic field given by its fundamental discriminant.  An imaginary
    one is a CM piece: G = Z/2, tau = 1.  d is factored once, when the
    component is made, and that factorization gives ``support``: d != 1 is
    fundamental when its odd part is squarefree and d = 1 (mod 4),
    d = 4q with q = 3 (mod 4), or d = 8q with q odd."""

    disc: int
    support: frozenset[int] = field(init=False, repr=False, compare=False)
    assertion = ""  # the Galois group of a quadratic field needs no assertion

    def __post_init__(self):
        d = self.disc
        _require_bounded(d)
        factors = factorint(d)  # trial division: up to 10^6 steps at MAX_DISCRIMINANT
        twos = factors.get(2, 0)
        if d == 1 or any(e > 1 for p, e in factors.items() if p != 2) or not (
            twos == 0 and d % 4 == 1 or twos == 2 and d // 4 % 4 == 3 or twos == 3
        ):
            raise SchemaViolation(f"{d} is not a fundamental discriminant")
        object.__setattr__(self, "support", frozenset(factors))

    @property
    def is_real(self) -> bool:
        return self.disc > 0

    @property
    def label(self) -> str:
        return f"quadratic({self.disc})"

    def group(self) -> FiniteGroup:
        return abelian_group([2])

    def tau(self) -> int:
        return 1

    def frobenius(self, p: int) -> int:
        """Frobenius at an unramified p: 0 if p splits, else tau."""
        return 0 if kronecker(self.disc, p) == 1 else 1


@dataclass(frozen=True)
class RadicalCMPiece:
    """Galois CM octic M = Q(sqrt d1, sqrt d2, sqrt gamma), gamma totally
    negative in L = Q(sqrt d1, sqrt d2), with Gal(M/Q) one of Q8 / D4 and
    complex conjugation the central involution (Gal(M/L), L = M+).

    gamma = c0 + c1 sqrt(d1) + c2 sqrt(d2) + c3 sqrt(d1 d2).  The Galois-group
    identification is construction knowledge (recorded in ``assertion``); the
    splitting tests below are exact.
    """

    kind: str  # "quaternion8" | "dihedral4"
    d1: int
    d2: int
    gamma: tuple[int, int, int, int]
    ramified: frozenset[int]
    label: str
    assertion: str
    is_real = False

    def group(self) -> FiniteGroup:
        return quaternion_group() if self.kind == "quaternion8" else dihedral_group(4)

    def tau(self) -> int:
        # Q8: -1 at index 1; D4: a^2 at index 2
        return 1 if self.kind == "quaternion8" else 2

    @property
    def support(self) -> frozenset[int]:
        return self.ramified

    @property
    def base_discriminants(self) -> tuple[int, int]:
        """Discriminants D of Q(sqrt d1), Q(sqrt d2): an odd p splits in L
        exactly when (D|p) = 1 for both (8 and 12 for Q8, 8 and 28 for D4)."""
        return tuple(d if d % 4 == 1 else 4 * d for d in (self.d1, self.d2))

    def frobenius(self, p: int) -> int:
        """Frobenius at an unramified odd p as a group element; only the
        central cases are decidable from splitting data, so p must split in
        the real biquadratic base L (else AmbiguousDecomposition).
        """
        if p in self.ramified:
            raise RamifiedPrime(f"{p} ramifies in {self.label}")
        if p == 2:
            raise AmbiguousDecomposition("p = 2 not supported for radical pieces")
        if kronecker(self.d1, p) != 1 or kronecker(self.d2, p) != 1:
            raise AmbiguousDecomposition(
                f"{p} does not split in Q(sqrt {self.d1}, sqrt {self.d2}); "
                "Frobenius is not determined by splitting data"
            )
        s = sqrt_mod_p(self.d1 % p, p)
        t = sqrt_mod_p(self.d2 % p, p)
        c0, c1, c2, c3 = self.gamma
        symbols = set()
        for es in (1, -1):
            for et in (1, -1):
                val = (c0 + c1 * es * s + c2 * et * t + c3 * es * et * s * t) % p
                if val == 0:
                    raise RamifiedPrime(f"{p} divides a conjugate of gamma in {self.label}")
                symbols.add(pow(val, (p - 1) // 2, p))
        if symbols == {1}:
            return self.group().identity
        if symbols == {p - 1}:
            return self.tau()
        raise AmbiguousDecomposition(
            f"inconsistent residue symbols for {self.label} at {p}; "
            "piece data does not describe a Galois octic with central conjugation"
        )


# Witt's classical Q8 octic over Q(sqrt2, sqrt3), twisted totally negative:
# M = Q(sqrt2, sqrt3, sqrt(-(2+sqrt2)(3+sqrt3))).
Q8_PIECE = RadicalCMPiece(
    kind="quaternion8",
    d1=2,
    d2=3,
    gamma=(-6, -3, -2, -1),
    ramified=frozenset({2, 3}),
    label="q8-witt-cm",
    assertion=(
        "Gal(M/Q) = Q8 with central complex conjugation for "
        "M = Q(sqrt2, sqrt3, sqrt(-(2+sqrt2)(3+sqrt3))) (Witt construction)"
    ),
)

# D4 CM octic: Galois closure of Q(sqrt(-3-sqrt2)), i.e. L(sqrt gamma) for
# L = Q(sqrt2, sqrt7), gamma = -3-sqrt2 (norm 7 over Q(sqrt2)).
D4_PIECE = RadicalCMPiece(
    kind="dihedral4",
    d1=2,
    d2=7,
    gamma=(-3, -1, 0, 0),
    ramified=frozenset({2, 7}),
    label="d4-radical-cm",
    assertion=(
        "Gal(M/Q) = D4 with central complex conjugation for "
        "M = Q(sqrt2, sqrt7, sqrt(-3-sqrt2)) (closure of the non-normal quartic "
        "X^4 + 6X^2 + 7)"
    ),
)

BUILTIN_PIECES = {"q8": Q8_PIECE, "d4": D4_PIECE}


# -- compositum builder -----------------------------------------------------------


def _radicand(disc: int) -> int:
    """The squarefree d with Q(sqrt disc) = Q(sqrt d)."""
    return disc if disc % 4 == 1 else disc // 4


@dataclass(frozen=True)
class MultiquadraticField:
    """The totally real field Q(sqrt d_1, ..., sqrt d_k) given by its
    discriminants (k = 0 is Q), as built by ``multiquadratic_field``."""

    discs: tuple[int, ...]
    is_totally_real = True

    @property
    def degree(self) -> int:
        return 1 << len(self.discs)

    def document(self) -> dict:
        """The base field's entry in a descriptor document."""
        return {"base": {"multiquadratic": list(self.discs)}}


def multiquadratic_field(components) -> MultiquadraticField:
    """R = Q(sqrt d1, ..., sqrt dk) for real QuadraticComponents, whose
    discriminants are checked and factored already.

    By Kummer theory [R:Q] = 2^k exactly when no nonempty product of the
    radicands is a square.  Each squarefree radicand is its set of primes,
    the primes of the component's support that divide it, a vector over F_2,
    reduced here against a basis of the earlier ones.  The roots
    +-sqrt d1 +- ... +- sqrt dk are real, so R has signature (2^k, 0).

    Raises Reducible when [R:Q] < 2^k.
    """
    discs = tuple(comp.disc for comp in components)
    basis: dict[int, frozenset[int]] = {}  # largest prime of a vector -> the vector
    for comp in components:
        radicand = _radicand(comp.disc)
        vector = frozenset(p for p in comp.support if radicand % p == 0)
        while vector and max(vector) in basis:
            vector ^= basis[max(vector)]
        if not vector:
            raise Reducible(f"a product of the radicands of {list(discs)} is a square")
        basis[max(vector)] = vector
    return MultiquadraticField(discs)


def _real_components(discs) -> tuple[QuadraticComponent, ...]:
    """One QuadraticComponent per entry of a document's discriminant list.

    Raises SchemaViolation for an entry that exceeds MAX_DISCRIMINANT
    (checked for every entry before any is factored) or is not a positive
    fundamental discriminant."""
    for d in discs:
        _require_bounded(d)
    components = []
    for d in discs:
        try:
            comp = QuadraticComponent(d) if d > 0 else None
        except SchemaViolation:
            comp = None
        if comp is None:
            raise SchemaViolation(f"{d} is not a positive fundamental discriminant")
        components.append(comp)
    return tuple(components)


class Compositum:
    """The part of a compositum descriptor that does not depend on p.

    K is the compositum of the components and R the compositum of the
    totally real ones; exactly one CM piece among the components supplies G
    and tau.  Building a Compositum separates the real quadratics from the
    CM piece, checks their pairwise linear disjointness and builds R, G and
    tau, once; ``at(p)`` then gives the descriptor of K/R at each prime p.

    Raises NotLinearlyDisjoint when two components share discriminant
    support, as a component listed twice does.  Real quadratics of pairwise
    coprime support give [R:Q] = 2^k, which ``multiquadratic_field`` still
    checks.
    """

    def __init__(self, components):
        real_quads = [comp for comp in components if comp.is_real]
        cm_pieces = [comp for comp in components if not comp.is_real]
        if len(cm_pieces) != 1:
            raise SchemaViolation(f"exactly one CM piece required, got {len(cm_pieces)}")
        cm = cm_pieces[0]

        # pairwise linear disjointness via coprime discriminant support; equal
        # labels mean equal, non-empty supports, so this refuses duplicates too
        labelled = [(q.label, q.support) for q in real_quads] + [(cm.label, cm.support)]
        for i, (la, sa) in enumerate(labelled):
            for lb, sb in labelled[:i]:
                if sa & sb:
                    raise NotLinearlyDisjoint(
                        f"{la} and {lb} share discriminant support {sorted(sa & sb)}"
                    )

        self.base = multiquadratic_field(sorted(real_quads, key=lambda q: q.disc))

        self.group, self.tau = cm.group(), cm.tau()
        self.cm = cm
        self.real_quads = tuple(real_quads)
        self.notes = (f"asserted:{cm.assertion}",) if cm.assertion else ()
        self.label = "K=" + "*".join([cm.label] + [q.label for q in real_quads])

    def at(self, p: int, frob: int | None = None) -> ExtensionDescriptor:
        """The descriptor of K/R at p; raises RamifiedPrime if p ramifies in
        any component.  ``frob`` is the CM piece's Frobenius at p,
        ``self.cm.frobenius(p)``, for a caller that has computed it already;
        left out, it is computed here.

        The 2^k/ord_r primes of R above p share ord_r and G_w, so they are
        one record with that count, labelled "v1-v<count>"."""
        require_prime(p)
        for comp in self.real_quads + (self.cm,):
            if p in comp.support:
                raise RamifiedPrime(f"{p} ramifies in {comp.label}")
        if frob is None:
            frob = self.cm.frobenius(p)

        # Frobenius order in the real multiquadratic part
        ord_r = 1
        for quad in self.real_quads:
            if discriminant_symbol(quad.disc, p) != 1:
                ord_r = 2
                break
        G = self.group
        g_w = G.subgroup_generated_by([G.power(frob, ord_r)])
        t = 2 ** len(self.real_quads) // ord_r
        record = PrimeRecord("v1" if t == 1 else f"v1-v{t}", 1, ord_r, g_w, t)
        return ExtensionDescriptor(
            base=self.base,
            group=G,
            tau=self.tau,
            p=p,
            primes=(record,),
            assertions=self.notes,
            label=f"{self.label}/R,p={p}",
            construction=self.cm,
        )


def build_compositum_over_Q(components, p: int) -> ExtensionDescriptor:
    """Descriptor for K/R with K the compositum of the components, R the
    compositum of the totally real ones, and exactly one CM piece among the
    components supplying tau: ``Compositum(components).at(p)``.

    Raises NotLinearlyDisjoint when two components share discriminant
    support and RamifiedPrime if p ramifies in any component.
    """
    return Compositum(components).at(p)


# -- ingestion ---------------------------------------------------------------------

SCHEMA_ID = "gkcert/extension-descriptor/v1"


def ingest_extension(document) -> ExtensionDescriptor:
    """Validate and load an extension-descriptor document (see docs/formats.md).

    Raises SchemaViolation, naming the JSON path, for shape errors and
    InvariantViolation (with the failed invariant named) for semantic ones.
    """
    doc = Node(document)
    if doc.get("schema", SCHEMA_ID).string() != SCHEMA_ID:
        raise SchemaViolation(f"schema: unknown schema {doc['schema'].value!r}")
    try:
        group = build_group(doc["group"])
    except InvalidTable as exc:
        raise InvariantViolation("group", str(exc)) from exc
    obj = doc.object()
    if ("base_poly" in obj) == ("base" in obj):
        raise SchemaViolation("document: give exactly one of base_poly and base")
    node = doc["base_poly"] if "base_poly" in obj else doc["base"]["multiquadratic"]
    values = node.integers()
    try:
        if "base_poly" in obj:
            base = make_field(from_vector(values))
        else:
            base = multiquadratic_field(_real_components(values))
    except SchemaViolation as exc:  # not a positive fundamental discriminant, or too large
        raise SchemaViolation(f"{node.path}: {exc}") from exc
    except (NotMonic, Reducible, IrreducibilityUndecided) as exc:
        raise InvariantViolation("base field", f"{node.path}: {exc}") from exc

    records = []
    for i, entry in enumerate(doc["primes"].items()):
        sub = frozenset(entry["decomposition_subgroup"].integers())
        if any(k in entry.object() for k in ("e", "f", "g")):
            # optional K-level cross-check data: all three or none
            e, f, g = (entry[k].integer() for k in ("e", "f", "g"))
            if e * f * g != group.order:
                raise InvariantViolation(
                    "local-global degree", f"primes[{i}]: e*f*g = {e*f*g} != |G| = {group.order}"
                )
            if e * f != len(sub):
                raise InvariantViolation(
                    "local-global degree", f"primes[{i}]: e*f = {e*f} != |G_w| = {len(sub)}"
                )
        count = entry.get("count", 1)
        if count.integer() < 1:
            raise SchemaViolation(f"{count.path}: expected a positive integer, got {count.value}")
        records.append(
            PrimeRecord(
                label=entry.get("label", f"v{i+1}").string(),
                e_base=entry["e_base"].integer(),
                f_base=entry["f_base"].integer(),
                decomposition=sub,
                count=count.value,
            )
        )
    return ExtensionDescriptor(
        base=base,
        group=group,
        tau=doc["tau"].integer(),
        p=doc["p"].prime_candidate(),
        primes=tuple(records),
        assertions=tuple(doc.get("assertions", []).strings()),
        label=doc.get("label", "").string(),
    )


def to_document(ext: ExtensionDescriptor) -> dict:
    """Serialize back to the document schema (stable key content)."""
    kind = ext.group.spec[0]
    if kind == "abelian":
        gspec = {"kind": "abelian", "data": list(ext.group.spec[1])}
    elif kind == "dihedral":
        gspec = {"kind": "dihedral", "data": ext.group.spec[1]}
    elif kind == "quaternion8":
        gspec = {"kind": "quaternion8"}
    else:
        gspec = {"kind": "table", "data": [list(r) for r in ext.group.table]}
    return {
        "schema": SCHEMA_ID,
        "label": ext.label,
        **ext.base.document(),
        "p": ext.p,
        "group": gspec,
        "tau": ext.tau,
        "primes": [
            {
                "label": rec.label,
                "e_base": rec.e_base,
                "f_base": rec.f_base,
                "decomposition_subgroup": sorted(rec.decomposition),
                **({"count": rec.count} if rec.count != 1 else {}),
            }
            for rec in ext.primes
        ],
        "assertions": list(ext.assertions),
    }
