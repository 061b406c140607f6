"""Ingested class-group tower data and the ambiguous-class-number evaluation.

A tower holds, per layer n of the cyclotomic Z_p-extension, the ingested
orders |A'_n|, |(A'_n)+|, the ramification-index ratio e(K_n/K)/e(K_n+/K+)
and the two p-unit norm indices.  The Chevalley/Gras identity evaluated here
predicts the minus-part order

    |((A'_n)^-)^{Gamma_n}| = |A'_0|/|(A'_0)+| * ram_ratio(n)
                             * norm_index_plus(n)/norm_index_full(n),

and the minus Gross-Kuz'min statement is equivalent to these orders
stabilizing: once two consecutive layers agree, they agree forever, so a
repeated value certifies the bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import InvariantViolation, MissingLayer, NonPPower, NotPrime, SchemaViolation
from .numutil import require_prime
from .schema import Node

TOWER_SCHEMA_ID = "gkcert/tower-data/v1"


def p_power_exponent(value: int, p: int) -> int:
    """k with value = p^k, or raise NonPPower."""
    if value < 1:
        raise NonPPower(f"{value} is not a power of {p}")
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    if value != 1:
        raise NonPPower(f"{value * p**k} is not a power of {p}")
    return k


@dataclass(frozen=True)
class TowerLayer:
    n: int
    order_a_prime: int  # |A'_n|
    order_a_prime_plus: int  # |(A'_n)+|
    ram_ratio: int  # e(K_n/K) / e(K_n+/K+)
    norm_index_plus: int  # [E'_{K+} : N_n(K_n+) cap E'_{K+}]
    norm_index_full: int  # [E'_K : N_n(K_n) cap E'_K]
    minus_order: int | None = None  # independently ingested |((A'_n)^-)^{Gamma_n}|


@dataclass(frozen=True)
class TowerData:
    label: str
    p: int
    r: int  # split-prime count (for the p^{rn} boundary shape)
    layers: tuple[TowerLayer, ...]
    provenance: str = ""

    def __post_init__(self):
        require_prime(self.p)
        if not any(layer.n == 0 for layer in self.layers):
            raise SchemaViolation("layer 0 must be present")
        for layer in self.layers:
            for v in (
                layer.order_a_prime,
                layer.order_a_prime_plus,
                layer.ram_ratio,
                layer.norm_index_plus,
                layer.norm_index_full,
            ):
                p_power_exponent(v, self.p)
            if layer.minus_order is not None:
                p_power_exponent(layer.minus_order, self.p)

    def layer(self, n: int) -> TowerLayer:
        for layer in self.layers:
            if layer.n == n:
                return layer
        raise MissingLayer(f"tower {self.label!r} has no layer {n}")

    def layer_indices(self) -> list[int]:
        return sorted(layer.n for layer in self.layers)


@dataclass(frozen=True)
class ChevalleyResult:
    n: int
    predicted_minus_order: int  # |((A'_n)^-)^{Gamma_n}| from the identity
    rhs: Fraction
    consistent: bool
    ingested_minus_order: int | None


def chevalley_eval(tower: TowerData, n: int) -> ChevalleyResult:
    """Evaluate the ambiguous-class-number identity at layer n.

    ``consistent`` is True when the right-hand side is a nonnegative p-power
    and matches the independently ingested minus order, if one is present.
    """
    layer = tower.layer(n)
    base = tower.layer(0)
    rhs = (
        Fraction(base.order_a_prime, base.order_a_prime_plus)
        * layer.ram_ratio
        * Fraction(layer.norm_index_plus, layer.norm_index_full)
    )
    consistent = rhs.denominator == 1 and rhs >= 1
    predicted = 0
    if consistent:
        try:
            p_power_exponent(int(rhs), tower.p)
            predicted = int(rhs)
        except NonPPower:
            consistent = False
    if consistent and layer.minus_order is not None and layer.minus_order != predicted:
        consistent = False
    return ChevalleyResult(
        n=n,
        predicted_minus_order=predicted,
        rhs=rhs,
        consistent=consistent,
        ingested_minus_order=layer.minus_order,
    )


class Stability(enum.Enum):
    STABLE = "stable"
    NOT_STABLE = "not-stable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilizationResult:
    status: Stability
    bound: int | None  # the stabilized minus-part order, when STABLE
    detail: str


def gkc_minus_stabilization(tower: TowerData) -> StabilizationResult:
    """Stabilization check for the minus-part orders across consecutive layers.

    STABLE when two consecutive computed orders agree (the repeated value is
    the bound); NOT_STABLE when they increase strictly through the last
    layer; INCONCLUSIVE on insufficient or inconsistent data.
    """
    ns = tower.layer_indices()
    runs = [(a, b) for a, b in zip(ns, ns[1:]) if b == a + 1]
    if not runs:
        return StabilizationResult(Stability.INCONCLUSIVE, None, "need two consecutive layers")
    orders = {}
    for n in ns:
        res = chevalley_eval(tower, n)
        if not res.consistent:
            return StabilizationResult(
                Stability.INCONCLUSIVE, None, f"layer {n} fails the consistency checks"
            )
        orders[n] = res.predicted_minus_order
    stabilized = None
    for a, b in runs:
        if orders[a] == orders[b]:
            stabilized = (a, orders[a])
            break
    if stabilized is not None:
        n0, bound = stabilized
        later = [n for n in ns if n >= n0]
        if any(orders[n] != bound for n in later):
            return StabilizationResult(
                Stability.INCONCLUSIVE,
                None,
                f"orders change again after the repeat at layer {n0}; data inconsistent",
            )
        return StabilizationResult(
            Stability.STABLE, bound, f"orders agree at layers {n0} and {n0 + 1}"
        )
    increasing = all(orders[a] < orders[b] for a, b in zip(ns, ns[1:]))
    if increasing:
        return StabilizationResult(
            Stability.NOT_STABLE, None, "orders strictly increase through the last layer"
        )
    return StabilizationResult(Stability.INCONCLUSIVE, None, "no consecutive repeat found")


# -- file format ----------------------------------------------------------------


# a layer object has one member per TowerLayer field; only minus_order is optional
_LAYER_FIELDS = tuple(f.name for f in fields(TowerLayer) if f.name != "minus_order")


def tower_from_document(document) -> TowerData:
    """Parse a tower document; any malformed field raises SchemaViolation
    naming its path, such as ``layers[0].n``, and a composite p or an order
    that is not a power of p raises InvariantViolation."""
    doc = Node(document)
    if doc.get("schema", TOWER_SCHEMA_ID).string() != TOWER_SCHEMA_ID:
        raise SchemaViolation(f"schema: unknown schema {doc['schema'].value!r}")
    layers = tuple(
        TowerLayer(
            **{key: entry[key].integer() for key in _LAYER_FIELDS},
            minus_order=entry.get("minus_order").nullable(Node.integer),
        )
        for entry in doc["layers"].items()
    )
    try:
        return TowerData(
            label=doc["label"].string(),
            p=doc["p"].prime_candidate(),
            r=doc["r"].integer(),
            layers=layers,
            provenance=doc.get("provenance", "").string(),
        )
    except (NonPPower, NotPrime) as exc:
        raise InvariantViolation("tower data", str(exc)) from exc


def tower_to_document(tower: TowerData) -> dict:
    return {
        "schema": TOWER_SCHEMA_ID,
        "label": tower.label,
        "p": tower.p,
        "r": tower.r,
        "provenance": tower.provenance,
        "layers": [
            {
                **{key: getattr(layer, key) for key in _LAYER_FIELDS},
                **({"minus_order": layer.minus_order} if layer.minus_order is not None else {}),
            }
            for layer in tower.layers
        ],
    }
