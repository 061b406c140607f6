import json
import random
import re
from fractions import Fraction

import pytest

from gkcert.errors import MissingLayer, NonPPower, SchemaViolation
from gkcert.towers import (
    Stability,
    TowerData,
    TowerLayer,
    chevalley_eval,
    gkc_minus_stabilization,
    tower_from_document,
    tower_to_document,
)


def make_tower(p, r, rows, label="t"):
    layers = tuple(TowerLayer(*row) for row in rows)
    return TowerData(label=label, p=p, r=r, layers=layers)


def test_chevalley_example():
    # layer 1, p=3: |A0'|=3, |(A0')+|=1, ram 3, indices 1 and 3 -> 3*3*(1/3) = 3
    tower = make_tower(3, 1, [(0, 3, 1, 1, 1, 1), (1, 9, 1, 3, 1, 3)])
    res = chevalley_eval(tower, 1)
    assert res.predicted_minus_order == 3 and res.consistent
    assert res.rhs == Fraction(3)


def test_chevalley_boundary_p_power():
    # all layer-0 data and indices 1, ram_ratio = p^(r n) -> exactly p^(r n)
    p, r = 5, 2
    rows = [(n, 1, 1, p ** (r * n), 1, 1) for n in range(4)]
    tower = make_tower(p, r, rows)
    for n in range(4):
        res = chevalley_eval(tower, n)
        assert res.predicted_minus_order == p ** (r * n) and res.consistent


def test_chevalley_inconsistent_rhs():
    # norm_index_full too large -> rhs not an integer p-power
    tower = make_tower(3, 1, [(0, 3, 1, 1, 1, 27), (1, 3, 1, 3, 1, 81)])
    assert not chevalley_eval(tower, 0).consistent


def test_chevalley_against_ingested_lhs():
    tower = make_tower(3, 1, [(0, 3, 1, 1, 1, 1, 3), (1, 9, 1, 3, 1, 3, 9)])
    assert chevalley_eval(tower, 0).consistent  # lhs 3 matches
    assert not chevalley_eval(tower, 1).consistent  # lhs 9 != predicted 3


def test_missing_layer_and_p_power_validation():
    tower = make_tower(3, 1, [(0, 3, 1, 1, 1, 1)])
    with pytest.raises(MissingLayer):
        chevalley_eval(tower, 2)
    with pytest.raises(NonPPower):
        make_tower(3, 1, [(0, 6, 1, 1, 1, 1)])
    with pytest.raises(SchemaViolation):
        make_tower(3, 1, [(1, 3, 1, 3, 1, 1)])  # no layer 0


def test_stabilization_stable():
    tower = make_tower(3, 1, [(n, 3, 1, 3**n, 1, 3 ** max(0, n - 1)) for n in range(4)])
    # orders: 3, 9, 9, 9 -> stable from layer 1
    res = gkc_minus_stabilization(tower)
    assert res.status is Stability.STABLE and res.bound == 9


def test_stabilization_not_stable():
    tower = make_tower(3, 1, [(n, 3, 1, 3**n, 1, 1) for n in range(4)])
    # orders 3, 9, 27, 81 strictly increasing
    res = gkc_minus_stabilization(tower)
    assert res.status is Stability.NOT_STABLE


def test_stabilization_inconclusive():
    tower = make_tower(3, 1, [(0, 3, 1, 1, 1, 1)])
    assert gkc_minus_stabilization(tower).status is Stability.INCONCLUSIVE
    # non-consecutive layers only
    tower2 = make_tower(3, 1, [(0, 3, 1, 1, 1, 1), (2, 3, 1, 9, 1, 9)])
    assert gkc_minus_stabilization(tower2).status is Stability.INCONCLUSIVE


def test_chevalley_random_against_fraction_oracle():
    rng = random.Random(55)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        a0 = p ** rng.randrange(0, 4)
        a0p = p ** rng.randrange(0, 3)
        rows = [(0, a0, a0p, 1, 1, 1)]
        for n in range(1, rng.randrange(2, 5)):
            rows.append(
                (
                    n,
                    p ** rng.randrange(0, 5),
                    p ** rng.randrange(0, 3),
                    p ** rng.randrange(0, 6),
                    p ** rng.randrange(0, 3),
                    p ** rng.randrange(0, 3),
                )
            )
        tower = make_tower(p, rng.randrange(1, 3), rows)
        for n, *_ in rows:
            layer = tower.layer(n)
            base = tower.layer(0)
            expected = (
                Fraction(base.order_a_prime, base.order_a_prime_plus)
                * layer.ram_ratio
                * Fraction(layer.norm_index_plus, layer.norm_index_full)
            )
            res = chevalley_eval(tower, n)
            assert res.rhs == expected
            if expected.denominator == 1 and expected >= 1:
                from gkcert.towers import p_power_exponent

                try:
                    p_power_exponent(int(expected), p)
                    assert res.consistent and res.predicted_minus_order == int(expected)
                except NonPPower:
                    assert not res.consistent


def test_document_round_trip(tmp_path):
    tower = make_tower(11, 1, [(0, 11, 1, 1, 1, 1), (1, 121, 1, 11, 1, 11)])
    doc = tower_to_document(tower)
    assert tower_from_document(json.loads(json.dumps(doc))) == tower
    assert tower_to_document(tower_from_document(doc)) == doc


def _demo_document(**changes):
    doc = tower_to_document(make_tower(11, 1, [(0, 11, 1, 1, 1, 1), (1, 121, 1, 11, 1, 11)]))
    doc.update(changes)
    return doc


def _layer(i, **changes):
    return dict(_demo_document()["layers"][i], **changes)


@pytest.mark.parametrize(
    "doc, path",
    [
        pytest.param(_demo_document(layers=[_layer(0, n="x"), _layer(1)]), "layers[0].n", id="string-n"),
        pytest.param(_demo_document(layers=[_layer(0), _layer(1, ram_ratio=11.0)]), "layers[1].ram_ratio",
                     id="float-ram-ratio"),
        pytest.param(_demo_document(layers=[_layer(0), _layer(1, minus_order="11")]), "layers[1].minus_order",
                     id="string-minus-order"),
        pytest.param(_demo_document(layers=[_layer(0), _layer(1, n=True)]), "layers[1].n", id="bool-n"),
        pytest.param(_demo_document(layers={"0": _layer(0)}), "layers", id="layers-not-a-list"),
        pytest.param(_demo_document(layers=[_layer(0), 5]), "layers[1]", id="layer-not-an-object"),
        pytest.param(_demo_document(p="11"), "p", id="string-p"),
        pytest.param(_demo_document(r=None), "r", id="null-r"),
        pytest.param(_demo_document(label=None), "label", id="null-label"),
        pytest.param(_demo_document(provenance=[1]), "provenance", id="list-provenance"),
    ],
)
def test_document_schema_violation_names_the_path(doc, path):
    with pytest.raises(SchemaViolation, match=rf"^{re.escape(path)}: expected an? "):
        tower_from_document(doc)
