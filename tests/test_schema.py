"""Input documents are read through gkcert.schema: a value of the wrong type
is a SchemaViolation naming its JSON path, never a coerced value or a crash."""

import glob
import json
import os
import re
import time

import pytest

from gkcert.errors import SchemaViolation
from gkcert.extensions import ingest_extension
from gkcert.groups import MAX_INGESTED_ORDER
from gkcert.harness import EXAMPLE_ROWS, check_example_table, config_from_dict, run
from gkcert.numutil import MR_BOUND, is_prime
from gkcert.towers import tower_from_document

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DATA = os.path.join(ROOT, "src", "gkcert", "data", "descriptors")
TOWER = os.path.join(DATA, "tower_demo.json")
DESCRIPTORS = sorted(p for p in glob.glob(os.path.join(DATA, "*.json")) if p != TOWER)
D4 = os.path.join(DATA, "d4_split_demo.json")
D6 = os.path.join(DATA, "d6_counting_demo.json")  # p = 11, like the tower
EXAMPLE_CONFIG = os.path.join(ROOT, "docs", "example-config.json")
MUTANTS = ("x", None, 1.5)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _replaced(doc, keys, value):
    """A copy of doc with the value at the path ``keys`` replaced."""
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return copy


def _mutations(doc):
    """Every copy of doc with one member, or one of the first three items of
    a list, replaced by one of MUTANTS."""

    def locations(value, keys):
        children = value.items() if isinstance(value, dict) else enumerate(value[:3])
        for key, child in children:
            yield keys + (key,)
            if isinstance(child, (dict, list)):
                yield from locations(child, keys + (key,))

    for keys in locations(doc, ()):
        for mutant in MUTANTS:
            yield _replaced(doc, keys, mutant)


@pytest.mark.parametrize(
    "read, original, keys, value, path",
    [
        # 1.9 used to be truncated to 1, and "11" read as 11
        pytest.param(ingest_extension, D4, ("primes", 0, "e_base"), 1.9, "primes[0].e_base", id="float-e-base"),
        pytest.param(ingest_extension, D4, ("p",), "11", "p", id="string-p"),
        pytest.param(config_from_dict, EXAMPLE_CONFIG, ("prime_bound",), 1000.7, "prime_bound",
                     id="float-prime-bound"),
        pytest.param(config_from_dict, EXAMPLE_CONFIG, ("search_b", "target_r"), "4", "search_b.target_r",
                     id="string-target-r"),
    ],
)
def test_no_silent_coercion(read, original, keys, value, path):
    doc = _replaced(_load(original), keys, value)
    with pytest.raises(SchemaViolation, match=rf"^{re.escape(path)}: expected an integer, got "):
        read(doc)


def test_mutated_inputs_never_crash_a_run(tmp_path):
    out = tmp_path / "out"
    report = out / "report.json"
    inputs = [(path, lambda mutated: {"descriptors": [mutated]}) for path in DESCRIPTORS]
    inputs.append((TOWER, lambda mutated: {"descriptors": [D6], "towers": [mutated]}))
    count = 0
    for original, certify_section in inputs:
        for i, mutant in enumerate(_mutations(_load(original))):
            path = tmp_path / f"{i}-{os.path.basename(original)}"
            path.write_text(json.dumps(mutant))
            if report.exists():
                report.unlink()
            config = {"pipelines": ["certify"], "out_dir": str(out), "certify": certify_section(str(path))}
            result = run(config_from_dict(config))
            assert report.exists()
            assert all(v.startswith(f"certify: {path}: ") for v in result.violations), result.violations
            count += 1
    assert count > 200


def test_mutated_config_is_read_or_a_schema_violation():
    for mutant in _mutations(_load(EXAMPLE_CONFIG)):
        try:
            config_from_dict(mutant)
        except SchemaViolation as exc:
            assert re.match(r"^[a-z_]+(\.[a-z_]+|\[\d\])*: ", str(exc)), str(exc)


def _descriptor_with_group(group, tau):
    return {
        "base_poly": [0],
        "p": 5,
        "group": group,
        "tau": tau,
        "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]}],
    }


BOUND = MAX_INGESTED_ORDER


@pytest.mark.parametrize(
    "group, tau, order",
    [
        # at the bound the group is built; above it, the violation names the order
        pytest.param({"kind": "abelian", "data": [BOUND]}, BOUND // 2, None, id="abelian-at-bound"),
        pytest.param({"kind": "dihedral", "data": BOUND // 2}, BOUND // 4, None, id="dihedral-at-bound"),
        pytest.param({"kind": "abelian", "data": [2, BOUND // 2 + 1]}, 1, BOUND + 2,
                     id="abelian-above-bound"),
        pytest.param({"kind": "dihedral", "data": BOUND // 2 + 1}, BOUND // 2 + 1, BOUND + 2,
                     id="dihedral-above-bound"),
        pytest.param({"kind": "table", "data": [[0] * 3] * (BOUND + 1)}, 1, BOUND + 1,
                     id="table-above-bound"),
        pytest.param({"kind": "dihedral", "data": 100000}, 1, 200000, id="dihedral-100000"),
    ],
)
def test_group_order_is_bounded_before_the_group_is_built(tmp_path, group, tau, order):
    # the order comes from the spec, so a group too large to validate in
    # |G|^3 steps is refused before its table exists
    assert BOUND >= 66  # the C66 descriptor of test_harness.py stays in scope
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(_descriptor_with_group(group, tau)))
    out = tmp_path / "out"
    started = time.monotonic()
    result = run(config_from_dict({"pipelines": ["certify"], "out_dir": str(out),
                                   "certify": {"descriptors": [str(path)]}}))
    assert time.monotonic() - started < 1.0
    assert (out / "report.json").exists()
    if order is None:
        assert result.ok, result.violations
        assert [row["group_order"] for row in result.rows] == [BOUND]
    else:
        assert result.violations == [f"certify: {path}: group: order {order} exceeds the bound {BOUND}"]


def test_a_p_at_the_primality_bound_is_refused_on_every_input_path():
    # MR_BOUND is composite, yet Miller-Rabin to the bases 2..41 calls it prime
    assert is_prime(MR_BOUND)
    gaussian = _load(os.path.join(DATA, "gaussian_p13.json"))
    for read, doc in (
        (ingest_extension, _replaced(gaussian, ["p"], MR_BOUND)),
        (tower_from_document, _replaced(_load(TOWER), ["p"], MR_BOUND)),
        (lambda row: check_example_table([row]), {**EXAMPLE_ROWS[1], "p": MR_BOUND}),
    ):
        started = time.perf_counter()
        with pytest.raises(SchemaViolation, match=rf"^p: {MR_BOUND} is at or above"):
            read(doc)
        assert time.perf_counter() - started < 0.1
    assert ingest_extension(_replaced(gaussian, ["p"], 13)).p == 13
