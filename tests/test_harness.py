import json
import os
import time

import pytest

from gkcert.certificates import CertificateStore, Conclusion, asserted, make_certificate, verified
from gkcert.errors import MalformedRow, PoolExhausted, SchemaViolation
from gkcert.harness import (
    EXAMPLE_ROWS,
    RunConfig,
    check_example_table,
    config_from_dict,
    run,
    scan_split_primes,
    search_theoremB,
)
from gkcert.extensions import (
    BUILTIN_PIECES,
    Compositum,
    QuadraticComponent,
    RadicalCMPiece,
    ingest_extension,
    to_document,
)
from gkcert.intpoly import IntPoly
from gkcert.numberfield import cyclotomic_field, make_field


def test_scan_examples():
    gaussian = make_field(IntPoly([1, 0, 1]))
    root5 = make_field(IntPoly([-5, 0, 1]))
    assert scan_split_primes([gaussian, root5], 50) == [29, 41]
    assert scan_split_primes([cyclotomic_field(5)], 50) == [11, 31, 41]
    assert scan_split_primes([gaussian], 3) == []


def test_scan_reverification_pass():
    # every returned prime re-verifies as totally split via splitting_type
    from gkcert.numberfield import splitting_type

    fields = [make_field(IntPoly([1, 0, 1])), cyclotomic_field(5)]
    for p in scan_split_primes(fields, 200):
        for F in fields:
            st = splitting_type(F, p)
            assert st.is_totally_split and len(st.entries) == F.degree


def test_scan_skips_unsafe_primes(tmp_path):
    # X^2 - 63 = X^2 - 3^2 * 7: 3 divides the index [O : Z[sqrt 63]], so
    # Dedekind's theorem does not apply at 3, although 3 splits in Q(sqrt 7)
    F = make_field(IntPoly([-63, 0, 1]))
    skipped = []
    primes = scan_split_primes([F], 40, skipped)
    assert primes == [19, 29, 31, 37]
    assert skipped == [f"skipping p = 3; Dedekind-unsafe for {F} (splitting not certified)"]
    # a run reports the skip among its diagnostics, and only once
    cfg = config_from_dict(
        {
            "pipelines": ["scan"],
            "prime_bound": 40,
            "out_dir": str(tmp_path / "out"),
            "scan": {"field_vectors": [[-63, 0]]},
        }
    )
    result = run(cfg)
    assert [row["prime"] for row in result.rows] == primes
    assert [d for d in result.diagnostics if "Dedekind-unsafe" in d] == [f"scan: {skipped[0]}"]


def test_search_theorem_b_minimal():
    hits = search_theoremB(pool=[5], target_r=1, prime_bound=600, cm_piece="q8", max_hits=1)
    assert hits and hits[0].achieved_r >= 2
    # target 1 with an empty pool is fine: R = Q
    hits0 = search_theoremB(pool=[], target_r=1, prime_bound=600, cm_piece="q8", max_hits=1)
    assert hits0[0].descriptor.base.degree == 1
    assert hits0[0].achieved_r == 2  # 2 * |S_p(Q)|


def test_search_pool_exhausted():
    with pytest.raises(PoolExhausted):
        search_theoremB(pool=[], target_r=2, prime_bound=100, cm_piece="q8")
    with pytest.raises(PoolExhausted):
        # pool only has discs sharing support with the Q8 piece {2, 3}
        search_theoremB(pool=[8, 12, 24], target_r=2, prime_bound=100, cm_piece="q8")
    with pytest.raises(PoolExhausted):
        # qualifying primes exist only beyond the bound
        search_theoremB(pool=[5], target_r=2, prime_bound=10, cm_piece="q8")


def test_search_d4_piece():
    hits = search_theoremB(pool=[5], target_r=1, prime_bound=600, cm_piece="d4", max_hits=1)
    assert hits and hits[0].achieved_r >= 2
    assert hits[0].descriptor.group.spec == ("dihedral", 4)


POOL = [5, 13, 17, 29, 37, 41, 53, 61]


def test_search_builds_the_base_once(monkeypatch):
    from gkcert import extensions

    calls = []
    original = extensions.multiquadratic_field

    def counted(discs):
        calls.append(discs)
        return original(discs)

    monkeypatch.setattr(extensions, "multiquadratic_field", counted)
    hits = search_theoremB(pool=POOL, target_r=4, prime_bound=1000, cm_piece="q8", max_hits=None)
    assert len(hits) >= 3
    assert calls == [(5, 13)]
    assert all(hit.descriptor.base is hits[0].descriptor.base for hit in hits)


def test_search_computes_each_cm_frobenius_once(monkeypatch):
    asked = []
    original = RadicalCMPiece.frobenius

    def counted(self, p):
        asked.append(p)
        return original(self, p)

    monkeypatch.setattr(RadicalCMPiece, "frobenius", counted)
    for piece in ("q8", "d4"):
        asked.clear()
        hits = search_theoremB(pool=POOL, target_r=4, prime_bound=3000, cm_piece=piece, max_hits=None)
        assert len(hits) >= 3 and len(asked) > len(hits)
        assert len(asked) == len(set(asked))  # hits included
        # the descriptor built from the filter's Frobenius is the one at(p) builds
        compositum = Compositum([BUILTIN_PIECES[piece]] + [QuadraticComponent(d) for d in hits[0].discs])
        for hit in hits:
            assert compositum.at(hit.p) == hit.descriptor


def test_search_certificate_digests_pinned():
    # recorded when the 16 primes of R became one record with a count, and a
    # certificate citing a conditional one became conditional
    (hit,) = search_theoremB(pool=POOL, target_r=16, prime_bound=2100, cm_piece="q8", max_hits=1)
    assert (hit.p, hit.discs, hit.achieved_r) == (2089, (5, 13, 17, 29), 32)
    doc = to_document(hit.descriptor)
    assert doc["base"] == {"multiquadratic": [5, 13, 17, 29]} and "base_poly" not in doc
    assert hit.descriptor.digest() == "a426618f48f722ce"
    assert [c.digest() for c in hit.outcome.certificates] == [
        "f5db9c30e35c7bc1",
        "9a74cba34454c623",
        "3011fc0154073641",
    ]


@pytest.mark.parametrize("pool", [[5], [5, 13], [5, 13, 17, 29]])
def test_search_descriptors_round_trip(pool):
    hits = search_theoremB(
        pool=pool, target_r=1 << len(pool), prime_bound=3000, cm_piece="q8", max_hits=None
    )
    for hit in hits:
        d = hit.descriptor
        assert not any(note.startswith("asserted:base") for note in d.assertions)
        assert ingest_extension(to_document(d)).digest() == d.digest()


def _reference_search(pool, target_r, prime_bound, cm_piece):
    """search_theoremB's hits and notes from a per-prime filter: every prime,
    every pool symbol (d|p), then the CM Frobenius."""
    from gkcert.harness import _choose_pool_subset
    from gkcert.errors import AmbiguousDecomposition, RamifiedPrime
    from gkcert.numutil import discriminant_symbol, primes_upto
    from gkcert.rules import certify

    piece = BUILTIN_PIECES[cm_piece]
    skipped = []
    discs = _choose_pool_subset(pool, piece, target_r, skipped)
    compositum = Compositum([piece] + [QuadraticComponent(d) for d in discs])
    hits = []
    for p in primes_upto(prime_bound):
        if p == 2 or p in piece.ramified:
            continue
        if any(discriminant_symbol(d, p) != 1 for d in discs):
            continue
        try:
            frob = piece.frobenius(p)
        except (AmbiguousDecomposition, RamifiedPrime):
            continue
        if frob != piece.group().identity:
            continue
        ext = compositum.at(p, frob)
        outcome = certify(ext)
        r_S = max((c.payload_dict()["r_S"] for c in outcome.by_rule("gkc-gvc-equivalence")), default=0)
        if r_S < 2 * target_r:
            skipped.append(f"p = {p} certified only r_S = {r_S}; skipped")
            continue
        hits.append((p, discs, ext.digest(), r_S, [c.digest() for c in outcome.certificates]))
    return hits, skipped


@pytest.mark.parametrize("piece", ["q8", "d4"])
@pytest.mark.parametrize(
    "pool, target_r, bound",
    [(POOL, 4, 3000), ([5, 29, 113, 181], 16, 20_000), ([9, 21, 5, 13, 17, 29], 16, 10_000)],
)
def test_search_sieve_matches_per_prime_filter(piece, pool, target_r, bound):
    skipped = []
    hits = search_theoremB(
        pool=pool, target_r=target_r, prime_bound=bound, cm_piece=piece, skipped=skipped
    )
    got = [
        (h.p, h.discs, h.descriptor.digest(), h.achieved_r, [c.digest() for c in h.outcome.certificates])
        for h in hits
    ]
    want_hits, want_skipped = _reference_search(pool, target_r, bound, piece)
    assert len(got) >= 3
    assert got == want_hits
    assert skipped == want_skipped


def _search_config(tmp_path, pool):
    return config_from_dict(
        {
            "pipelines": ["search-b"],
            "out_dir": str(tmp_path / "out"),
            "search_b": {"target_r": 16, "pool": pool, "cm_piece": "q8", "prime_bound": 2100},
        }
    )


def test_search_skipped_pool_entries_reach_diagnostics(tmp_path):
    result = run(_search_config(tmp_path, [9, 21, 5, 13, 17, 29]))
    assert result.ok
    assert result.rows[0]["base_discriminants"] == [5, 13, 17, 29]
    assert result.diagnostics == [
        "search-b: 9 is not a fundamental discriminant; skipped",
        "search-b: skipping discriminant 21 (shares support with q8-witt-cm)",
    ]


def test_search_hits_with_too_small_r_reach_diagnostics(tmp_path, monkeypatch):
    from gkcert import harness
    from gkcert.rules import CertifyOutcome

    monkeypatch.setattr(harness, "certify", lambda ext, assumptions=(): CertifyOutcome())
    result = run(_search_config(tmp_path, [5, 13, 17, 29]))
    assert result.violations == ["search-b: no prime <= 2100 qualifies"]
    assert result.diagnostics == ["search-b: p = 2089 certified only r_S = 0; skipped"]


def test_check_example_table_published_rows():
    verdicts = check_example_table(EXAMPLE_ROWS)
    assert len(verdicts) == 5
    for verdict in verdicts:
        facts = {name: status for name, status, _ in verdict.facts}
        assert facts["polynomial-monic-irreducible"] == "verified"
        assert facts["base-totally-real"] == "verified"
        assert facts["degree-identity"] == "verified"
        assert facts["ray-class-construction"] == "unverifiable"
        assert verdict.ok


def test_check_example_table_rejects_malformed():
    with pytest.raises(MalformedRow):
        check_example_table([{"p": 2, "poly": [1, 2], "modulus": "p_3", "degree_k": 19, "r_bound": 3}])
    with pytest.raises(MalformedRow):
        check_example_table([{"p": 4, "poly": [1, 2], "modulus": "p_3", "degree_k": 18, "r_bound": 3}])
    with pytest.raises(MalformedRow):
        check_example_table([(2, [1], "p_3", 18)])


def test_check_example_table_detects_failures():
    rows = [{"p": 3, "poly": [-6, 5, 0], "modulus": "p_7", "degree_k": 18, "r_bound": 3}]
    verdicts = check_example_table(rows)  # x^3 + 5x - 6 is reducible
    facts = {name: status for name, status, _ in verdicts[0].facts}
    assert facts["polynomial-monic-irreducible"] == "failed"
    assert not verdicts[0].ok
    rows = [{"p": 3, "poly": [-12, -26, 0], "modulus": "p_7", "degree_k": 20, "r_bound": 3}]
    facts = {n: s for n, s, _ in check_example_table(rows)[0].facts}
    assert facts["degree-identity"] == "failed"


def test_run_check_table_and_idempotence(tmp_path):
    cfg = config_from_dict(
        {"pipelines": ["check-table"], "out_dir": str(tmp_path / "out"), "seed": 7}
    )
    result = run(cfg)
    assert result.ok and len(result.rows) == 5
    blobs = {}
    for path in result.outputs:
        with open(path, "rb") as fh:
            blobs[path] = fh.read()
    result2 = run(cfg)
    for path in result2.outputs:
        with open(path, "rb") as fh:
            assert fh.read() == blobs[path]  # byte-identical rerun


def test_run_certify_pipeline_with_store(tmp_path):
    desc_path = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data",
                             "descriptors", "gaussian_p13.json")
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [os.path.abspath(desc_path)]},
        }
    )
    result = run(cfg)
    assert result.ok and result.certificates
    store_path = str(tmp_path / "out" / "certificates.jsonl")
    store = CertificateStore(store_path)
    n = len(store)
    assert n == len(result.certificates)
    # rerun: no duplicates
    run(cfg)
    assert len(CertificateStore(store_path)) == n
    # store round trip: serialize -> parse -> serialize identical
    with open(store_path) as fh:
        lines = fh.read()
    reparsed = CertificateStore(store_path)
    tmp2 = str(tmp_path / "copy.jsonl")
    copy = CertificateStore(tmp2)
    copy.add_all(reparsed)
    with open(tmp2) as fh:
        assert fh.read() == lines


def test_run_certify_rejects_p_two(tmp_path):
    doc = {
        "base_poly": [0],
        "p": 2,
        "group": {"kind": "abelian", "data": [2]},
        "tau": 1,
        "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]}],
    }
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(doc))
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [str(path)]},
        }
    )
    result = run(cfg)
    assert not result.ok
    assert any("p = 2" in v for v in result.violations)


def test_run_reports_missing_file(tmp_path):
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [str(tmp_path / "nope.json")]},
        }
    )
    result = run(cfg)
    assert not result.ok
    assert [v.split(": ")[:2] for v in result.violations] == [
        ["certify", str(tmp_path / "nope.json")]
    ]
    assert result.outputs  # the report is still written


def test_run_certify_unreadable_descriptor_is_a_violation(tmp_path):
    # unreadable files are reported; the other descriptor is still certified
    gaussian = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data",
                            "descriptors", "gaussian_p13.json")
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"base_poly": [0')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)  # deeper than the JSON decoder recurses
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [str(truncated), os.path.abspath(gaussian), str(binary), str(deep)]},
        }
    )
    result = run(cfg)
    assert not result.ok
    assert [v.split(": ")[:2] for v in result.violations] == [
        ["certify", str(truncated)], ["certify", str(binary)], ["certify", str(deep)]
    ]
    with open(tmp_path / "out" / "report.json") as fh:
        rows = json.load(fh)["rows"]
    assert [row["group_order"] for row in rows] == [2]


TOWER_DEMO = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data",
                          "descriptors", "tower_demo.json")


def _tower_doc(**changes):
    with open(TOWER_DEMO) as fh:
        doc = json.load(fh)
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(None, id="missing"),
        pytest.param('{"label": "t", "p": 11', id="truncated"),
        pytest.param(b"\xff\xfe{", id="not-utf8"),
        pytest.param({k: v for k, v in _tower_doc().items() if k != "layers"}, id="no-layers"),
        pytest.param(
            _tower_doc(layers=[dict(_tower_doc()["layers"][0], order_a_prime=12)]), id="not-a-p-power"
        ),
        pytest.param(_tower_doc(p=12), id="composite-p"),
    ],
)
def test_run_certify_bad_tower_file_is_a_violation(tmp_path, content):
    gaussian = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data",
                            "descriptors", "gaussian_p13.json")
    tower = tmp_path / "tower.json"
    if isinstance(content, bytes):
        tower.write_bytes(content)
    elif isinstance(content, str):
        tower.write_text(content)
    elif content is not None:
        tower.write_text(json.dumps(content))
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [os.path.abspath(gaussian)],
                        "towers": [os.path.abspath(TOWER_DEMO), str(tower)]},
        }
    )
    result = run(cfg)
    assert [v.split(": ")[:2] for v in result.violations] == [["certify", str(tower)]]
    assert result.rows == [] and result.certificates == []
    assert (tmp_path / "out" / "report.json").exists()


def test_run_certify_tower_with_non_integer_layer_is_a_violation(tmp_path):
    gaussian = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data",
                            "descriptors", "gaussian_p13.json")
    layers = _tower_doc()["layers"]
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(_tower_doc(layers=[dict(layers[0], n="x")] + layers[1:])))
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [os.path.abspath(gaussian)], "towers": [str(tower)]},
        }
    )
    result = run(cfg)
    assert result.violations == [f"certify: {tower}: layers[0].n: expected an integer, got 'x'"]
    with open(tmp_path / "out" / "report.json") as fh:
        assert json.load(fh)["rows"] == []


GOOD_ROW = {"p": 2, "poly": [-12, -26, 0], "modulus": "p_79", "degree_k": 18, "r_bound": 3}


@pytest.mark.parametrize(
    "rows, bad_index",
    [
        pytest.param([GOOD_ROW, dict(GOOD_ROW, p=4)], 1, id="composite-p"),
        pytest.param([{k: v for k, v in GOOD_ROW.items() if k != "poly"}, GOOD_ROW], 0, id="no-poly"),
        pytest.param([GOOD_ROW, dict(GOOD_ROW, p="x")], 1, id="string-p"),
        pytest.param([dict(GOOD_ROW, degree_k="4"), GOOD_ROW], 0, id="string-degree"),
        pytest.param([GOOD_ROW, dict(GOOD_ROW, r_bound=1.5)], 1, id="float-r-bound"),
        pytest.param([GOOD_ROW, [2, 5, "p_79", 18, 3]], 1, id="list-row-int-poly"),
        pytest.param(5, None, id="top-level-int"),
        pytest.param({"rows": [GOOD_ROW]}, None, id="top-level-object"),
    ],
)
def test_run_check_table_malformed_row_is_a_violation(tmp_path, rows, bad_index):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    cfg = config_from_dict(
        {"pipelines": ["check-table"], "out_dir": str(tmp_path / "out"), "check_table": {"rows": str(path)}}
    )
    result = run(cfg)
    where = [f"rows[{bad_index}]"] if bad_index is not None else []
    assert [v.split(": ")[: 2 + len(where)] for v in result.violations] == [
        ["check-table", str(path), *where]
    ]
    # the well-formed rows are still checked and reported
    assert [row["ok"] for row in result.rows] == ([True] if bad_index is not None else [])
    assert (tmp_path / "out" / "report.json").exists()


def test_config_digest_names_the_effective_config():
    base = {"pipelines": ["scan"], "scan": {"field_vectors": [[1, 0]]}}
    digest = config_from_dict(base).digest()
    # the raw seed key is ignored, and the output directory is not hashed
    assert config_from_dict({**base, "seed": 7}).digest() == digest
    assert config_from_dict({**base, "out_dir": "elsewhere"}).digest() == digest
    assert config_from_dict({**base, "prime_bound": 50}).digest() != digest


def test_config_defaults_are_the_run_config_defaults():
    assert config_from_dict({}) == RunConfig()


def test_config_refuses_a_pool_discriminant_above_the_bound():
    huge = 10**30 + 57  # the first prime = 1 mod 4 above 10^30
    started = time.perf_counter()
    with pytest.raises(SchemaViolation, match=r"search_b\.pool\[1\]: 10+57 exceeds"):
        config_from_dict({"pipelines": ["search-b"], "search_b": {"pool": [5, huge, 13]}})
    assert time.perf_counter() - started < 0.1
    # called directly, the search notes the entry and goes on without it
    skipped = []
    hits = search_theoremB(pool=[5, -huge, 13], target_r=4, prime_bound=3000, max_hits=1, skipped=skipped)
    assert hits[0].discs == (5, 13)
    assert skipped == [f"discriminant {-huge} exceeds the bound 1000000000000 in absolute value; skipped"]


def test_run_search_pipeline(tmp_path):
    cfg = config_from_dict(
        {
            "pipelines": ["search-b"],
            "out_dir": str(tmp_path / "out"),
            "search_b": {"target_r": 1, "pool": [5], "prime_bound": 600, "max_hits": 1},
        }
    )
    result = run(cfg)
    assert result.ok and result.rows[0]["pipeline"] == "search-b"
    assert result.rows[0]["achieved_r_S"] >= 2
    # report pipeline renders the stored certificates
    cfg2 = config_from_dict(
        {
            "pipelines": ["report"],
            "out_dir": str(tmp_path / "out"),
        }
    )
    result2 = run(cfg2)
    assert {row["digest"] for row in result2.rows} >= {c.digest() for c in result.certificates}


def test_polynomial_db_loading(tmp_path):
    db = tmp_path / "fields.txt"
    db.write_text("# comment\n[1, 0]\n\n[-5, 0]\n")
    cfg = config_from_dict(
        {
            "pipelines": ["scan"],
            "prime_bound": 50,
            "out_dir": str(tmp_path / "out"),
            "scan": {"polynomial_db": str(db)},
        }
    )
    result = run(cfg)
    assert [row["prime"] for row in result.rows] == [29, 41]


def test_run_certify_skips_klingen_above_scale_bound(tmp_path):
    # |G| = 66 > 64: the rules that need a character table are skipped with a
    # diagnostic, and the remaining rules still certify the descriptor
    gaussian = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data",
                            "descriptors", "gaussian_p13.json")
    c66 = tmp_path / "c66.json"
    c66.write_text(json.dumps({
        "base_poly": [0],
        "p": 5,
        "group": {"kind": "abelian", "data": [66]},
        "tau": 33,
        "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]}],
    }))
    cfg = config_from_dict(
        {
            "pipelines": ["certify"],
            "out_dir": str(tmp_path / "out"),
            "certify": {"descriptors": [os.path.abspath(gaussian), str(c66)]},
        }
    )
    result = run(cfg)
    assert result.ok
    with open(tmp_path / "out" / "report.json") as fh:
        rows = json.load(fh)["rows"]
    assert [row["group_order"] for row in rows] == [2, 66]
    assert {"split-rank-bound", "abelian-split-rank-zero"} <= set(rows[1]["rules"])
    assert "klingen-character-bound" not in rows[1]["rules"]
    assert any(
        d.startswith(f"{c66}: klingen-character-bound:") and "bound" in d
        for d in result.diagnostics
    )


def test_run_scan_unreadable_polynomial_db_is_a_violation(tmp_path):
    missing = tmp_path / "missing.txt"
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"[1, 0]\n\xff\xfe\n")
    for db in (missing, binary):
        out = tmp_path / db.stem
        cfg = config_from_dict(
            {"pipelines": ["scan"], "out_dir": str(out), "scan": {"polynomial_db": str(db)}}
        )
        result = run(cfg)
        assert [v.split(": ")[:2] for v in result.violations] == [["scan", str(db)]]
        assert result.rows == [] and (out / "report.json").exists()


def test_run_check_table_unreadable_rows_is_a_violation(tmp_path):
    missing = tmp_path / "missing.json"
    truncated = tmp_path / "truncated.json"
    truncated.write_text('[{"p": 2, "poly": [-12')
    for rows in (missing, truncated):
        out = tmp_path / rows.stem
        cfg = config_from_dict(
            {"pipelines": ["check-table"], "out_dir": str(out), "check_table": {"rows": str(rows)}}
        )
        result = run(cfg)
        assert [v.split(": ")[:2] for v in result.violations] == [["check-table", str(rows)]]
        assert result.rows == [] and (out / "report.json").exists()


def test_run_recovers_from_torn_store_write(tmp_path):
    path = tmp_path / "certificates.jsonl"
    first, second, third = (
        make_certificate(
            Conclusion.GKC_MINUS, f"K{i}", "klingen-abelian-compositum",
            [verified("p is totally split in K/Q"), asserted("Leopoldt's conjecture holds")],
            {"r_S": i}, f"inputs-{i}",
        )
        for i in range(3)
    )
    store = CertificateStore(path)
    store.add_all([first, second])
    whole = path.read_bytes()
    path.write_bytes(whole[:-40])  # the write of the second entry was cut short
    torn = whole[whole.index(b"\n") + 1 : -40]
    result = run(config_from_dict({"pipelines": ["report"], "out_dir": str(tmp_path)}))
    assert result.ok and [row["subject"] for row in result.rows] == ["K0"]
    assert [d for d in result.diagnostics if d.startswith("store: ")] == [
        f"store: {path}: moved a torn final line ({len(torn)} bytes) to {path}.torn"
    ]
    assert (tmp_path / "certificates.jsonl.torn").read_bytes() == torn + b"\n"
    CertificateStore(path).add(second)
    assert path.read_bytes() == whole
    assert list(CertificateStore(path)) == [first, second]
    # a write cut just before its newline keeps the entry and ends the line
    path.write_bytes(whole[:-1])
    store = CertificateStore(path)
    assert list(store) == [first, second] and store.diagnostics == []
    store.add(third)
    assert list(CertificateStore(path)) == [first, second, third]
