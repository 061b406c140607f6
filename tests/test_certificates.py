import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace

import pytest

from gkcert.certificates import (
    CertificateStore,
    Conclusion,
    asserted,
    make_certificate,
    verified,
)
from gkcert.errors import SchemaViolation
from gkcert.extensions import ingest_extension
from gkcert.harness import search_theoremB
from gkcert.rules import ASSUME_GKC_MINUS, ASSUME_TOWER_DISJOINT, certify
from gkcert.towers import tower_from_document
from helpers import certificate_json, reference_store_load

DESCRIPTORS = os.path.join(os.path.dirname(__file__), "..", "src", "gkcert", "data", "descriptors")


def _cert(i=0):
    return make_certificate(
        Conclusion.GVC_CHI, f"K{i} / chi1 (degree 2)", "gkc-gvc-equivalence",
        [verified("chi is totally odd"), asserted("GKC-(K) holds", "caller assumption")],
        {"r_S": 32, "chi_index": 4, "chi_degree": 2}, f"inputs-{i}",
    )


def _recomputed_digest(cert) -> str:
    """The digest from the certificate's content alone, never from a memo."""
    content = {k: v for k, v in certificate_json(cert).items() if k not in ("conditional", "digest")}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_digest_memo_is_invisible(tmp_path):
    c = _cert()
    d = c.digest()
    assert d == c.digest() == _recomputed_digest(c)
    fresh = _cert()
    assert c == fresh and hash(c) == hash(fresh)  # fresh has no memo yet
    fresh.digest()
    assert c == fresh and hash(c) == hash(fresh)
    assert set(json.loads(c.store_line())) == {
        "conclusion", "subject", "rule", "conditional", "hypotheses", "payload",
        "inputs_digest", "digest",
    }
    assert [f.name for f in fields(c)] == list(asdict(c))
    assert asdict(c) == asdict(_cert()) and repr(c) == repr(_cert())  # never hashed
    path = tmp_path / "certificates.jsonl"
    CertificateStore(path).add(c)
    [loaded] = CertificateStore(path)
    assert loaded == c and loaded.digest() == d
    assert "_text" not in loaded.__dict__  # a loaded certificate keeps no text
    # a certificate with other content is a new object with its own digest
    other = replace(c, subject="K1 / chi1 (degree 2)")
    assert other.digest() == _recomputed_digest(other) != d
    assert c != other


def test_store_still_rejects_a_line_edited_after_it_was_written(tmp_path):
    path = tmp_path / "certificates.jsonl"
    store = CertificateStore(path)
    certs = [_cert(i) for i in range(2)]
    for c in certs:
        c.digest()  # memoised before the write
    assert store.add_all(certs) == 2
    assert [c.digest() for c in CertificateStore(path)] == [c.digest() for c in certs]
    first, second = path.read_text().splitlines()
    path.write_text(first + "\n" + second.replace('"r_S":32', '"r_S":33') + "\n")
    with pytest.raises(SchemaViolation, match=f"{path}:2: stored digest"):
        CertificateStore(path)


def test_store_rejects_an_edited_conditional_flag(tmp_path):
    # the digest leaves the flag out, so only the flag check sees this edit
    path = tmp_path / "certificates.jsonl"
    CertificateStore(path).add_all([_cert(0), _cert(1)])
    first, second = path.read_text().splitlines()
    assert '"conditional":true' in first
    for flag in ("false", "null", "1"):
        path.write_text(first.replace('"conditional":true', f'"conditional":{flag}') + "\n" + second + "\n")
        with pytest.raises(SchemaViolation, match=f"{path}:1: stored conditional"):
            CertificateStore(path)
    # an unconditional certificate must be stored with false
    path.write_text("")
    plain = make_certificate(Conclusion.RANK_BOUND, "K", "rule", [verified("x")], {}, "inputs")
    CertificateStore(path).add(plain)
    assert len(CertificateStore(path)) == 1
    path.write_text(path.read_text().replace('"conditional":false', '"conditional":true'))
    with pytest.raises(SchemaViolation, match=f"{path}:1: stored conditional True is not False"):
        CertificateStore(path)


NOT_CANONICAL = "not in canonical form"


def _search_shaped_lines(tmp_path):
    """The lines of a store shaped like the search workload's: the three
    certificates of each of two search-b hits of both CM pieces."""
    path = tmp_path / "search.jsonl"
    store = CertificateStore(path)
    for piece in ("q8", "d4"):
        hits = search_theoremB(pool=[5, 13], target_r=4, prime_bound=3000, cm_piece=piece, max_hits=2)
        store.add_all(c for hit in hits for c in hit.outcome.certificates)
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    return lines


def _mutations(line):
    """(name, edited line, line ending) for each edit of one store line."""
    obj = json.loads(line)
    digest, flag = obj["digest"], f'"conditional":{json.dumps(obj["conditional"])}'
    payload_digit = re.compile(r'("payload":\{[^}]*?)(\d)')
    yield "payload digit", payload_digit.sub(lambda m: m[1] + str((int(m[2]) + 1) % 10), line, 1), "\n"
    status = re.search(r'"status":"(\w+)"', line)
    other = {"asserted": "verified", "verified": "asserted"}[status[1]]
    yield "status flip", line.replace(status[0], f'"status":"{other}"', 1), "\n"
    for value in ("true", "false", "null", "1"):
        yield f"flag {value}", line.replace(flag, f'"conditional":{value}', 1), "\n"
    yield "digest character", line.replace(digest, digest[:-1] + ("1" if digest[-1] == "0" else "0"), 1), "\n"
    yield "digest deleted", line.replace(f',"digest":"{digest}"', "", 1), "\n"
    yield "extra key", line[:-1] + ',"zzz":0}', "\n"
    yield "empty detail", re.sub(r'"detail":"(?:[^"\\]|\\.)+"', '"detail":""', line, 1), "\n"
    yield "reordered keys", json.dumps(dict(reversed(obj.items())), separators=(",", ":")), "\n"
    yield "added whitespace", json.dumps(obj, sort_keys=True), "\n"
    yield "CRLF line ending", line, "\r\n"
    yield "blank line", "\n" + line, "\n"  # inserted before the line
    yield "whitespace-only line", " \t\n" + line, "\n"
    yield "missing final newline", line, ""


BLANK_EDITS = {"blank line", "whitespace-only line"}


def _outcome(load, path):
    try:
        return "accepted", load(path)
    except SchemaViolation as exc:
        return "refused", str(exc)


def test_store_loader_refuses_every_line_the_reference_refuses(tmp_path):
    # the reference recomputes each digest from the parsed fields and skips
    # blank lines; the store checks each digest on the line's bytes, so it
    # also refuses the lines that are not the canonical JSON gkcert writes,
    # and blank lines as not JSON, and those alone
    lines = _search_shaped_lines(tmp_path)
    path = tmp_path / "certificates.jsonl"
    only_new, kinds = set(), set()
    for i, line in enumerate(lines):
        for name, mutated, ending in _mutations(line):
            if name == "missing final newline" and i != len(lines) - 1:
                continue
            before = "".join(l + "\n" for l in lines[:i])
            after = "".join(l + "\n" for l in lines[i + 1 :])
            path.write_bytes((before + mutated + ending + after).encode())
            ref = _outcome(reference_store_load, path)
            new = _outcome(lambda p: [(c.digest(), c) for c in CertificateStore(p)], path)
            kinds.add((name, ref[0], new[0]))
            if ref[0] == "refused":
                assert new[0] == "refused", (name, i)
            if new[0] == "refused":
                assert new[1].startswith(f"{path}:{i + 1}: "), (name, i, new[1])
                # refused by the store alone exactly when not canonical, or
                # not JSON for a blank line
                alone = "not JSON" if name in BLANK_EDITS else NOT_CANONICAL
                refused_alone = new[1].startswith(f"{path}:{i + 1}: {alone}")
                assert (ref[0] == "accepted") == refused_alone, (name, i, new[1])
                if ref[0] == "accepted":
                    only_new.add(name)
            else:
                assert new[1] == ref[1], (name, i)
    assert only_new == {"extra key", "reordered keys", "added whitespace", "CRLF line ending"} | BLANK_EDITS
    # every edit was tried, and the flag edits and edited content refused by both
    assert {name for name, ref, new in kinds if ref == new == "refused"} == {
        "payload digit", "status flip", "flag false", "flag null", "flag 1", "digest character",
        "digest deleted", "empty detail",
    }
    assert {name for name, ref, new in kinds if ref == new == "accepted"} == {
        "flag true", "missing final newline",
    }


def _shipped_and_search_certificates():
    """Every certificate of certify over the shipped extension descriptors
    (without and with the caller assumptions), of a search-b hit, and one
    with non-ASCII text."""
    with open(os.path.join(DESCRIPTORS, "tower_demo.json")) as fh:
        tower = tower_from_document(json.load(fh))
    certs = []
    for name in ("gaussian_p13.json", "d4_split_demo.json", "d6_counting_demo.json"):
        with open(os.path.join(DESCRIPTORS, name)) as fh:
            ext = ingest_extension(json.load(fh))
        for assumptions in ((), (ASSUME_GKC_MINUS, ASSUME_TOWER_DISJOINT)):
            outcome = certify(ext, tower=tower if tower.p == ext.p else None, assumptions=assumptions)
            certs.extend(outcome.certificates)
    (hit,) = search_theoremB(pool=[5, 13, 17, 29], target_r=16, prime_bound=2100, cm_piece="q8", max_hits=1)
    certs.extend(hit.outcome.certificates)
    certs.append(make_certificate(
        Conclusion.GVC_CHI, "K = Q(√5, ζ₁₂) / χ₁ (degree 2)", "gkc-gvc-equivalence",
        [verified("χ is totally odd", "χ(τ) = −χ(1)")], {"r_S": 2, "clé": "√5"}, "inputs-√",
    ))
    return certs


def test_store_line_is_the_canonical_json_of_the_certificate(tmp_path):
    # the line is spliced from the digest's text, never encoded from a dict
    certs = _shipped_and_search_certificates()
    assert {c.rule for c in certs} >= {
        "gkc-gvc-equivalence", "leopoldt-total-split", "klingen-abelian-compositum",
        "dihedral-odd-character-counting", "chevalley-stabilization",
    }
    want = [json.dumps(certificate_json(c), sort_keys=True, separators=(",", ":")) for c in certs]
    assert [replace(c, rule=c.rule).store_line() for c in certs] == want  # fresh objects, no memo
    path = tmp_path / "certificates.jsonl"
    CertificateStore(path).add_all(certs)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines == list(dict.fromkeys(want))
    loaded = list(CertificateStore(path))
    assert loaded == list(dict.fromkeys(certs))
    assert [c.store_line() for c in loaded] == lines  # a loaded certificate encodes its fields again


def store_rejections(directory):
    """(case, what the store said) for an edited entry, an edited flag, a
    line not in canonical form, a blank line, a torn final line and a
    whitespace-only final line with no newline, each in a new store; the
    store's path reads <store>."""
    line_edits = {
        "edited entry": lambda line: line.replace('"r_S":32', '"r_S":33'),
        "edited flag": lambda line: line.replace('"conditional":true', '"conditional":false'),
        "not canonical": lambda line: json.dumps(json.loads(line), sort_keys=True),
        "blank line": lambda line: "\n" + line,
    }
    file_edits = {
        "torn line": lambda whole: whole[:-40],
        "whitespace-only final line": lambda whole: whole + b" \t",
    }
    out = []
    for case in [*line_edits, *file_edits]:
        path = os.path.join(directory, case.replace(" ", "-") + ".jsonl")
        CertificateStore(path).add_all([_cert(0), _cert(1)])
        with open(path, "rb") as fh:
            whole = fh.read()
        first, second = whole.decode().splitlines()
        if case in line_edits:
            whole = f"{first}\n{line_edits[case](second)}\n".encode()
        with open(path, "wb") as fh:
            fh.write(file_edits[case](whole) if case in file_edits else whole)
        try:
            store = CertificateStore(path)
        except SchemaViolation as exc:
            said = str(exc)
        else:
            said = f"{len(store)} kept; " + "; ".join(store.diagnostics)
        out.append((case, said.replace(path, "<store>")))
    return out


STORE_REJECTIONS = {
    "edited entry": "<store>:2: stored digest ",
    "edited flag": "<store>:2: stored conditional False is not True; edited entry",
    "not canonical": f"<store>:2: {NOT_CANONICAL}",
    "blank line": "<store>:2: not JSON: ",
    "torn line": "1 kept; <store>: moved a torn final line",
    "whitespace-only final line": "2 kept; <store>: moved a torn final line (2 bytes)",
}


def _check_rejections(got):
    assert [case for case, _ in got] == list(STORE_REJECTIONS)
    assert all(said.startswith(STORE_REJECTIONS[case]) for case, said in got), got


def test_store_rejections(tmp_path):
    _check_rejections(store_rejections(str(tmp_path)))


def test_store_rejections_also_under_optimize():
    # the store's checks raise SchemaViolation, never assert, so python -O
    # refuses the same lines with the same words
    here = os.path.dirname(os.path.abspath(__file__))
    script = (
        "import tempfile\n"
        "from test_certificates import store_rejections\n"
        "with tempfile.TemporaryDirectory() as directory:\n"
        "    print(repr(store_rejections(directory)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, "..", "src"), here])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    _check_rejections(ast.literal_eval(proc.stdout.strip()))
