import hashlib
import json
from dataclasses import asdict, fields, replace

import pytest

from gkcert.certificates import (
    Certificate,
    CertificateStore,
    Conclusion,
    asserted,
    make_certificate,
    verified,
)
from gkcert.errors import SchemaViolation


def _cert(i=0):
    return make_certificate(
        Conclusion.GVC_CHI, f"K{i} / chi1 (degree 2)", "gkc-gvc-equivalence",
        [verified("chi is totally odd"), asserted("GKC-(K) holds", "caller assumption")],
        {"r_S": 32, "chi_index": 4, "chi_degree": 2}, f"inputs-{i}",
    )


def _recomputed_digest(cert) -> str:
    """The digest from the certificate's content alone, never from a memo."""
    content = {k: v for k, v in cert.to_json().items() if k not in ("conditional", "digest")}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_digest_memo_is_invisible():
    c = _cert()
    keys_before = set(c.to_json())
    d = c.digest()
    assert d == c.digest() == _recomputed_digest(c)
    fresh = _cert()
    assert c == fresh and hash(c) == hash(fresh)  # fresh has no memo yet
    fresh.digest()
    assert c == fresh and hash(c) == hash(fresh)
    assert set(c.to_json()) == keys_before == {
        "conclusion", "subject", "rule", "conditional", "hypotheses", "payload",
        "inputs_digest", "digest",
    }
    assert [f.name for f in fields(c)] == list(asdict(c))
    assert asdict(c) == asdict(_cert()) and repr(c) == repr(_cert())  # never hashed
    assert Certificate.from_json(c.to_json()).digest() == d
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
