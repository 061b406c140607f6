"""Certificates: verified conclusions with an explicit hypothesis audit trail.

Every certificate names the rule that produced it (a fixed descriptive key),
lists each hypothesis as Verified (checked from descriptor data by this
package) or Asserted (supplied by the caller or by construction knowledge),
and carries a digest of its inputs.  A certificate with any Asserted
hypothesis is conditional.  The store is an append-only JSON-lines file
keyed by certificate digest, so re-running a pipeline never duplicates
entries and serialize -> parse -> serialize is the identity.  A certificate
is encoded once: its canonical content text gives the digest, and its store
line is that text with the ``conditional`` flag and the digest spliced in.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string

from .errors import SchemaViolation


# canonical JSON: sorted keys, no spaces, ASCII only; one encoder object, so
# no call builds its own
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def content_digest(obj) -> str:
    """The first 16 hex digits of the SHA-256 of ``obj`` as canonical JSON,
    or of ``obj`` itself when it is that JSON's bytes already: the one recipe
    behind every digest gkcert writes (certificates, extension descriptors,
    run configs)."""
    blob = obj if isinstance(obj, bytes) else canonical_json(obj).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Status(enum.Enum):
    VERIFIED = "verified"
    ASSERTED = "asserted"


@dataclass(frozen=True)
class Hypothesis:
    statement: str
    status: Status
    detail: str = ""


def verified(statement: str, detail: str = "") -> Hypothesis:
    return Hypothesis(statement, Status.VERIFIED, detail)


def asserted(statement: str, detail: str = "") -> Hypothesis:
    return Hypothesis(statement, Status.ASSERTED, detail)


class Conclusion(enum.Enum):
    GKC_MINUS = "GKC-(K)"
    GKC_CHI = "GKC(K/R,chi)"
    GKC_CHI_EXISTS = "GKC(K/R,chi) for some odd chi"
    GVC_CHI = "GVC(K/R,chi)"
    RANK_BOUND = "rank bound"
    LEOPOLDT = "Leopoldt criterion"


# the text of each conclusion's member, which opens a certificate's canonical
# text, since "conclusion" is the first key in sorted order
_HEADS = {c: '{"conclusion":' + json.dumps(c.value) for c in Conclusion}


def _hypothesis_text(h: Hypothesis) -> str:
    """The canonical JSON of a hypothesis: ``detail`` (left out when empty),
    ``statement`` and ``status``, in that sorted order."""
    head = f'{{"detail":{_json_string(h.detail)},' if h.detail else "{"
    return f'{head}"statement":{_json_string(h.statement)},"status":"{h.status.value}"}}'


def _content_text(cert: Certificate, hypotheses: list[str]) -> str:
    """The canonical JSON of what ``cert``'s digest hashes, given its
    hypotheses' texts: an object of every field, ``payload`` as an object,
    in sorted key order, each string as ``json.dumps`` writes it (so those
    fields must be strings).  ``conditional`` is left out, as it follows
    from the hypotheses."""
    return (
        f'{_HEADS[cert.conclusion]},"hypotheses":[{",".join(hypotheses)}]'
        f',"inputs_digest":{_json_string(cert.inputs_digest)}'
        f',"payload":{canonical_json(dict(cert.payload))}'
        f',"rule":{_json_string(cert.rule)},"subject":{_json_string(cert.subject)}}}'
    )


def _store_line(cert: Certificate, text: str, digest: str) -> str:
    """The store line, without its newline, of ``cert`` with canonical
    content text ``text``: the members ``conditional`` and ``digest``, which
    sort right after ``conclusion``, spliced in after it, so the line is
    the canonical JSON of the content with those two members added."""
    cut = len(_HEADS[cert.conclusion])
    flag = "true" if cert.conditional else "false"
    return f'{text[:cut]},"conditional":{flag},"digest":"{digest}"{text[cut:]}'


@dataclass(frozen=True)
class Certificate:
    conclusion: Conclusion
    subject: str  # descriptor label (+ character id where relevant)
    rule: str  # rule-base citation key
    hypotheses: tuple[Hypothesis, ...]
    payload: tuple[tuple[str, object], ...]  # sorted key/value facts
    inputs_digest: str

    @property
    def conditional(self) -> bool:
        return any(h.status is Status.ASSERTED for h in self.hypotheses)

    def payload_dict(self) -> dict:
        return dict(self.payload)

    def digest(self) -> str:
        """The hash of the certificate's canonical content text, computed once
        per object.  Digest and text are kept in the instance ``__dict__``,
        outside the dataclass fields (so outside the store line, ``__eq__``
        and ``__hash__``), and the store line is spliced from the text."""
        memo = self.__dict__.get("_digest")
        if memo is None:
            text = self.__dict__["_text"] = self._canonical_text()
            memo = self.__dict__["_digest"] = content_digest(text.encode())
        return memo

    def _canonical_text(self) -> str:
        return _content_text(self, [_hypothesis_text(h) for h in self.hypotheses])

    def store_line(self) -> str:
        """The certificate's line in a store, without its newline, spliced
        from the text the digest hashed (written again only for a
        certificate loaded from a store)."""
        digest = self.digest()
        return _store_line(self, self.__dict__.get("_text") or self._canonical_text(), digest)


def make_certificate(conclusion, subject, rule, hypotheses, payload, inputs_digest) -> Certificate:
    return Certificate(
        conclusion=conclusion,
        subject=subject,
        rule=rule,
        hypotheses=tuple(hypotheses),
        payload=tuple(sorted(payload.items())),
        inputs_digest=inputs_digest,
    )


def _from_json(obj: dict, known: dict) -> tuple[Certificate, str]:
    """The certificate that ``obj``, a parsed store line, holds, and its
    canonical content text.  ``known`` maps a hypothesis's JSON items to the
    hypothesis and its text, so that a store load builds and encodes each
    distinct hypothesis once."""
    hypotheses, texts = [], []
    for h in obj["hypotheses"]:
        key = tuple(h.items())
        got = known.get(key)
        if got is None:
            hyp = Hypothesis(h["statement"], Status(h["status"]), h.get("detail", ""))
            got = known[key] = (hyp, _hypothesis_text(hyp))
        hypotheses.append(got[0])
        texts.append(got[1])
    cert = Certificate(
        conclusion=Conclusion(obj["conclusion"]),
        subject=obj["subject"],
        rule=obj["rule"],
        hypotheses=tuple(hypotheses),
        payload=tuple(sorted(obj["payload"].items())),
        inputs_digest=obj["inputs_digest"],
    )
    return cert, _content_text(cert, texts)


class CertificateStore:
    """Append-only, content-addressed JSON-lines store.

    Loading rejects, with the path and line, any line that is not a
    certificate, whose stored digest or ``conditional`` flag is not its own
    (an edited entry), or that is not the canonical JSON of the certificate
    it holds, the line ``add_all`` writes.  The digest is checked on that
    canonical text, which is the line's own bytes less the flag and digest;
    a load encodes each distinct hypothesis once and no certificate whole.
    An unparsable final line with no newline is a write cut short: its
    bytes go to ``<path>.torn``, the store keeps the complete lines, and
    ``diagnostics`` says so.
    """

    def __init__(self, path):
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._by_digest: dict[str, Certificate] = {}
        self.diagnostics: list[str] = []
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        kept, line, torn = 0, b"", False  # bytes through the last line kept
        known: dict = {}  # hypotheses met so far, for _from_json
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                    if line.endswith(b"\n"):
                        raise SchemaViolation(f"{self.path}:{lineno}: not JSON: {exc}") from exc
                    torn = True  # the final line of a write cut short
                    break
                self._load_entry(line, obj, known, f"{self.path}:{lineno}")
                kept += len(line)
        if torn:
            with open(self.path + ".torn", "ab") as fh:
                fh.write(line + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            with open(self.path, "r+b") as fh:
                fh.truncate(kept)
            self.diagnostics.append(
                f"{self.path}: moved a torn final line ({len(line)} bytes) to {self.path}.torn"
            )
        elif line and not line.endswith(b"\n"):  # a whole entry whose newline was cut off
            with open(self.path, "ab") as fh:
                fh.write(b"\n")

    def _load_entry(self, line: bytes, obj, known: dict, where: str) -> None:
        try:
            cert, text = _from_json(obj, known)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"{where}: not a certificate: {exc!r}") from exc
        d, stored = content_digest(text.encode()), obj.get("digest")
        if stored != d:
            raise SchemaViolation(f"{where}: stored digest {stored!r} is not {d}; edited entry")
        # the digest leaves the flag out, as it follows from the hypotheses
        flag = obj.get("conditional")
        if flag is not cert.conditional:
            raise SchemaViolation(
                f"{where}: stored conditional {flag!r} is not {cert.conditional}; edited entry"
            )
        # the line must be the one gkcert writes, so the digest was checked on
        # the line's own content bytes
        if line.removesuffix(b"\n") != _store_line(cert, text, d).encode():
            raise SchemaViolation(
                f"{where}: not in canonical form: the line is not the canonical JSON"
                " of the certificate it holds"
            )
        cert.__dict__["_digest"] = d  # but not the text, so a loaded store stays small
        self._by_digest[d] = cert

    def __len__(self):
        return len(self._by_digest)

    def __iter__(self):
        # insertion order = file order, so serialize -> parse -> serialize
        # reproduces the file byte for byte
        return iter(self._by_digest.values())

    def __contains__(self, cert: Certificate):
        return cert.digest() in self._by_digest

    def add(self, cert: Certificate) -> bool:
        """Append if new; returns True when the store grew."""
        return self.add_all([cert]) == 1

    def add_all(self, certs) -> int:
        """Append each certificate not yet stored, opening the file once; returns how many."""
        new = {d: cert for cert in certs if (d := cert.digest()) not in self._by_digest}
        if new:
            with open(self.path, "a", encoding="utf-8") as fh:
                for d, cert in new.items():
                    fh.write(cert.store_line() + "\n")
                    self._by_digest[d] = cert
        return len(new)
