"""Certificates: verified conclusions with an explicit hypothesis audit trail.

Every certificate names the rule that produced it (a fixed descriptive key),
lists each hypothesis as Verified (checked from descriptor data by this
package) or Asserted (supplied by the caller or by construction knowledge),
and carries a digest of its inputs.  A certificate with any Asserted
hypothesis is conditional.  The store is an append-only JSON-lines file
keyed by certificate digest, so re-running a pipeline never duplicates
entries and serialize -> parse -> serialize is the identity.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass

from .errors import SchemaViolation


class Status(enum.Enum):
    VERIFIED = "verified"
    ASSERTED = "asserted"


@dataclass(frozen=True)
class Hypothesis:
    statement: str
    status: Status
    detail: str = ""

    def to_json(self) -> dict:
        out = {"statement": self.statement, "status": self.status.value}
        if self.detail:
            out["detail"] = self.detail
        return out

    @staticmethod
    def from_json(obj: dict) -> "Hypothesis":
        return Hypothesis(
            statement=obj["statement"],
            status=Status(obj["status"]),
            detail=obj.get("detail", ""),
        )


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

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion.value,
            "subject": self.subject,
            "rule": self.rule,
            "conditional": self.conditional,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "payload": {k: v for k, v in self.payload},
            "inputs_digest": self.inputs_digest,
            "digest": self.digest(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        return Certificate(
            conclusion=Conclusion(obj["conclusion"]),
            subject=obj["subject"],
            rule=obj["rule"],
            hypotheses=tuple(Hypothesis.from_json(h) for h in obj["hypotheses"]),
            payload=tuple(sorted(obj["payload"].items())),
            inputs_digest=obj["inputs_digest"],
        )

    def digest(self) -> str:
        """The hash of the certificate's content, computed once per object and
        kept in the instance ``__dict__``, outside the dataclass fields (so
        outside ``to_json``, ``__eq__`` and ``__hash__``)."""
        memo = self.__dict__.get("_digest")
        if memo is not None:
            return memo
        blob = json.dumps(
            {
                "conclusion": self.conclusion.value,
                "subject": self.subject,
                "rule": self.rule,
                "hypotheses": [h.to_json() for h in self.hypotheses],
                "payload": {k: v for k, v in self.payload},
                "inputs_digest": self.inputs_digest,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        memo = self.__dict__["_digest"] = hashlib.sha256(blob).hexdigest()[:16]
        return memo


def make_certificate(conclusion, subject, rule, hypotheses, payload, inputs_digest) -> Certificate:
    return Certificate(
        conclusion=conclusion,
        subject=subject,
        rule=rule,
        hypotheses=tuple(hypotheses),
        payload=tuple(sorted(payload.items())),
        inputs_digest=inputs_digest,
    )


class CertificateStore:
    """Append-only, content-addressed JSON-lines store.

    Loading rejects, with the path and line, any line that is not a
    certificate or whose stored digest or ``conditional`` flag is not its
    own (an edited entry).  An unparsable final line with no newline is a
    write cut short: its bytes go to ``<path>.torn``, the store keeps the
    complete lines, and ``diagnostics`` says so.
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
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        obj = json.loads(line)
                    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                        if line.endswith(b"\n"):
                            raise SchemaViolation(f"{self.path}:{lineno}: not JSON: {exc}") from exc
                        torn = True  # the final line of a write cut short
                        break
                    self._load_entry(obj, f"{self.path}:{lineno}")
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

    def _load_entry(self, obj, where: str) -> None:
        try:
            cert = Certificate.from_json(obj)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"{where}: not a certificate: {exc!r}") from exc
        d, stored = cert.digest(), obj.get("digest")
        if stored != d:
            raise SchemaViolation(f"{where}: stored digest {stored!r} is not {d}; edited entry")
        # the digest leaves the flag out, as it follows from the hypotheses
        flag = obj.get("conditional")
        if flag is not cert.conditional:
            raise SchemaViolation(
                f"{where}: stored conditional {flag!r} is not {cert.conditional}; edited entry"
            )
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
                    fh.write(json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":")) + "\n")
                    self._by_digest[d] = cert
        return len(new)
