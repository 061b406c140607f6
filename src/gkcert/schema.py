"""Typed reading of the JSON documents that come from outside gkcert.

Every input document is read through ``Node``, so a missing value or one of
the wrong type is a SchemaViolation naming its JSON path, as in
``primes[0].e_base: expected an integer, got 'x'``.  Nothing is coerced: a
bool is not an integer, and a float or a string is never read as one.
"""

from __future__ import annotations

import json
import reprlib

from .errors import SchemaViolation
from .numutil import MR_BOUND


def read_text(path) -> str:
    """A UTF-8 file's text; other bytes are a SchemaViolation naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"{path} is not UTF-8: {exc}") from exc


def parse_json(text: str, where) -> object:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SchemaViolation(f"{where} is not JSON: {exc}") from exc


def read_json(path) -> object:
    return parse_json(read_text(path), path)


class Node:
    """A JSON value and its path from the document root.  ``node[key]`` is a
    member; each accessor returns the value if it has the accessor's type."""

    def __init__(self, value, path: str = ""):
        self.value, self.path = value, path

    def _expect(self, ok: bool, want: str):
        if not ok:
            where = self.path or "document"
            raise SchemaViolation(f"{where}: expected {want}, got {reprlib.repr(self.value)}")
        return self.value

    def __getitem__(self, key: str) -> Node:
        member = self.get(key)
        if key not in self.value:
            raise SchemaViolation(f"{member.path}: missing")
        return member

    def get(self, key: str, default=None) -> Node:
        """The member, or ``default`` in its place when it is absent."""
        return Node(self.object().get(key, default), f"{self.path}.{key}" if self.path else key)

    def object(self) -> dict:
        return self._expect(isinstance(self.value, dict), "an object")

    def items(self) -> list[Node]:
        values = self._expect(isinstance(self.value, (list, tuple)), "a list")
        return [Node(v, f"{self.path}[{i}]") for i, v in enumerate(values)]

    def integer(self) -> int:
        return self._expect(_is_integer(self.value), "an integer")

    def prime_candidate(self) -> int:
        """An integer below MR_BOUND, where ``is_prime`` is proven; whether
        it is prime is left to the caller."""
        value = self.integer()
        if value >= MR_BOUND:
            raise SchemaViolation(
                f"{self.path}: {value} is at or above {MR_BOUND}, where primality is not proven"
            )
        return value

    def nullable(self, read):
        """None for a null value, else ``read(self)``, as in ``node.nullable(Node.integer)``."""
        return None if self.value is None else read(self)

    def integers(self) -> list[int]:
        values = self._expect(isinstance(self.value, (list, tuple)), "a list")
        if all(map(_is_integer, values)):
            return list(values)
        return [item.integer() for item in self.items()]  # raises at the first non-integer

    def string(self) -> str:
        return self._expect(isinstance(self.value, str), "a string")

    def strings(self) -> list[str]:
        return [item.string() for item in self.items()]


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
