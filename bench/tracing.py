"""Layer tracing for the traced benchmark run, installed from outside gkcert.

``install`` wraps the public entry points of each gkcert layer in every
gkcert module namespace that holds them (``from .x import f`` copies the
function object, so the defining module alone is not enough), and wraps the
methods on their classes.  Spans record name, parent, the id of the CLI call
they belong to, start and duration; self time is a span's duration minus the
time covered by its direct child spans.  Functions called tens of thousands
of times per pass get a plain counter instead of a span, so tracing does not
swamp what it measures; their time stays in the enclosing span's self time.
Spans stay in memory until ``write_spans`` is called after the pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class _Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "dur", "child", "tag", "error")

    def __init__(self, sid, parent, op, name, start, tag):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.dur = 0.0
        self.child = 0.0
        self.tag = tag
        self.error = None


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.op = None  # id of the CLI call in progress

    def span(self, name, fn, tag=None, key=None, after=None):
        """Wrap fn in a timed span.  ``tag(args)`` labels the span,
        ``key(args)`` is collected into a distinct-key set, ``after(result)``
        may bump counters from the return value."""
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            rec = _Span(
                len(tracer.spans),
                parent.sid if parent is not None else None,
                tracer.op,
                name,
                time.perf_counter(),
                tag(args) if tag else None,
            )
            if key is not None:
                tracer.keys.setdefault(name, set()).add(key(args))
            tracer.spans.append(rec)
            tracer.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.error = type(exc).__name__
                raise
            finally:
                rec.dur = time.perf_counter() - rec.start
                tracer.stack.pop()
                if parent is not None:
                    parent.child += rec.dur
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def totals(self):
        """name -> [calls, total seconds, self seconds]; a tagged span also
        counts under ``name.tag``."""
        out: dict[str, list] = {}
        for s in self.spans:
            names = (s.name,) if s.tag is None else (s.name, f"{s.name}.{s.tag}")
            for n in names:
                row = out.setdefault(n, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += s.dur
                row[2] += s.dur - s.child
        return out

    def errors(self, name, error) -> int:
        return sum(1 for s in self.spans if s.name == name and s.error == error)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "op": s.op,
                            "name": s.name,
                            "tag": s.tag,
                            "start": s.start,
                            "dur": s.dur,
                            "self": s.dur - s.child,
                            "error": s.error,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _replace_everywhere(original, wrapper):
    """Rebind every gkcert module attribute that is ``original``."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gkcert" or modname.startswith("gkcert.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"cannot trace {original!r}: no gkcert module holds it")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an already imported gkcert."""
    from gkcert import (
        certificates,
        characters,
        extensions,
        groups,
        harness,
        intpoly,
        modpoly,
        numberfield,
        numutil,
        rules,
        vanishing,
    )

    def fn(module, attr, name, **kw):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.span(name, original, **kw))

    def count(module, attr, name):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.counter(name, original))

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), **kw))

    def method_count(cls, attr, name):
        setattr(cls, attr, tracer.counter(name, getattr(cls, attr)))

    fn(modpoly, "factor_mod_p", "modpoly.factor_mod_p",
       key=lambda a: (a[0].coeffs, a[1]))
    fn(numberfield, "splitting_type", "numberfield.splitting_type")
    fn(numberfield, "make_field", "numberfield.make_field")
    fn(intpoly, "poly_discriminant", "intpoly.poly_discriminant")
    fn(intpoly, "count_real_roots", "intpoly.count_real_roots")
    fn(numutil, "primes_upto", "numutil.primes_upto")
    count(numutil, "kronecker", "numutil.kronecker")

    method_count(groups.FiniteGroup, "__init__", "groups.constructed")
    method(groups.FiniteGroup, "all_subgroups", "groups.all_subgroups")
    method_count(groups.FiniteGroup, "subgroup_generated_by", "groups.subgroup_generated_by")

    fn(characters, "character_table", "characters.character_table",
       tag=lambda a: "dixon" if a[0].spec[0] == "table" else "closed", key=lambda a: a[0].table)

    fn(extensions, "build_compositum_over_Q", "extensions.build_compositum_over_Q")
    count(extensions, "multiquadratic_field", "extensions.multiquadratic_field")
    method_count(extensions.RadicalCMPiece, "frobenius", "extensions.frobenius")
    fn(extensions, "ingest_extension", "extensions.ingest_extension")

    fn(vanishing, "tate_order", "vanishing.tate_order")
    fn(rules, "certify", "rules.certify")
    count(rules, "klingen_criterion", "rules.klingen_criterion")

    def count_append(grew):
        if grew:
            tracer.counts["certificates.store.appends"] += 1

    method(certificates.CertificateStore, "__init__", "certificates.store.load")
    method(certificates.CertificateStore, "add", "certificates.store.add", after=count_append)
    method_count(certificates.Certificate, "digest", "certificates.digest")

    fn(harness, "run", "harness.run")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-pass values of the per-layer metrics, by name."""
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return tot.get(name, [0, 0.0, 0.0])[2]

    def per_key(name):
        distinct = len(tracer.keys.get(name, ()))
        return calls(name) / distinct if distinct else 0.0

    return {
        "modpoly.factor_mod_p.calls": calls("modpoly.factor_mod_p"),
        "modpoly.factor_mod_p.self_s": self_s("modpoly.factor_mod_p"),
        "modpoly.factor_mod_p.per_pair": per_key("modpoly.factor_mod_p"),
        "numberfield.splitting_type.calls": calls("numberfield.splitting_type"),
        "numberfield.splitting_type.self_s": self_s("numberfield.splitting_type"),
        "numberfield.unsafe_primes": tracer.errors("numberfield.splitting_type", "UnsafePrime"),
        "numberfield.make_field.calls": calls("numberfield.make_field"),
        "numberfield.make_field.self_s": self_s("numberfield.make_field"),
        "intpoly.poly_discriminant.calls": calls("intpoly.poly_discriminant"),
        "intpoly.poly_discriminant.self_s": self_s("intpoly.poly_discriminant"),
        "intpoly.count_real_roots.calls": calls("intpoly.count_real_roots"),
        "intpoly.count_real_roots.self_s": self_s("intpoly.count_real_roots"),
        "numutil.primes_upto.self_s": self_s("numutil.primes_upto"),
        "numutil.kronecker.calls": counts["numutil.kronecker"],
        "groups.constructed": counts["groups.constructed"],
        "groups.all_subgroups.calls": calls("groups.all_subgroups"),
        "groups.all_subgroups.self_s": self_s("groups.all_subgroups"),
        "groups.subgroup_generated_by.calls": counts["groups.subgroup_generated_by"],
        "characters.character_table.calls": calls("characters.character_table"),
        "characters.character_table.per_group": per_key("characters.character_table"),
        "characters.character_table.closed.self_s": self_s("characters.character_table.closed"),
        "characters.character_table.dixon.self_s": self_s("characters.character_table.dixon"),
        "extensions.build_compositum_over_Q.calls": calls("extensions.build_compositum_over_Q"),
        "extensions.build_compositum_over_Q.self_s": self_s("extensions.build_compositum_over_Q"),
        "extensions.multiquadratic_field.calls": counts["extensions.multiquadratic_field"],
        "extensions.frobenius.calls": counts["extensions.frobenius"],
        "extensions.ingest_extension.self_s": self_s("extensions.ingest_extension"),
        "vanishing.tate_order.calls": calls("vanishing.tate_order"),
        "vanishing.tate_order.self_s": self_s("vanishing.tate_order"),
        "rules.certify.calls": calls("rules.certify"),
        "rules.certify.self_s": self_s("rules.certify"),
        "rules.klingen_criterion.calls": counts["rules.klingen_criterion"],
        "certificates.store.add_calls": calls("certificates.store.add"),
        "certificates.store.appends": counts["certificates.store.appends"],
        "certificates.store.add_self_s": self_s("certificates.store.add"),
        "certificates.store.load_s": tot.get("certificates.store.load", [0, 0.0, 0.0])[1],
        "certificates.digest.calls": counts["certificates.digest"],
        "harness.run.self_s": self_s("harness.run"),
    }
