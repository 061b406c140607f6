import ast
import glob
import os
import re
import subprocess
import sys
from functools import cache

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "gkcert")


@cache
def _library_trees():
    """Module file name -> syntax tree, for every module of gkcert."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), filename=path)
    return trees


def test_no_assert_statements_in_library():
    # internal checks must raise InternalCheckError, which survives python -O
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _library_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _annotation(node):
    """The annotation subtree directly under ``node``, or None: an
    argument's or an annotated assignment's annotation, a return annotation."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _name_uses(tree, name, scope=()):
    """(enclosing def or class names, line) of each use of ``name`` in
    ``tree``: an attribute such as hashlib.sha256, a bare name, an import of
    it, or the name as a string, as getattr would take it.  Annotations are
    skipped: naming a type there builds nothing of it."""
    skipped = _annotation(tree)
    for node in ast.iter_child_nodes(tree):
        if node is skipped:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _name_uses(node, name, scope + (node.name,))
            continue
        if (
            isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)
            or isinstance(node, ast.Constant) and node.value == name
        ):
            yield scope, node.lineno
        yield from _name_uses(node, name, scope)


def _uses_in_library(name):
    """(module file, dotted enclosing scope) of each use of ``name`` in gkcert."""
    return [
        (module, ".".join(scope))
        for module, tree in _library_trees().items()
        for scope, _ in _name_uses(tree, name)
    ]


# definitions that no library code names yet, each waiting on planned work
UNREACHED_ALLOWED = {
    # the traced benchmark run wraps it by name until the tracer wraps
    # Compositum.at instead
    ("extensions.py", "build_compositum_over_Q"),
    # certificates that read a tower will hash its document into their inputs
    ("towers.py", "tower_to_document"),
}


def test_library_definitions_are_reached():
    # every top-level function and class, and every public method, is named
    # by library code outside its own definition; __init__.py re-exports and
    # does not count, nor do the tests, so no unreached feature or test-only
    # oracle stays in the library
    trees = {module: tree for module, tree in _library_trees().items() if module != "__init__.py"}
    unreached = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for own in [(node.name,)] + [
                (node.name, m.name)
                for m in methods
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]:
                if not any(
                    scope[: len(own)] != own
                    for other in trees.values()
                    for scope, _ in _name_uses(other, own[-1])
                ):
                    unreached.add((module, ".".join(own)))
    assert unreached == UNREACHED_ALLOWED, sorted(unreached ^ UNREACHED_ALLOWED)


def test_one_digest_recipe():
    # certificates, descriptors and run configs are hashed by one function,
    # so the recipe cannot drift between them
    assert _uses_in_library("sha256") == [("certificates.py", "content_digest")]


def test_one_memo_per_group():
    # every result kept on a group goes through FiniteGroup.verdict, so each
    # memo key is listed in one docstring and a raising compute stores nothing
    found = _uses_in_library("_verdicts")
    assert found and all(
        path == "groups.py" and scope.split(".")[0] == "FiniteGroup" for path, scope in found
    ), found


def test_memo_keys_are_the_ones_the_verdict_docstring_lists():
    # each key name passed to FiniteGroup.verdict is listed, once, in its
    # docstring with the function that fills it, so the list cannot drift
    from gkcert.groups import FiniteGroup

    named = []
    for tree in _library_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "verdict":
                key = node.args[0]
                head = key.elts[0] if isinstance(key, ast.Tuple) and key.elts else key
                named.append(head.value if isinstance(head, ast.Constant) else ast.unparse(key))
    listed = re.findall(r'\("(\w+)"', FiniteGroup.verdict.__doc__)
    assert sorted(named) == sorted(listed) == ["klingen", "odd", "table", "undecomposed"], (named, listed)


def test_character_tables_ignore_the_group_spec():
    # character tables and rules read the multiplication table alone, so
    # how a group is written changes its document and digest, never a table
    # or a certificate: outside groups.py only the document reads the spec
    found = _uses_in_library("spec")
    outside = {(path, scope) for path, scope in found if path != "groups.py"}
    assert found and outside == {("extensions.py", "to_document")}, found


# the rule keys in the order of rules.RULES; the two Klingen keys are one rule
RULE_KEYS = (
    "klingen-character-bound",
    "klingen-abelian-compositum",
    "split-rank-bound",
    "no-split-primes",
    "undecomposed-subfield-reduction",
    "leopoldt-total-split",
    "abelian-split-rank-zero",
    "chevalley-stabilization",
    "dihedral-odd-character-counting",
    "gkc-gvc-equivalence",
)


def _strings(node):
    """The string constants under ``node``."""
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _keys_named(node):
    """The rule keys that ``node`` names as a string, alone or as the head
    of a diagnostic line "<key>: ..."."""
    strings = _strings(node)
    return [key for key in RULE_KEYS if any(s == key or s.startswith(key + ":") for s in strings)]


def test_certify_runs_the_rule_table():
    # certify is a loop over RULES and names no rule itself; each rule is one
    # function, and only the Klingen function holds two keys
    tree = _library_trees()["rules.py"]
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    certify = defs["certify"]
    assert any(
        isinstance(node, ast.For) and isinstance(node.iter, ast.Name) and node.iter.id == "RULES"
        for node in ast.walk(certify)
    )
    assert _keys_named(certify) == []
    [table] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["RULES"]
    ]
    keys = [_keys_named(defs[entry.id]) for entry in table.elts]
    assert [key for named in keys for key in named] == list(RULE_KEYS), keys
    assert [len(named) for named in keys] == [2] + [1] * (len(keys) - 1), keys


def test_every_assumption_key_is_read_by_a_rule():
    # a caller assumption counts only where a certificate records it: each
    # key a config may list is tested against the assumptions in a function
    # of RULES that records it as an asserted "caller assumption", and the
    # assumption paragraph of docs/formats.md lists exactly these keys
    from gkcert.rules import ASSUMPTION_KEYS, RULES

    tree = _library_trees()["rules.py"]
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
    }
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = set()
    for rule in RULES:
        keys = {
            constants.get(node.left.id) if isinstance(node.left, ast.Name) else node.left.value
            for node in ast.walk(defs[rule.__name__])
            if isinstance(node, ast.Compare)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and ast.unparse(node.comparators[0]) == "ctx.assumptions"
        }
        if keys:
            assert "caller assumption" in _strings(defs[rule.__name__]), rule.__name__
        read |= keys
    assert read == set(ASSUMPTION_KEYS)

    with open(os.path.join(ROOT, "docs", "formats.md"), encoding="utf-8") as fh:
        text = fh.read()
    head = "Assumption keys accepted in `certify.assumptions`:"
    sentence = text[text.index(head) + len(head):].split(". ")[0]
    assert re.findall(r"`([^`]+)`", sentence) == list(ASSUMPTION_KEYS)


def test_bench_tracing_installs():
    # the traced benchmark run wraps gkcert functions by name, so renaming
    # one of them must fail here too
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
