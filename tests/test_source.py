import ast
import glob
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "gkcert")


def test_no_assert_statements_in_library():
    # internal checks must raise InternalCheckError, which survives python -O
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


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
