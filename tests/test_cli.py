import json
import os
import subprocess
import sys

import pytest

from gkcert.certificates import CertificateStore, Conclusion, asserted, make_certificate
from gkcert.cli import main


def run_cli(args):
    return main(args)


def test_check_table_default(tmp_path, capsys):
    rc = run_cli(["check-table", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "report.json" in out and "report.csv" in out
    report = json.load(open(tmp_path / "report.json"))
    assert len(report["rows"]) == 5
    assert all(row["ok"] for row in report["rows"])


def test_csv_report_shape(tmp_path):
    run_cli(["check-table", "--out", str(tmp_path), "--format", "csv"])
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("pipeline,")
    assert len(lines) == 6
    assert not (tmp_path / "report.json").exists()


def test_certify_subcommand(tmp_path):
    desc = os.path.join(
        os.path.dirname(__file__), "..", "src", "gkcert", "data", "descriptors",
        "d6_counting_demo.json",
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"certify": {"descriptors": [os.path.abspath(desc)]}}))
    rc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.load(open(tmp_path / "out" / "report.json"))
    assert report["rows"][0]["rules"] == ["dihedral-odd-character-counting"]
    assert (tmp_path / "out" / "certificates.jsonl").exists()


def test_bad_descriptor_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "base_poly": [0], "p": 5, "group": {"kind": "dihedral", "data": 4},
        "tau": 1,  # not central
        "primes": [{"e_base": 1, "f_base": 1, "decomposition_subgroup": [0]}],
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"certify": {"descriptors": [str(bad)]}}))
    rc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "violation" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "out"
    run_cli(["check-table", "--out", str(out)])
    first = {p: (out / p).read_bytes() for p in ("report.json", "report.csv")}
    run_cli(["check-table", "--out", str(out)])
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_console_entry_point(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gkcert.cli", "check-table", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "5 report rows" in proc.stdout


def _scan_digest(tmp_path, doc, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out), *flags]) == 0
    report = json.load(open(out / "report.json"))
    return report["config_digest"], len(report["rows"])


def test_prime_bound_flag_changes_the_digest(tmp_path):
    doc = {"scan": {"field_vectors": [[1, 0]]}}
    small = _scan_digest(tmp_path, doc, "--prime-bound", "50")
    large = _scan_digest(tmp_path, doc, "--prime-bound", "500")
    assert small[1] < large[1]
    assert small[0] != large[0]


def test_prime_bound_flag_and_key_give_one_digest(tmp_path):
    doc = {"scan": {"field_vectors": [[1, 0]]}}
    by_flag = _scan_digest(tmp_path, doc, "--prime-bound", "50")
    by_key = _scan_digest(tmp_path, {**doc, "prime_bound": 50})
    assert by_flag == by_key


def test_bad_prime_bound_flag_is_an_error_line(tmp_path, capsys):
    rc = run_cli(["scan", "--prime-bound", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "prime bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc, path",
    [
        pytest.param({"scan": []}, "scan", id="list-scan"),
        pytest.param({"search_b": []}, "search_b", id="list-search-b"),
        pytest.param({"pipelines": "scan"}, "pipelines", id="string-pipelines"),
        pytest.param({"certify": {"descriptors": "d.json"}}, "certify.descriptors", id="string-descriptors"),
        pytest.param({"search_b": {"cm_piece": "zz"}}, "search_b.cm_piece", id="unknown-cm-piece"),
        pytest.param({"search_b": {"max_hits": "x"}}, "search_b.max_hits", id="string-max-hits"),
        pytest.param({"search_b": {"pool": ["x"]}}, "search_b.pool[0]", id="string-pool-item"),
    ],
)
def test_config_of_the_wrong_shape_is_an_error_line(tmp_path, capsys, doc, path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["search-b", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config: {path}: expected ") and "Traceback" not in err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        run_cli(["check-table", "--seed", "1"])
    assert "--seed" in capsys.readouterr().err


def test_edited_store_entry_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "certificates.jsonl"
    CertificateStore(path).add_all(
        make_certificate(
            Conclusion.GKC_MINUS, f"K{i}", "klingen-abelian-compositum",
            [asserted("Leopoldt's conjecture holds")], {"r_S": i}, f"inputs-{i}",
        )
        for i in range(2)
    )
    first, second = path.read_text().splitlines()
    no_digest = json.loads(first)
    del no_digest["digest"]
    edited = second.replace('"status":"asserted"', '"status":"verified"')
    for lines, lineno in (([first, edited], 2), ([json.dumps(no_digest), second], 1)):
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: ") and "Traceback" not in err


def test_store_repair_is_shown_without_verbose(tmp_path):
    path = tmp_path / "certificates.jsonl"
    CertificateStore(path).add(
        make_certificate(
            Conclusion.GKC_MINUS, "K0", "klingen-abelian-compositum",
            [asserted("Leopoldt's conjecture holds")], {"r_S": 0}, "inputs-0",
        )
    )
    path.write_bytes(path.read_bytes()[:-40])  # a write cut short
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gkcert.cli", "report", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert f"store: {path}: moved a torn final line" in proc.stderr
    assert f"{path}.torn" in proc.stderr
