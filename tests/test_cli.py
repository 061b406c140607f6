import json
import os
import subprocess
import sys

import pytest

from gkcert.certificates import CertificateStore, Conclusion, asserted, make_certificate
from gkcert.cli import build_parser, main

D6_DEMO = os.path.abspath(os.path.join(
    os.path.dirname(__file__), "..", "src", "gkcert", "data", "descriptors", "d6_counting_demo.json",
))


def run_cli(args):
    return main(args)


def _cli_env():
    """The environment of a fresh interpreter that imports gkcert from src/."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"certify": {"descriptors": [D6_DEMO]}}))
    rc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.load(open(tmp_path / "out" / "report.json"))
    assert report["rows"][0]["rules"] == ["dihedral-odd-character-counting"]
    assert (tmp_path / "out" / "certificates.jsonl").exists()


@pytest.mark.parametrize("piece", ["q8", "d4"])
def test_search_b_reads_no_assumption(tmp_path, piece):
    """Each search-b hit has its Klingen certificate, p totally split and
    p coprime to |G| = 8, so no caller assumption could change a
    certificate: listing all three keys changes no report byte but the
    config digest, and no stored certificate."""
    outputs, digests = [], []
    for assumptions in ([], ["leopoldt", "tower-disjoint", "gkc-minus"]):
        out = tmp_path / f"out{len(assumptions)}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "certify": {"assumptions": assumptions},
            "search_b": {"pool": [5, 13], "target_r": 4, "cm_piece": piece,
                         "prime_bound": 6000, "max_hits": None},
        }))
        assert run_cli(["search-b", "--config", str(cfg), "--out", str(out)]) == 0
        digest = json.loads((out / "report.json").read_text())["config_digest"]
        digests.append(digest)
        outputs.append([
            (out / "report.json").read_bytes().replace(digest.encode(), b""),
            (out / "report.csv").read_bytes(),
            (out / "certificates.jsonl").read_bytes(),
        ])
    assert outputs[0] == outputs[1]
    assert digests[0] != digests[1]
    assert len(json.loads(outputs[0][0])["rows"]) > 1


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
    proc = subprocess.run(
        [sys.executable, "-m", "gkcert.cli", "check-table", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_cli_env(),
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


@pytest.mark.parametrize("key", ["max_hits", "target_r"])
def test_search_count_of_zero_is_an_error_line(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search_b": {key: 0}}))
    assert run_cli(["search-b", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config: search_b.{key}: expected a positive integer")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


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
        pytest.param({"search_b": {"prime_bound": 0}}, "search_b.prime_bound", id="zero-search-bound"),
        pytest.param({"search_b": {"prime_bound": -5}}, "search_b.prime_bound", id="negative-search-bound"),
        pytest.param({"search_b": {"prime_bound": 2}}, "search_b.prime_bound", id="search-bound-2"),
        # a key that no rule reads would otherwise certify nothing, silently
        pytest.param({"certify": {"assumptions": ["gkc_minus"]}}, "certify.assumptions[0]", id="misspelled-assumption"),
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
    proc = subprocess.run(
        [sys.executable, "-m", "gkcert.cli", "report", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0
    assert f"store: {path}: moved a torn final line" in proc.stderr
    assert f"{path}.torn" in proc.stderr


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_calls_in_one_process_write_what_they_write_alone(tmp_path):
    """Three calls share one interpreter and one parser.  Each writes the same
    bytes as in a fresh interpreter, so no flag carries over to the next."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scan": {"field_vectors": [[1, 0]]},
        "certify": {"descriptors": [D6_DEMO]},
    }))
    calls = [["scan", "--format", "json", "--prime-bound", "50"], ["scan"], ["certify"]]

    def outputs(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    shared = []
    for i, argv in enumerate(calls):
        out = tmp_path / "shared" / str(i)
        assert run_cli([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        shared.append(outputs(out))
    for i, argv in enumerate(calls):
        out = tmp_path / "alone" / str(i)
        proc = subprocess.run(
            [sys.executable, "-m", "gkcert.cli", *argv, "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            env=_cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert outputs(out) == shared[i], argv
    assert "report.csv" not in shared[0] and "report.csv" in shared[1]
    rows = [len(json.loads(files["report.json"])["rows"]) for files in shared[:2]]
    assert rows[0] < rows[1]


def test_verbose_flag_holds_for_each_call_in_one_process(tmp_path):
    """-v logs the scan's diagnostics and its absence silences them, quiet
    then verbose and verbose then quiet, although ``logging.basicConfig``
    configures the root logger only once per process."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prime_bound": 3, "scan": {"field_vectors": [[1, 0]]}}))
    script = (
        "import sys\n"
        "from gkcert.cli import main\n"
        "for flags in ([], ['-v'], []):\n"
        "    print('call', flags, file=sys.stderr)\n"
        "    main([*flags, 'scan', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    line = "INFO gkcert: scan: no totally split prime within the bound"
    assert [line in call for call in proc.stderr.split("call ")[1:]] == [False, True, False]
