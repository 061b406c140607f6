"""gkcert benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload scan|certify|search --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gkcert is imported from ``src/``.
Each pass starts a fresh interpreter (bench/child.py) that makes the
workload's gkcert CLI calls one after another; the next pass starts when the
previous one has ended (one client, closed loop).  Passes repeat until
``--seconds`` of pass time have been spent, with at least two passes of each
kind so that their reports can be compared byte for byte.  Outputs are
checked against independent oracles after the timed passes, and a self-test
first makes sure every check rejects a corrupted answer.

With ``--trace 0`` the result holds the end-to-end metrics (medians over the
passes).  Before each pass, a few more interpreters are started that stop at
their first pipeline call; ``setup_s`` is the median over them and the
passes.  With ``--trace 1`` untraced and traced passes alternate; the result
holds the per-layer metrics (medians over the traced passes) and the tracing
overhead (the median, over traced passes, of a traced pass's ``wall_s``
minus that of the untraced pass just before it).  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS_TIMEOUT_S = 150
# Set-up is short and jittery, so each untraced run also starts this many
# interpreters per pass that stop at their first pipeline call.
SETUP_PROBES_PER_PASS = 3


def declared_units(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the run kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if traced else "end_to_end"]}


def _spawn(work, tag, cwd, plan):
    """Run child.py on a plan; return the monotonic spawn time and its result."""
    plan_path = os.path.join(work, f"plan_{tag}.json")
    result_path = os.path.join(work, f"result_{tag}.json")
    log_path = os.path.join(cwd, f"child_{tag}.log")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(dict(plan, src=os.path.join(ROOT, "src")), fh)
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path],
            cwd=cwd,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=PASS_TIMEOUT_S,
        )
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"{tag} failed with exit code {proc.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    if result["first_run"] is None:
        raise SystemExit(f"{tag} never reached a pipeline")
    return spawned, result


def run_probe(workload, work, index) -> float:
    """Set-up time of one interpreter that stops at its first pipeline call."""
    probe_dir = os.path.join(work, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    spawned, result = _spawn(
        work, f"probe{index}", probe_dir, {"calls": workload.calls, "trace": False, "probe": True}
    )
    return result["first_run"] - spawned


def run_pass(workload, work, index, traced):
    pass_dir = os.path.join(work, f"pass{index}")
    os.makedirs(pass_dir)
    plan = {
        "calls": workload.calls,
        "trace": traced,
        "spans": os.path.join(HERE, "_work", f"{workload.name}.spans.jsonl"),
    }
    spawned, result = _spawn(work, f"pass{index}", pass_dir, plan)
    wall = sum(c["seconds"] for c in result["calls"])
    return {
        "dir": pass_dir,
        "traced": traced,
        "rc": {c["name"]: c["rc"] for c in result["calls"]},
        "setup_s": result["first_run"] - spawned,
        "wall_s": wall,
        "ops_per_s": workload.op_count / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "cpu_s": result["cpu_s"],
        "layers": result.get("layers"),
    }


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def collect_outputs(workload, pass_info):
    """Per call: exit code, parsed report, certificate store by digest, and a
    hash of the report bytes."""
    outputs = {}
    for call in workload.calls:
        name = call["name"]
        out_dir = os.path.join(pass_info["dir"], name)
        report_json = _read(os.path.join(out_dir, "report.json"))
        report_csv = _read(os.path.join(out_dir, "report.csv"))
        store_bytes = _read(os.path.join(out_dir, "certificates.jsonl")) or b""
        store = {}
        for line in store_bytes.decode().splitlines():
            if line.strip():
                cert = json.loads(line)
                store[cert["digest"]] = cert
        outputs[name] = {
            "rc": pass_info["rc"][name],
            "report": json.loads(report_json) if report_json is not None else None,
            "store": store,
            "bytes": len(report_json or b"") + len(report_csv or b""),
            "sha": hashlib.sha256((report_json or b"") + b"\0" + (report_csv or b"")).hexdigest(),
        }
    return outputs


def identical_reports(workload, first, later) -> set:
    """Operations of every call whose report.json/report.csv differ."""
    bad = set()
    for call in workload.calls:
        name = call["name"]
        if first[name]["sha"] != later[name]["sha"]:
            bad.update(workload.ops[name])
            if not workload.ops[name]:  # a call without operations of its own
                bad.update(op for ops in workload.ops.values() for op in ops)
    return bad


def self_test(workload, outputs) -> list[str]:
    """Descriptions of corruptions that some check failed to reject."""
    missed = [desc for desc, bad in workload.corruptions(outputs) if not workload.check(bad)]
    flipped = json.loads(json.dumps(outputs))
    name = workload.calls[0]["name"]
    flipped[name]["sha"] = flipped[name]["sha"][::-1]
    if not identical_reports(workload, outputs, flipped):
        missed.append("report bytes changed between passes")
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "certify", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gkcert", "cli.py")):
        print(f"error: no gkcert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    workload = WORKLOADS[args.workload](args.seed, inputs, ROOT)

    passes = []
    setups = []  # set-up times of probes and untraced passes
    measured = 0.0

    def enough():
        kinds = [p["traced"] for p in passes]
        return (
            measured >= args.seconds
            and kinds.count(False) >= 2
            and (not args.trace or kinds.count(True) >= 2)
        )

    while not enough():
        traced = bool(args.trace) and len(passes) % 2 == 1
        if not args.trace:
            for _ in range(SETUP_PROBES_PER_PASS):
                setups.append(run_probe(workload, work, len(setups)))
                measured += setups[-1]
        info = run_pass(workload, work, len(passes), traced)
        measured += info["wall_s"] + info["setup_s"]
        passes.append(info)
        if not traced:
            setups.append(info["setup_s"])

    outputs = [collect_outputs(workload, info) for info in passes]
    failed_by_pass = [
        workload.check(out) | identical_reports(workload, outputs[0], out) for out in outputs
    ]
    # corrupting outputs that already fail would prove nothing
    missed = [] if failed_by_pass[0] else self_test(workload, outputs[0])
    if missed:
        print("error: checks accepted corrupted outputs: " + "; ".join(missed), file=sys.stderr)
        return 3
    failed = sum(len(f) for f in failed_by_pass)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["harness.report_bytes"] = sum(o["bytes"] for o in outputs[0].values())
        values["harness.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        values["trace.overhead_s"] = statistics.median(
            passes[i]["wall_s"] - passes[i - 1]["wall_s"]
            for i in range(1, len(passes), 2)
        )
    else:
        values = {
            name: statistics.median(p[name] for p in plain)
            for name in ("wall_s", "ops_per_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setups)
    units = declared_units(bool(args.trace))
    if set(units) != set(values):
        raise SystemExit(f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    result = {
        "correct": failed == 0,
        "attempted": workload.op_count * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(f"{args.workload}: {len(passes)} passes, {workload.op_count} operations each", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
