"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py PLAN.json RESULT.json

The plan names the source tree to import gkcert from, the CLI calls to make
(each an argv list for ``gkcert.cli.main``), whether to trace, and where to
write the spans.  The working directory is the pass directory that the
calls' relative paths refer to.  The result holds, on the monotonic clock
shared with the parent, when the first pipeline call began and how long
each CLI call took, plus exit codes, peak memory, CPU time and, when traced,
the per-layer figures.

A plan with ``"probe": true`` measures set-up only: the interpreter stops at
its first pipeline call, before the pipeline runs, and writes nothing else.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` would not do: on exec, Linux folds the spawning process's
    high-water mark into it, so every pass would report at least the peak
    of run.py, which spawns it.  ``VmHWM`` belongs to the address space
    that exec created, so it counts the pass alone.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class _SetupDone(BaseException):
    """Ends a set-up probe at its first pipeline call."""


def main(plan_path, result_path) -> int:
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    src = plan["src"]
    sys.path.insert(0, src)
    import gkcert.cli

    if not os.path.realpath(gkcert.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"gkcert imported from {gkcert.cli.__file__}, not from {src}")

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_run = []
    pipeline = gkcert.cli.run

    def timed_run(config):
        if not first_run:
            first_run.append(time.monotonic())
        if plan.get("probe"):
            raise _SetupDone
        return pipeline(config)

    gkcert.cli.run = timed_run

    calls = []
    cpu0 = _cpu_s()
    for call in plan["calls"]:
        if tracer is not None:
            tracer.op = call["name"]
        t0 = time.monotonic()
        try:
            rc = gkcert.cli.main(call["argv"])
        except _SetupDone:
            break
        except (Exception, SystemExit):  # a crash fails this call's operations
            traceback.print_exc()
            rc = -1
        t1 = time.monotonic()
        calls.append({"name": call["name"], "rc": rc, "seconds": t1 - t0})
    cpu = _cpu_s() - cpu0

    result = {
        "first_run": first_run[0] if first_run else None,
        "calls": calls,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
