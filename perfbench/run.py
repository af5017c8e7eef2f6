"""Benchmark of jordan_spectra: one workload per call, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): polytope-catalog,
spectral-stream, theorem-battery, cli-cold.  Each run measures in a fresh
interpreter, so the library's body caches start empty, as for one CLI call.
The load is one process with no worker threads; CLI children run one at a
time.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Untraced runs report the end-to-end metrics, traced runs
the per-layer ones (``layers.PER_LAYER``).  The line before it is a report
with the machine, the load average, sample counts and per-operation detail.
Any failed output check makes ``correct`` false and the exit code 1.

End-to-end metrics, the same names on every workload:
  setup_s      median of at least SETUP_REPEATS set-ups, each from
               interpreter start to inputs ready, in its own process, in
               seconds at the interpreter reference's nominal speed
  peak_rss_mb  largest ru_maxrss of the measuring processes (of their CLI
               children for cli-cold)
  pass_s       one pass over the workload's inputs (see ``one_pass``): the
               catalog and simplex batteries, the battery, one decomposition
               of each of the 10 element kinds, one call of each of the 10
               CLI commands, in seconds at a host-speed reference's nominal
               speed (``referenced_pass``)

Why the reference: on the shared 2-vCPU VM this was written on, identical
work runs up to 2x slower for seconds to minutes at a time, so that raw
passes of ten back-to-back 20-second runs spread by up to 0.26
(interquartile range over median; 0.08-0.26 across workloads and sets).  Latency percentiles over all
operations, with their sample count, are in the report line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("polytope-catalog", "spectral-stream", "theorem-battery", "cli-cold")
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"))
SETUP_REPEATS = 3  # measuring processes, topped up by set-up-only ones
WORKER_TIMEOUT_S = 150


def _nearest_rank(values, q):
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def one_pass(ops):
    """One pass over the inputs, each operation at its median repeat.

    ``ops`` holds (label, input index, seconds).  For each label, take the
    median repeat of each input, then the median over inputs; sum over
    labels.  An operation done once counts as is.
    """
    repeats = {}
    for label, key, dt in ops:
        repeats.setdefault(label, {}).setdefault(key, []).append(dt)
    return sum(
        statistics.median([statistics.median(v) for v in by_key.values()])
        for by_key in repeats.values()
    )


def referenced_pass(ops, refs, nominal_s):
    """``pass_s``: ``one_pass`` of the operations scaled by their references.

    ``refs`` holds, per operation, the host-speed reference timed next to it
    (see ``reference.py``); each operation counts as its seconds times
    ``nominal_s`` over its reference.  On the 2-vCPU VM this was written on,
    over 8-10 minutes of back-to-back 20-second runs, the raw pass spread by
    0.15-0.24 and the scaled one by 0.03-0.07 on the catalog and the CLI;
    on the spectral stream by 0.03-0.05 and 0.01.
    """
    scaled = [(label, key, dt * nominal_s / ref) for (label, key, dt), ref in zip(ops, refs)]
    return one_pass(scaled)


def _machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def _worker(args, setup_only=False):
    """Run worker.py; returns (its JSON document, set-up seconds, reference seconds).

    The interpreter reference runs right before the worker, to scale its
    set-up time (see ``reference.py``).
    """
    ref = reference.interpreter(cwd=ROOT)
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, doc["ready"] - t0, ref


def _state_path(workload):
    """Last untraced ``pass_s``; traced runs report their overhead against it."""
    return os.path.join(STATE, f"untraced-{workload}.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jordan_spectra", "__init__.py")):
        print("perfbench: src/jordan_spectra not found next to perfbench/", file=sys.stderr)
        return 2
    os.makedirs(STATE, exist_ok=True)
    load_start = os.getloadavg()

    # The measuring process repeats until ``seconds`` have passed: once for
    # the closed loops, which run that long themselves; several times for
    # the catalog, whose process does one pass with cold caches.
    docs, setups = [], []  # setups: (seconds, reference seconds)
    t_end = time.monotonic() + args.seconds
    while not docs or (not args.trace and time.monotonic() < t_end):
        doc, setup, ref = _worker(args)
        docs.append(doc)
        setups.append((setup, ref))
    if not args.trace:
        while len(setups) < SETUP_REPEATS:
            setups.append(_worker(args, setup_only=True)[1:])

    ops = [op for d in docs for op in d["ops"]]
    op_s = [dt for _, _, dt in ops]
    passes = [p for d in docs for p in d["passes"]]
    attempted = len(op_s)
    failed = sum(d["failed_ops"] for d in docs)
    refs = [r for d in docs for r in d["reference"]]
    pass_s = referenced_pass(ops, refs, doc["reference_s"])
    groups = {}
    for label, _, dt in ops:
        groups.setdefault(label, []).append(dt)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**_machine(), "numpy": doc["numpy"]},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup_s_raw": [t for t, _ in setups],
        "setup_reference_s": [r for _, r in setups],
        "measuring_processes": len(docs),
        "pass_s_median_of_passes": statistics.median(passes),
        "latency_s": {
            "n": len(op_s),
            "p50": statistics.median(op_s),
            "p95": _nearest_rank(op_s, 0.95),
            "p99": _nearest_rank(op_s, 0.99),
            "by_label": {k: {"n": len(v), "p50": statistics.median(v)} for k, v in groups.items()},
        },
        "passes": len(passes),
        "raw_pass_s": one_pass(ops),
        "reference": {"n": len(refs), "p50": statistics.median(refs),
                      "nominal_s": doc["reference_s"]},
        "detail": docs[0]["detail"],
        "failures": [f for d in docs for f in d["failures"]][:20],
    }

    if args.trace:
        metrics = {name: {"value": doc["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        report["spans"] = doc["spans"]
        try:
            with open(_state_path(args.workload), encoding="utf-8") as fh:
                untraced = json.load(fh)["pass_s"]
            report["tracing_overhead_s"] = pass_s - untraced
            report["tracing_overhead_ratio"] = pass_s / untraced - 1.0
        except (OSError, ValueError, KeyError):
            report["tracing_overhead_s"] = None  # no untraced run in this checkout yet
    else:
        values = {
            "setup_s": statistics.median(
                t * reference.INTERPRETER_S / r for t, r in setups
            ),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
            "pass_s": pass_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        with open(_state_path(args.workload), "w", encoding="utf-8") as fh:
            json.dump({"pass_s": pass_s, "seed": args.seed}, fh)

    correct = failed == 0
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
