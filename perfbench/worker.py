"""One workload in a fresh interpreter: set up, then measure (or stop).

Run by ``run.py``; prints one JSON line.  ``ready`` is ``time.monotonic()``
when the inputs are ready, which the parent compares with the moment it
started this process to get the set-up time, interpreter start included.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy

    import layers
    import workloads
    from tracer import Tracer

    setup, run, teardown = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(trace=bool(args.trace), root=ROOT, src=SRC)
    inputs = setup(args.seed, ctx)
    doc = {"ready": time.monotonic(), "numpy": numpy.__version__}
    if args.setup_only:
        if teardown is not None:
            teardown(inputs)
        print(json.dumps(doc))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.HOOKS)
        ctx.tracer = tracer
    outcome = run(inputs, args.seconds, ctx)
    if tracer is not None:
        tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    doc.update(
        {
            "ops": outcome.ops,
            "passes": outcome.passes,
            "reference": outcome.reference,
            "reference_s": outcome.reference_s,
            "failures": outcome.failures[:20],
            "failed_ops": outcome.failed_ops,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "detail": outcome.detail,
        }
    )
    if tracer is not None:
        doc["spans"] = tracer.count
        doc["per_layer"] = layers.compute(tracer, ctx.extra)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
