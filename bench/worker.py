"""One workload process: set up, signal readiness, run timed passes, report.

Started by run.py with the thread settings in its environment.  Lines meant
for run.py start with PREFIX; anything the program prints goes elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

PREFIX = "BENCH "


def _say(obj) -> None:
    sys.__stdout__.write(PREFIX + json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy
    import scipy

    import harness
    import tracing
    import workloads

    tracer = tracing.Tracer().install() if args.trace else None
    os.makedirs(args.out_dir, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    _say({"ready": True})
    if args.setup_only:
        return 0

    results = harness.run_for(ops, args.seconds, tracer)
    seconds = [r.seconds for r in results]
    failures = [f for r in results for f in r.failures]
    report = {
        "passes": seconds,
        "passes_cpu": [r.cpu_seconds for r in results],
        "run_s": statistics.median(seconds),
        "attempted": sum(r.attempted for r in results),
        "failed": len(failures),
        "wrong": sum(r.wrong for r in results),
        "failures": failures[:20],
        "ops_per_pass": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(len(results))
        report["traced_self_s"] = tracer.self_time() / len(results)
        report["coverage"] = tracer.self_time() / sum(seconds)
    _say(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
