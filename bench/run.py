"""ktrg benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload coeffs --seed 1 --seconds 8 --trace 0

Set-up is sampled in SETUP_SAMPLES fresh processes; the last of them goes
on to run whole passes of the workload for --seconds.  The last line of
standard output is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named
in BENCHMARK.json.  A result file with provenance goes to .bench_out/results.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PREFIX = "BENCH "
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# one thread for every numerical library: the machine has few cores, and a
# second compute thread makes timings depend on what else runs there
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def _messages(proc, deadline: float):
    """Yield the worker's PREFIX lines until it closes its output."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf = b""
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not sel.select(timeout=left):
                raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode(errors="replace")
                if text.startswith(PREFIX):
                    yield json.loads(text[len(PREFIX):])
    finally:
        sel.close()


def _run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """(set-up seconds, report) of one worker process; report is None for a
    set-up probe."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT / args.workload)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    setup = None
    report = None
    try:
        for msg in _messages(proc, deadline):
            if msg.get("ready"):
                setup = time.perf_counter() - t0
            else:
                report = msg
    finally:
        if proc.poll() is None:
            try:
                proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    if setup is None or (report is None and not setup_only):
        raise BenchError("worker ended without reporting")
    return setup, report


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"], "workloads": [w["name"] for w in spec["workloads"]]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    try:
        specs = _metric_specs()
        if args.workload not in specs["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {specs['workloads']}")
        if not (ROOT / "src" / "ktrg" / "__init__.py").is_file():
            raise BenchError(f"no ktrg sources under {ROOT / 'src'}")
        setups = [_run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, report = _run_worker(args, False, deadline)
        setups.append(setup)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    if args.trace:
        layers = report["layers"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in specs["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups), "run_s": report["run_s"], "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs["end_to_end"]}
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "setup_samples_s": setups,
        "pass_s": report["passes"],
        "pass_cpu_s": report["passes_cpu"],
        "ops_per_pass": report["ops_per_pass"],
        "failures": report["failures"],
        "provenance": {
            **report["versions"],
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": THREAD_ENV,
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "wall_s": time.perf_counter() - start,
        },
    }
    if args.trace:
        record["traced_run_s"] = report["run_s"]
        record["traced_self_s"] = report["traced_self_s"]
        record["coverage"] = report["coverage"]
        record["layers"] = report["layers"]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    with open(results_dir / f"{stamp}_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for msg in report["failures"]:
        print(f"bench: failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
