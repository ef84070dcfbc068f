"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 bench/spread.py --seeds 1-10 [--workloads coeffs,ktline] [--seconds 8] [--tag set1]

Runs bench/run.py once per (seed, workload), seeds in the outer loop so that
slow drift of the machine spreads over all workloads, and prints per metric
the median, the quartiles (statistics.quantiles, n=4) and the quartile
distance as a share of the median.  The summary goes to
.bench_out/spread_<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--tag", default="latest")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(dict(seed=seed, **res))
            vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{w:10s} seed {seed:3d} correct={res['correct']} failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    summary = {}
    for w, rs in runs.items():
        summary[w] = {"failed_share": [r["failed"] / r["attempted"] for r in rs], "correct": all(r["correct"] for r in rs)}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                     "bound": m["bound"], "values": vals}
            print(f"{w:10s} {m['name']:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {100 * (q3 - q1) / med:5.2f}% (bound {100 * m['bound']:.0f}%)")
    out = ROOT / ".bench_out" / f"spread_{args.tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
