#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out sweep.json [--workloads a,b]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
with ``run_seconds`` from ``BENCHMARK.json``, and writes every value with
its median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them).  ``baseline.json`` was
written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    summary: dict = {"run_seconds": bench["run_seconds"], "trace": args.trace,
                     "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in summary["seeds"]:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[-2][len("# env "):]) if len(lines) > 1 else None
            result = json.loads(lines[-1]) if lines else {}
            record_path = ROOT / ".bench_build" / "perfbench" / workload / "run.json"
            record = json.loads(record_path.read_text()) if record_path.exists() else {}
            runs.append({"seed": seed, "exit": proc.returncode, "env": env,
                         **{k: result.get(k) for k in ("correct", "attempted", "failed")},
                         **{k: record.get(k) for k in ("batch_wall_s", "traced_wall_s", "setup_s")}})
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, proc.returncode, result.get("correct"),
                  {k: round(v[-1], 4) for k, v in values.items() if len(v) == len(runs)},
                  flush=True)
        summary["workloads"][workload] = {
            "runs": runs, "metrics": {k: summarize(v) for k, v in values.items()}}
        for name, s in summary["workloads"][workload]["metrics"].items():
            print(f"  {workload:13s} {name:38s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
