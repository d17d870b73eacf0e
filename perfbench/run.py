#!/usr/bin/env python3
"""Benchmark of the ``discoccg`` batch CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 20 --trace 0

Each run generates the workload's input file from ``--seed``, then runs the
README command on it in fresh single-process batches, one at a time (a
closed loop with one client), until ``--seconds`` have been measured.  The
outputs are checked after the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a separately traced batch with ``--trace 1``.  Exits nonzero
when a check fails.

``--record-digests`` rewrites ``digests.json`` from the current program:
the per-sentence digests of the emitted files that every later run must
reproduce byte for byte.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for every process, pinned before numpy loads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import gen  # noqa: E402

WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = BENCH / "digests.json"

BASE_ARGS = ["--planarize", "--normalize", "--emit", "biclosed,diagram,tikz,svg,stats",
             "--seed", "7"]
ORACLE_ARGS = ["--check-semantics", "n=2,s=2,*=2"]
WITH_ORACLE = {"batch-mixed"}

# Every run ends within this many seconds, batches included.
RUN_BUDGET_S = 170.0
MIN_BATCHES = 2
SETUP_PROBES = 7

# Spans that must record at least one call on each workload.
_EVERYWHERE = ("cli.run", "cli.convert", "cli.write", "ingest.read", "ingest.tree",
               "rules.validate", "biclosed.lower", "biclosed.to_sexpr", "functor.lower",
               "diagram.build", "diagram.to_json", "rewrite.planarize",
               "rewrite.normalize", "render.tikz", "render.svg")
_ORACLE = ("semantics.check", "semantics.evaluate", "semantics.lexicon",
           "diagram.well_formed")
EXPECTED_SPANS = {"batch-mixed": _EVERYWHERE + _ORACLE,
                  "long-chains": _EVERYWHERE, "cross-serial": _EVERYWHERE}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def run_batch(work: Path, cli_args: list[str], trace: bool, deadline: float) -> dict:
    """One measured batch in a fresh interpreter; returns the child's record."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record = work / "record.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "perfbench.child", str(record), "1" if trace else "0",
           str(work / "spans.tsv"), "--", *cli_args, "--out-dir", str(out)]
    with open(work / "cli.log", "wb") as log, open(work / "cli.err", "wb") as err:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=err,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not record.exists():
        tail = (work / "cli.err").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"batch exited with {proc.returncode}: {tail}")
    rec = json.loads(record.read_text())
    rec["log"] = (work / "cli.log").read_text(encoding="utf-8")
    rec["tree"] = tree_digest(out, rec["log"])
    return rec


def tree_digest(out: Path, log: str) -> str:
    h = hashlib.sha256(log.encode())
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_times(deadline: float) -> list[float]:
    """Wall time of a fresh interpreter importing ``discoccg.cli``, once
    unmeasured (bytecode compilation) and then ``SETUP_PROBES`` times."""
    cmd = [sys.executable, "-c", "import discoccg.cli"]
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        if i:
            times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy

    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10).stdout.split()
        sha = sha if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "discoccg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": os.getloadavg(), **PINNED_ENV}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    from perfbench.checks import check_batch

    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    entries = gen.generate(workload, seed, ROOT)
    expected = {ident: gen.expected_ok(tree) for ident, _, tree in entries}
    (work / "input.json").write_bytes(gen.input_bytes(entries))
    cli_args = ["--in", str(work / "input.json"), *BASE_ARGS]
    if workload in WITH_ORACLE:
        cli_args += ORACLE_ARGS
    env = environment()

    setup = [] if trace else setup_times(deadline)
    plain, traced = [], []
    stop = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        plain.append(run_batch(work, cli_args, False, deadline))
        if trace:
            traced.append(run_batch(work, cli_args, True, deadline))
        round_s = time.monotonic() - started
        if len(plain) >= (1 if trace else MIN_BATCHES) and time.monotonic() + round_s > stop:
            break
    env["loadavg_after"] = os.getloadavg()

    batches = plain + traced
    report = check_batch(entries, expected, work / "out", batches[-1]["log"],
                         json.loads(DIGESTS.read_text()))
    problems = list(report.problems)
    differing = sum(b["tree"] != batches[-1]["tree"] for b in batches)
    if differing:
        problems.append(f"{differing} batches emitted different bytes than the last one")
    problems += [f"cli exited with {b['rc']}" for b in batches if b["rc"] != 0]
    attempted = len(entries) * len(batches)
    failed = report.failed * len(batches) + differing * len(entries)

    if trace:
        layers = {name: statistics.median(b["layers"][name] for b in traced)
                  for name in traced[0]["layers"]}
        untraced_wall = statistics.median(b["wall_s"] for b in plain)
        layers["trace.wall_s"] = statistics.median(b["wall_s"] for b in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced_wall
        layers["check.oracle_verified"] = report.oracle_verified
        layers["check.unverified"] = len(report.unverified)
        zero = [span for span in EXPECTED_SPANS[workload]
                if any(not b["span_calls"].get(span) for b in traced)]
        problems += [f"layer span {span} recorded zero calls" for span in zero]
        values = layers
    else:
        values = {
            "sentences_per_s": statistics.median(len(entries) / b["wall_s"] for b in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(b["maxrss_kb"] / 1024 for b in plain),
            "ok_share": (attempted - failed) / attempted,
            "out_layers": report.out_layers,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} are not "
                        "both measured and declared in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "sentences": len(entries),
        "batch_wall_s": [b["wall_s"] for b in plain],
        "traced_wall_s": [b["wall_s"] for b in traced],
        "setup_s": setup, "unverified": report.unverified, "problems": problems,
    }
    (work / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# env " + json.dumps(env))
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, 0 if result["correct"] else 1


def record_digests() -> None:
    """Run every sentence key once and store the digests of its outputs."""
    from perfbench.checks import read_sentence, read_stats, sentence_digest

    corpus = gen.load_corpus(ROOT)
    entries = [(f"d{i:03d}-{key}", key, gen.tree_for(key, corpus))
               for i, key in enumerate(gen.convertible_keys(corpus))]
    work = WORK / "record-digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "input.json").write_bytes(gen.input_bytes(entries))
    run_batch(work, ["--in", str(work / "input.json"), *BASE_ARGS], False,
              time.monotonic() + 600)
    stats = read_stats(work / "out")
    digests = {}
    for ident, key, _ in entries:
        files, row = read_sentence(work / "out", ident, stats)
        if None in files or row is None:
            raise SystemExit(f"{key} did not convert")
        digests[key] = sentence_digest(files, row)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "discoccg" / "cli.py").is_file():
        print(f"error: no discoccg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, code = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
