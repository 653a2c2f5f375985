"""commitsched benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs in a fresh process (``worker.py``),
one after another, for ``--seconds`` per workload (default and at most:
``run_seconds`` of ``BENCHMARK.json``; at least three repetitions, and
none starts that would likely end after the window). A repetition sets
up once and runs the timed phase three times. Every repetition checks
its outputs; the figures printed are medians over all timed phases
(set-up and peak memory: over repetitions). Every time is scaled to a
reference host speed, measured around each set-up and timed phase
(``hostspeed.py``); ``host_scale`` is the median scale applied, above 1
when the host ran slower than the reference.

With ``--trace 0`` the end-to-end metrics listed in ``BENCHMARK.json``
are printed. With ``--trace 1`` traced and untraced repetitions
alternate, and the per-layer metrics are printed, including
``tracing.overhead_ratio`` (traced over untraced timed phase); the
spans of the last traced repetition are written under ``.bench_out/``.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` (the
default) runs every workload in turn and names each metric
``<workload>/<metric>``. The exit code is 1 when any check failed and 2
when the program is not there to measure.

Workloads (sizes are fixed in ``workloads.SIZES``):
  sched-churn  twelve closed loops on the public Scheduler API: the caller
               waits on every submit/on_complete.
  sim-backlog  ``run()`` of a backlogged mixed scenario (priority policy).
  world-bulk   ``run()`` of a contention-free scenario with many details.
``op_p50_us``/``op_p99_us`` are percentiles of the latency of one
``Scheduler`` submit or retire call within a timed phase, on every
workload; in the ``run()`` workloads these are the calls the simulator
makes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

OUT = ROOT / ".bench_out"
WORKLOADS = ("sched-churn", "sim-backlog", "world-bulk")
MIN_REPS = 3
LATEST_START_S = 110   # start no repetition later, so one workload ends well within 180 s
REP_TIMEOUT_S = 60


def repetition(workload: str, seed: int, trace: int, spans: Path | None = None) -> dict:
    """One repetition in a fresh worker process."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"attempted": 1, "failed": 1, "problems": [f"worker exited {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[dict], list[dict]]:
    """Untraced (and, with ``trace``, traced) repetitions for ``seconds``."""
    # Compile bytecode up front, so no repetition pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   cwd=ROOT, capture_output=True, timeout=REP_TIMEOUT_S)
    plain: list[dict] = []
    traced: list[dict] = []
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl.gz" if trace else None
    if spans is not None:
        OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    took: list[float] = []
    # Start a repetition only if one of average length still fits in the window.
    while len(plain) < MIN_REPS or time.monotonic() - start + statistics.mean(took) <= seconds:
        if time.monotonic() - start > LATEST_START_S:
            break
        begun = time.monotonic()
        plain.append(repetition(workload, seed, 0))
        if trace:
            traced.append(repetition(workload, seed, 1, spans))
        took.append(time.monotonic() - begun)
    return plain, traced


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "commitments_per_s": statistics.median(
            r["submits"] / t for r in reps for t in r["timed_s"]),
        "op_p50_us": statistics.median(p for r in reps for p in r["op_p50_us"]),
        "op_p99_us": statistics.median(p for r in reps for p in r["op_p99_us"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    figures = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    # A traced repetition runs one timed phase, so it is compared with the
    # first (equally cold) timed phase of each untraced repetition.
    figures["tracing.overhead_ratio"] = (
        statistics.median(r["timed_s"][0] for r in traced)
        / statistics.median(r["timed_s"][0] for r in plain)
    )
    return figures


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    plain, traced = measure(workload, seed, seconds, trace)
    reps = plain + traced
    problems = [p for r in reps for p in r["problems"]]
    hashes = {r["sha256"] for r in reps if "sha256" in r}
    if len(hashes) > 1:
        problems.append("repetitions of the same input gave different outputs")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics: dict[str, dict] = {}
    if not problems:
        figures = per_layer(plain, traced) if trace else end_to_end(plain)
        missing = [m["name"] for m in wanted if m["name"] not in figures]
        if missing:
            problems.append(f"metrics not measured: {missing}")
        else:
            metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"== {workload}  seed={seed}  repetitions={len(plain)}"
          + (f"+{len(traced)} traced" if trace else ""))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    scales = [x for r in plain for x in r.get("host_scale", [])]
    if scales:
        print(f"  {'host_scale':<40} {statistics.median(scales):.4g}")
    print(f"  {'error_rate':<40} {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    for h in sorted(hashes):
        print(f"  {'output_sha256':<40} {h}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="commitsched benchmark")
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="window per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "commitsched" / "__init__.py").is_file():
        print(f"error: no commitsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not 1 <= seconds <= spec["run_seconds"]:
        ap.error(f"--seconds must be 1 to {spec['run_seconds']} (run_seconds of BENCHMARK.json)")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, seconds, args.trace, spec) for w in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
