"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--spans FILE]

Generates the workload's inputs from the seed, imports ``commitsched``
from the checkout's ``src`` directory, sets up once, runs the timed phase
``ITERATIONS`` times, checks the outputs and prints one JSON object. One
iteration's output is checked in full; every other one must be
byte-identical to it. With ``--trace 1`` every layer entry point is
wrapped (see ``tracer.py``), one iteration runs, the object also carries
the per-layer figures, and the spans go to ``--spans``.

Set-up is ``import commitsched`` plus ``parse()`` of the scenario, or
plus building the commitments for ``sched-churn``. The timed phase is
``run()`` plus ``Trace.text()``, or the closed loops for ``sched-churn``.
An operation is one ``Scheduler`` submit or retire call: the loops time
each call they make, and an untraced ``run()`` times each call the
simulator makes (``tracer.scheduler_call_latencies``).
Set-up and each timed phase run between two host-speed kernels, and every
time reported is scaled to the reference host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import tracer as tracing
import workloads
from quantiles import nearest_rank

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
LAYERS = ("scheduler", "world", "model", "trace", "simulator")
ITERATIONS = 3  # timed phases per untraced repetition
WORLD_EXEC_SPANS = [f"world.exec.{verb}" for verb in tracing.WORLD_EXEC]


def import_program():
    """``commitsched`` from this checkout's sources, never an installed copy."""
    import commitsched

    if Path(commitsched.__file__).resolve().parent != SRC / "commitsched":
        raise SystemExit(f"commitsched imported from {commitsched.__file__}, not {SRC}")
    return commitsched


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- run() workloads ---------------------------------------------------------------

def scenario_rep(name: str, seed: int, tracer, iterations: int = ITERATIONS,
                 size: int | None = None) -> dict:
    text, plan = workloads.SCENARIOS[name](seed, size or workloads.SIZES[name])

    def set_up():
        program = import_program()
        return program, program.scenario.parse(text, source=name)

    with tracing.install(tracer) if tracer else contextlib.nullcontext():
        (program, scenario), setup_s, _ = hostspeed.scaled(set_up)
        timed_from_ns = time.perf_counter_ns()
        timed: list[float] = []
        scales: list[float] = []
        latencies: list[list[float]] = []
        outputs: list[str] = []
        for _ in range(iterations):
            calls: list[int] = []
            try:
                # A traced run has its own spans; it reports no call latencies.
                with contextlib.nullcontext() if tracer else tracing.scheduler_call_latencies(calls):
                    out, took, scale = hostspeed.scaled(
                        lambda: program.simulator.run(scenario).trace.text())
            except program.errors.ScenarioRuntimeError as exc:
                left = sum(1 for cmd in scenario.commands if cmd.line >= exc.line)
                return {"attempted": len(scenario.commands), "failed": left,
                        "problems": [f"scenario aborted: {exc}"]}
            timed.append(took)
            scales.append(scale)
            latencies.append([ns * scale for ns in calls])
            outputs.append(out)
    rss_mb = _peak_rss_mb()
    from check import check_trace

    problems, stats = check_trace(outputs[0], plan)
    if any(out != outputs[0] for out in outputs):
        problems.append("iterations of the same scenario gave different traces")
    rep = {
        "setup_s": setup_s,
        "timed_s": timed,
        "host_scale": scales,
        "rss_mb": rss_mb,
        "submits": plan["submits"],
        "attempted": len(scenario.commands) * iterations,
        "failed": 0,
        "problems": problems,
        "op_p50_us": [nearest_rank(lat, 0.5) / 1e3 for lat in latencies],
        "op_p99_us": [nearest_rank(lat, 0.99) / 1e3 for lat in latencies],
        "sha256": _sha(outputs[0]),
    }
    if tracer is not None:
        extra = {"lines": len(text.splitlines()), "trace_bytes": len(outputs[0].encode())}
        rep["layers"] = layer_metrics(tracer, plan["submits"], stats, extra, timed_from_ns, scale)
    return rep


# -- sched-churn -------------------------------------------------------------------

def churn_loop(program, commitments: list, work: dict) -> tuple[list, list[int], object]:
    """The closed loop: returns its log, per-call latencies in ns and the scheduler.

    Each step submits the next commitment or completes a random active
    one, as the step pattern says; once all are submitted it completes
    until nothing is active. Log entries are ``(cid, executed)`` for a
    submit and ``(cid, [activated ids])`` for a completion.
    """
    from commitsched.model import LifecycleState
    from commitsched.scheduler import DecisionKind, Policy

    sched = program.scheduler.Scheduler(Policy.FCFS)
    rng = random.Random(work["ops_seed"])
    ops = iter(work["ops"])
    clock = time.perf_counter_ns
    execute, done = DecisionKind.EXECUTE, LifecycleState.COMPLETED
    active: list[str] = []
    log: list[tuple] = []
    latencies: list[int] = []
    n = len(commitments)
    i = 0
    while i < n or active:
        if i < n and (next(ops) == "submit" or not active):
            c = commitments[i]
            i += 1
            start = clock()
            decision = sched.submit(c)
            latencies.append(clock() - start)
            ran = decision.kind is execute
            if ran:
                active.append(c.id)
            log.append((c.id, ran))
        else:
            k = rng.randrange(len(active))
            active[k], active[-1] = active[-1], active[k]
            cid = active.pop()
            start = clock()
            woken = sched.on_complete(cid, done)
            latencies.append(clock() - start)
            ids = [c.id for c in woken]
            active.extend(ids)
            log.append((cid, ids))
    return log, latencies, sched


def build_commitments(program, specs) -> list:
    """``Commitment`` values for the churn specs: collect for readers, post for writers."""
    from commitsched.model import (
        RESPONSIBILITY_FOR_VERB,
        CommitmentKind,
        ContentAction,
        Verb,
    )

    make = program.model.new_commitment
    commitments = []
    for arrival, (cid, writer, target, prio) in enumerate(specs):
        content = (
            ContentAction(Verb.POST, target, veracity=True)
            if writer
            else ContentAction(Verb.COLLECT, target, owner="owner", purpose="use")
        )
        commitments.append(make(
            cid, CommitmentKind.SOCIAL, RESPONSIBILITY_FOR_VERB[content.verb],
            "svc", "net", content, explicit_priority=prio, clock=arrival,
        ))
    return commitments


def check_churn(episodes: list[dict], logs: list[list], scheds: list) -> tuple[list[str], dict]:
    """Replay each loop's log through an independent ledger."""
    from check import ChurnLedger

    problems: list[str] = []
    stats = {"waits": 0, "queue_max": 0, "active_max": 0, "fcfs_overtakes": 0}
    waits: list[int] = []
    for work, log, sched in zip(episodes, logs, scheds):
        ledger = ChurnLedger(work["specs"])
        for step, (cid, outcome) in enumerate(log):
            if isinstance(outcome, bool):
                ledger.submit(cid, outcome, step)
            else:
                ledger.complete(cid, outcome, step)
        found, counts = ledger.finish(sched)
        problems += found
        waits += ledger.waits
        for key in ("waits", "fcfs_overtakes"):
            stats[key] += counts[key]
        for key in ("queue_max", "active_max"):
            stats[key] = max(stats[key], counts[key])
    stats["wait_ticks_p99"] = nearest_rank(waits, 0.99)
    return problems, stats


def churn_rep(seed: int, tracer, iterations: int = ITERATIONS, size: int | None = None) -> dict:
    episodes = workloads.sched_churn(seed, size or workloads.SIZES["sched-churn"])
    submits = sum(len(work["specs"]) for work in episodes)

    def set_up():
        program = import_program()
        return program, [build_commitments(program, work["specs"]) for work in episodes]

    def phase():
        return [churn_loop(program, c, work) for c, work in zip(commitments, episodes)]

    with tracing.install(tracer) if tracer else contextlib.nullcontext():
        (program, commitments), setup_s, _ = hostspeed.scaled(set_up)
        timed_from_ns = time.perf_counter_ns()
        timed: list[float] = []
        scales: list[float] = []
        latencies: list[list[float]] = []
        logs: list[list[list]] = []
        for _ in range(iterations):
            loops, took, scale = hostspeed.scaled(phase)
            timed.append(took)
            scales.append(scale)
            latencies.append([ns * scale for _, lat, _ in loops for ns in lat])
            logs.append([log for log, _, _ in loops])
    rss_mb = _peak_rss_mb()
    problems, stats = check_churn(episodes, logs[-1], [sched for _, _, sched in loops])
    if any(log != logs[-1] for log in logs):
        problems.append("iterations of the same loops gave different decisions")
    canonical = "".join(f"{e} {cid} {outcome}\n"
                        for e, log in enumerate(logs[-1]) for cid, outcome in log)
    rep = {
        "setup_s": setup_s,
        "timed_s": timed,
        "host_scale": scales,
        "rss_mb": rss_mb,
        "submits": submits,
        "attempted": len(canonical.splitlines()) * iterations,
        "failed": 0,
        "problems": problems,
        "op_p50_us": [nearest_rank(lat, 0.5) / 1e3 for lat in latencies],
        "op_p99_us": [nearest_rank(lat, 0.99) / 1e3 for lat in latencies],
        "sha256": _sha(canonical),
    }
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, submits, stats, {}, timed_from_ns, scale)
    return rep


# -- per-layer figures -------------------------------------------------------------

def layer_metrics(tracer, submits: int, stats: dict, extra: dict, timed_from_ns: int,
                  scale: float) -> dict:
    """Per-layer figures of one traced iteration (0 where a layer is absent).

    Times are multiplied by ``scale``, the host-speed scale of the timed phase.
    """
    s_per_ns, us_per_ns = scale / 1e9, scale / 1e3
    own = tracer.self_times()
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns = dict.fromkeys(LAYERS, 0)
    wall_ns = 0
    for sid, name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        if start >= timed_from_ns:
            layer = name.split(".", 1)[0]
            self_ns[layer] += own[sid]
            if parent < 0:
                wall_ns += end - start

    def mean_us(name):
        return total[name] / calls[name] * us_per_ns if calls[name] else 0

    def p99_us(name):
        return nearest_rank(durations[name], 0.99) * us_per_ns

    lines = extra.get("lines")
    out = {
        "scheduler.submit_s": total["scheduler.submit"] * s_per_ns,
        "scheduler.submit_us_p99": p99_us("scheduler.submit"),
        "scheduler.retire_s": total["scheduler.retire"] * s_per_ns,
        "scheduler.retire_us_p99": p99_us("scheduler.retire"),
        "scheduler.wait_ratio": stats["waits"] / submits,
        "scheduler.activations_per_retire": (
            tracer.counts["scheduler.retire_activations"] / calls["scheduler.retire"]
            if calls["scheduler.retire"] else 0
        ),
        "scheduler.queue_max": stats["queue_max"],
        "scheduler.active_max": stats["active_max"],
        "scheduler.snapshot_s": total["scheduler.snapshot"] * s_per_ns,
        "scheduler.wait_ticks_p99": stats["wait_ticks_p99"],
        "scheduler.fcfs_overtakes": stats["fcfs_overtakes"],
        "relations.scope_checks_per_commitment": tracer.counts["relations.same_scope"] / submits,
        "world.exec_s": sum(total[name] for name in WORLD_EXEC_SPANS) * s_per_ns,
        **{f"world.exec_us.{name.rsplit('.', 1)[1]}": mean_us(name) for name in WORLD_EXEC_SPANS},
        "world.update_calls": calls["world.update"],
        "world.update_s": total["world.update"] * s_per_ns,
        "world.detail_privacy_s": total["world.detail_privacy"] * s_per_ns,
        **{f"world.violations.resp{k}": stats.get(f"resp{k}", 0) for k in range(1, 6)},
        "scenario.parse_s": total["scenario.parse"] * s_per_ns,
        "scenario.parse_us_per_line": total["scenario.parse"] / lines * us_per_ns if lines else 0,
        "model.new_commitment_us": mean_us("model.new_commitment"),
        "trace.text_s": total["trace.text"] * s_per_ns,
        "trace.bytes": extra.get("trace_bytes", 0),
        "simulator.run_s": total["simulator.run"] * s_per_ns,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] * s_per_ns
        out[f"{layer}.self_share"] = self_ns[layer] / wall_ns if wall_ns else 0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sched-churn", *workloads.SCENARIOS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the spans of a traced repetition")
    args = ap.parse_args(argv)
    hostspeed.kernel()  # the first call pays for the interpreter's warm-up
    tracer = tracing.Tracer() if args.trace else None
    iterations = 1 if tracer else ITERATIONS
    if args.workload == "sched-churn":
        rep = churn_rep(args.seed, tracer, iterations)
    else:
        rep = scenario_rep(args.workload, args.seed, tracer, iterations)
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    # Each problem the checks found counts as one failed operation.
    rep["failed"] = max(rep["failed"], min(len(rep["problems"]), rep["attempted"]))
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
