"""Tests of the benchmark itself: generators, checks and tracer.

Run with ``python -m pytest bench``. Sizes are small so the whole file
takes a few seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import worker

commitsched = worker.import_program()

import check  # noqa: E402  (needs commitsched on the path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {"sched-churn": 120, "sim-backlog": 400, "world-bulk": 60}
SEEDS = (1, 2, 3)


@pytest.mark.parametrize("name", sorted(workloads.SCENARIOS))
def test_scenario_generators_are_deterministic(name):
    gen = workloads.SCENARIOS[name]
    first = gen(7, SMALL[name])
    assert gen(7, SMALL[name]) == first
    assert gen(8, SMALL[name])[0] != first[0]


def test_churn_generator_is_deterministic():
    first = workloads.sched_churn(7, SMALL["sched-churn"])
    assert workloads.sched_churn(7, SMALL["sched-churn"]) == first
    assert workloads.sched_churn(8, SMALL["sched-churn"]) != first


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.SCENARIOS))
def test_generated_scenarios_run_clean(name, seed):
    rep = worker.scenario_rep(name, seed, None, iterations=1, size=SMALL[name])
    assert rep["problems"] == []
    assert rep["failed"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_churn_loop_runs_clean_and_drains(seed):
    rep = worker.churn_rep(seed, None, iterations=2, size=SMALL["sched-churn"])
    assert rep["problems"] == []
    assert rep["failed"] == 0


def _trace(*lines: str) -> str:
    return "\n".join(lines) + "\nt=0 END ok=true\n"


def _submitted(cid, service, verb, target, access):
    return (f"t=0 Submitted {cid} service={service} verb={verb} target={target} "
            f"access={access} prio=0")


PLAN = {"policy": "fcfs", "owners": {"d": "alice"}, "breaches": {}, "completes": 1, "submits": 2}


def test_checker_accepts_a_safe_trace():
    text = _trace(
        _submitted("r1", "bob", "collect", "d", "reader"),
        "t=0 Activated r1 service=bob",
        _submitted("w2", "carol", "post", "d", "writer"),
        "t=0 Waiting w2 service=carol blockers=r1",
        "t=1 Completed r1 service=bob",
        "t=1 Activated w2 service=carol",
    )
    assert check.check_trace(text, PLAN)[0] == []


def test_checker_rejects_writer_beside_reader():
    text = _trace(
        _submitted("r1", "bob", "collect", "d", "reader"),
        "t=0 Activated r1 service=bob",
        _submitted("w2", "carol", "post", "d", "writer"),
        "t=0 Activated w2 service=carol",
        "t=1 Completed r1 service=bob",
    )
    problems = check.check_trace(text, PLAN)[0]
    assert any("w2 activated beside" in p for p in problems)


def test_checker_rejects_signoff_beside_owned_detail():
    text = _trace(
        _submitted("r1", "bob", "collect", "d", "reader"),
        "t=0 Activated r1 service=bob",
        _submitted("s2", "alice", "signoff", "alice", "writer"),
        "t=0 Activated s2 service=alice",
        "t=1 Completed r1 service=bob",
    )
    problems = check.check_trace(text, PLAN)[0]
    assert any("s2 activated beside" in p and "o:alice" in p for p in problems)


def test_checker_rejects_unplanned_violation_and_bad_snapshot():
    text = _trace(
        _submitted("r1", "bob", "collect", "d", "reader"),
        "t=0 Activated r1 service=bob",
        "t=0 Violation r1 service=bob resp=resp1 reason=invalid-purpose",
        "t=0 Snapshot scheduler queue=- bob.Active=1",
    )
    plan = {**PLAN, "completes": 0, "submits": 1}
    problems = check.check_trace(text, plan)[0]
    assert any("violations differ" in p for p in problems)
    assert any("snapshot differs" in p for p in problems)


def test_churn_ledger_rejects_writer_beside_reader():
    specs = [("r1", False, "t", 0), ("w2", True, "t", 0)]
    ledger = check.ChurnLedger(specs)
    ledger.submit("r1", True, 0)
    ledger.submit("w2", True, 1)
    assert any("w2 activated beside" in p for p in ledger.problems)


def test_traced_run_adds_up_and_restores_entry_points():
    submit = commitsched.scheduler.Scheduler.submit
    tracer = tracing.Tracer()
    rep = worker.scenario_rep("sim-backlog", 1, tracer, iterations=1, size=SMALL["sim-backlog"])
    assert rep["problems"] == []
    assert commitsched.scheduler.Scheduler.submit is submit
    layers = rep["layers"]
    wall = layers["simulator.run_s"] + layers["trace.text_s"]
    assert sum(layers[f"{layer}.self_s"] for layer in worker.LAYERS) == pytest.approx(wall)
    assert layers["relations.scope_checks_per_commitment"] > 0


def test_call_latencies_time_each_scheduler_call_and_restore():
    submit = commitsched.scheduler.Scheduler.submit
    text, _ = workloads.sim_backlog(1, SMALL["sim-backlog"])
    calls = []
    with tracing.scheduler_call_latencies(calls):
        out = commitsched.simulator.run(commitsched.scenario.parse(text)).trace.text()
    assert commitsched.scheduler.Scheduler.submit is submit
    kinds = [line.split()[1] for line in out.splitlines()]
    assert len(calls) == sum(kinds.count(k) for k in ("Submitted", "Completed", "Violation"))


def test_benchmark_json_lists_every_metric_the_worker_reports():
    spec = json.loads((Path(worker.ROOT) / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    rep = worker.churn_rep(1, tracer, iterations=1, size=SMALL["sched-churn"])
    reported = set(rep["layers"]) | {"tracing.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {w["name"] for w in spec["workloads"]} == {"sched-churn", *workloads.SCENARIOS}
