"""Brute-force reference: admission decisions and exhaustive exploration."""

from __future__ import annotations

import pytest

from commitsched import oracle
from commitsched.cli import main
from commitsched.equivalence import run_grid
from commitsched.errors import InstanceTooLarge
from commitsched.oracle import (
    ExplorationReport,
    MiniCommitment,
    MiniInstance,
    RefDecision,
    ReferenceScheduler,
    explore,
)
from commitsched.scheduler import Scheduler


def R(cid, target="d", prio=0, arr=0):
    return MiniCommitment(cid, "reader", target, prio, arr)


def W(cid, target="d", prio=0, arr=0):
    return MiniCommitment(cid, "writer", target, prio, arr)


def _decisions(*commitments):
    ref = ReferenceScheduler()
    return [ref.submit(c) for c in commitments]


# -- reference admission -------------------------------------------------------

def test_two_readers_both_execute():
    decisions = _decisions(R("c1"), R("c2", arr=1))
    assert decisions == [RefDecision("execute"), RefDecision("execute")]


def test_reader_waits_for_writer():
    decisions = _decisions(W("c1"), R("c2", arr=1))
    assert decisions == [RefDecision("execute"), RefDecision("wait", ("c1",))]


def test_disjoint_writers_both_execute():
    decisions = _decisions(W("c1"), W("c2", "e", arr=1))
    assert decisions == [RefDecision("execute"), RefDecision("execute")]


def test_queued_conflicts_also_block():
    decisions = _decisions(R("c1"), W("c2", arr=1), R("c3", arr=2))
    assert decisions[2] == RefDecision("wait", ("c2",))


def test_reference_schedule_policies():
    # Two writers queued behind c1; FCFS serves c2 first, Priority c3 (p10).
    for policy, first, second in (("fcfs", "c2", "c3"), ("priority", "c3", "c2")):
        ref = ReferenceScheduler(policy)
        for c in (W("c1"), W("c2", prio=0, arr=1), W("c3", prio=10, arr=2)):
            ref.submit(c)
        assert ref.complete("c1") == [first]
        assert ref.complete(first) == [second]
        assert ref.complete(second) == []
        assert ref.active == ref.queue == []


# -- exploration ------------------------------------------------------------------
# State counts of the full walk: every submission, completion and dequeue
# order. A walk that skipped one of those orders would reach fewer states.

def test_single_commitment_has_one_outcome():
    # (not submitted), active, completed.
    assert explore(MiniInstance((R("c1"),))) == ExplorationReport(3, 0, 0)


def test_same_target_writers_serialize():
    report = explore(MiniInstance((W("c1"), W("c2", arr=1))))
    assert report == ExplorationReport(6, 0, 0)


def test_independent_writers_interleave():
    report = explore(MiniInstance((W("c1"), W("c2", "e", arr=1))))
    assert report == ExplorationReport(7, 0, 0)


def test_three_commitments_two_targets_safe_and_drained():
    inst = MiniInstance((W("c1"), R("c2", arr=1), W("c3", "e", arr=2)))
    assert explore(inst) == ExplorationReport(12, 0, 0)


def test_exploration_covers_any_dequeue_order():
    # A writer and a reader queued behind a writer: either may be dequeued
    # first, and both orders are walked (see the first-only mutation below).
    inst = MiniInstance((W("c1"), W("c2", arr=1), R("c3", arr=2)))
    assert explore(inst) == ExplorationReport(12, 0, 0)


_ELIGIBLE = oracle._eligible


@pytest.mark.parametrize(
    "name, fake, commitments, check",
    [
        (
            "_blockers",
            lambda c, active, queued: [],
            (W("c1"), W("c2", arr=1)),
            lambda r: r.unsafe_states >= 1,
        ),
        (
            "_eligible",
            lambda queued, active: [],
            (W("c1"), W("c2", arr=1)),
            lambda r: r.undrained_outcomes >= 1,
        ),
        (
            "_eligible",
            lambda queued, active: _ELIGIBLE(queued, active)[:1],
            (W("c1"), W("c2", arr=1), R("c3", arr=2)),
            lambda r: r.states == 10,
        ),
    ],
    ids=["admit-all", "drain-none", "drain-first-only"],
)
def test_exploration_counters_fire(monkeypatch, name, fake, commitments, check):
    # Each oracle rule broken in turn: explore's counters must show it.
    monkeypatch.setattr(oracle, name, fake)
    assert check(explore(MiniInstance(commitments)))


# -- scheduler-vs-oracle grid ---------------------------------------------------------

def test_grid_of_three_is_clean():
    # Every instance of up to 3 commitments over 2 targets and 2 priorities,
    # under both policies and every completion order.
    report = run_grid(3)
    assert report.mismatches == []
    assert report.unsafe_states == 0
    assert report.undrained == 0
    assert (report.combinations, report.instances) == (584, 3584)
    assert report.states_explored == 7104


def test_grid_catches_a_wrong_activation_order(monkeypatch, capsys):
    # Right waiters in the wrong order: the grid must report the drains of two.
    on_complete = Scheduler.on_complete
    monkeypatch.setattr(
        Scheduler, "on_complete", lambda self, *args: on_complete(self, *args)[::-1]
    )
    report = run_grid(3)
    assert report.mismatches
    assert all("oracle activates" in m for m in report.mismatches)
    # Every completion order is a run; a failing one counts once, and the
    # orders skipped after its failing prefix count as neither pass nor fail.
    assert main(["oracle", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "combinations=584 runs=3584 states=7104"
    assert lines[1].startswith("pass=3520 fail=32 ")


# -- bounds -------------------------------------------------------------------------

def test_instance_bound_enforced():
    with pytest.raises(InstanceTooLarge):
        MiniInstance(tuple(R(f"c{i}", arr=i) for i in range(7)))


@pytest.mark.parametrize("size", ["0", "-1", "7"])
def test_oracle_command_rejects_a_size_out_of_range(size, monkeypatch, capsys):
    # Refused before any instance is enumerated: 0 would check nothing and
    # exit 0, and 7 would run every size up to 6 before the bound fired.
    def never(*_args, **_kwargs):
        raise AssertionError("run_grid called")

    monkeypatch.setattr("commitsched.equivalence.run_grid", never)
    with pytest.raises(SystemExit) as exited:
        main(["oracle", size])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument size: invalid choice: {size} (choose from 1, 2, 3, 4, 5, 6)" in captured.err


@pytest.mark.parametrize("size", [0, 7])
def test_run_grid_rejects_a_size_out_of_range(size, monkeypatch):
    # 0 would pass vacuously and 7 would check every size up to 6 first.
    def never(*_args, **_kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("commitsched.equivalence.MiniCommitment", never)
    monkeypatch.setattr("commitsched.equivalence.MiniInstance", never)
    with pytest.raises(ValueError, match=f"max_commitments must be 1 to 6, got {size}"):
        run_grid(size)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        MiniInstance((R("c1"), R("c1", arr=1)))


def test_bad_access_rejected():
    with pytest.raises(ValueError):
        MiniCommitment("c1", "admin", "d")
