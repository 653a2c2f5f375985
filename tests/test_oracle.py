"""Brute-force reference: admission decisions and exhaustive exploration."""

from __future__ import annotations

import pytest

from commitsched.equivalence import run_grid
from commitsched.errors import InstanceTooLarge
from commitsched.oracle import (
    MiniCommitment,
    MiniInstance,
    RefDecision,
    enumerate_outcomes,
    explore,
    reference_admission,
    reference_schedule,
)
from commitsched.scheduler import Scheduler


def R(cid, target="d", prio=0, arr=0):
    return MiniCommitment(cid, "reader", target, prio, arr)


def W(cid, target="d", prio=0, arr=0):
    return MiniCommitment(cid, "writer", target, prio, arr)


# -- reference admission -------------------------------------------------------

def test_two_readers_both_execute():
    decisions = reference_admission(MiniInstance((R("c1"), R("c2", arr=1))))
    assert decisions == [RefDecision("execute"), RefDecision("execute")]


def test_reader_waits_for_writer():
    decisions = reference_admission(MiniInstance((W("c1"), R("c2", arr=1))))
    assert decisions == [RefDecision("execute"), RefDecision("wait", ("c1",))]


def test_disjoint_writers_both_execute():
    decisions = reference_admission(MiniInstance((W("c1"), W("c2", "e", arr=1))))
    assert decisions == [RefDecision("execute"), RefDecision("execute")]


def test_queued_conflicts_also_block():
    decisions = reference_admission(
        MiniInstance((R("c1"), W("c2", arr=1), R("c3", arr=2)))
    )
    assert decisions[2] == RefDecision("wait", ("c2",))


def test_reference_schedule_policies():
    inst = MiniInstance(
        (W("c1"), W("c2", prio=0, arr=1), W("c3", prio=10, arr=2)),
        completion_order=("c1", "c2", "c3"),
    )
    assert reference_schedule(inst, "fcfs").activations == ("c2", "c3")
    assert reference_schedule(inst, "priority").activations == ("c3", "c2")


def test_reference_schedule_needs_covering_order():
    inst = MiniInstance((W("c1"),), completion_order=())
    with pytest.raises(ValueError):
        reference_schedule(inst)


# -- enumeration ------------------------------------------------------------------

def test_single_commitment_has_one_outcome():
    outcomes = enumerate_outcomes(MiniInstance((R("c1"),)))
    assert outcomes == {
        (("submit", "c1"), ("activate", "c1"), ("complete", "c1")),
    }


def test_same_target_writers_serialize():
    # Two interleavings exist and neither ever has both writers active.
    outcomes = enumerate_outcomes(MiniInstance((W("c1"), W("c2", arr=1))))
    assert len(outcomes) == 2
    for seq in outcomes:
        active = set()
        for kind, cid in seq:
            if kind == "activate":
                active.add(cid)
            elif kind == "complete":
                active.remove(cid)
            assert len(active) <= 1
    report = explore(MiniInstance((W("c1"), W("c2", arr=1))))
    assert report.all_safe and report.all_drained


def test_independent_writers_interleave():
    outcomes = enumerate_outcomes(MiniInstance((W("c1"), W("c2", "e", arr=1))))
    assert len(outcomes) == 3


def test_three_commitments_two_targets_safe_and_drained():
    inst = MiniInstance((W("c1"), R("c2", arr=1), W("c3", "e", arr=2)))
    report = explore(inst)
    assert report.all_safe
    assert report.all_drained
    assert report.states > 0


def test_exploration_covers_any_dequeue_order():
    # A writer and a reader queued behind a writer: depending on which is
    # dequeued first, different schedules arise; all must stay safe.
    inst = MiniInstance((W("c1"), W("c2", arr=1), R("c3", arr=2)))
    report = explore(inst)
    assert report.all_safe and report.all_drained
    outcomes = enumerate_outcomes(inst)
    firsts = {
        tuple(cid for kind, cid in seq if kind == "activate")
        for seq in outcomes
    }
    assert ("c1", "c2", "c3") in firsts
    assert ("c1", "c3", "c2") in firsts


# -- scheduler-vs-oracle grid ---------------------------------------------------------

def test_grid_of_three_is_clean():
    # Every instance of up to 3 commitments over 2 targets and 2 priorities,
    # under both policies and every completion order.
    report = run_grid(3)
    assert report.mismatches == []
    assert report.unsafe_states == 0
    assert report.undrained == 0
    assert (report.combinations, report.instances) == (584, 3584)


def test_grid_catches_a_wrong_activation_order(monkeypatch):
    # Right waiters in the wrong order: the grid must report the drains of two.
    on_complete = Scheduler.on_complete
    monkeypatch.setattr(
        Scheduler, "on_complete", lambda self, *args: on_complete(self, *args)[::-1]
    )
    report = run_grid(3)
    assert report.mismatches
    assert all("oracle activates" in m for m in report.mismatches)


# -- bounds -------------------------------------------------------------------------

def test_instance_bound_enforced():
    with pytest.raises(InstanceTooLarge):
        MiniInstance(tuple(R(f"c{i}", arr=i) for i in range(7)))


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        MiniInstance((R("c1"), R("c1", arr=1)))


def test_bad_access_rejected():
    with pytest.raises(ValueError):
        MiniCommitment("c1", "admin", "d")
