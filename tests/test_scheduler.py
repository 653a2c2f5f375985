"""Admission control: execute/wait decisions, queue service, monitoring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from commitsched.errors import DuplicateId, NonEmptyQueue, UnknownId
from commitsched.model import AccessClass, LifecycleState, Verb
from commitsched.oracle import MiniCommitment, ReferenceScheduler
from commitsched.relations import classify, conflicts, same_scope
from commitsched.scheduler import (
    Decision,
    DecisionKind,
    Policy,
    Scheduler,
)

from conftest import any_commitment, make_commitment

R = AccessClass.READER
W = AccessClass.WRITER


def test_empty_scheduler_executes():
    s = Scheduler()
    c1 = make_commitment("c1", R, "email")
    d = s.submit(c1)
    assert d.kind is DecisionKind.EXECUTE
    assert d.blockers == ()
    assert s.active["c1"] is c1


def test_active_is_one_live_read_only_view():
    s = Scheduler()
    view = s.active
    assert s.active is view
    c1 = make_commitment("c1", W, "email")
    s.submit(c1)
    assert dict(view) == {"c1": c1}
    with pytest.raises(TypeError):
        view["c2"] = c1
    s.on_complete("c1", LifecycleState.COMPLETED)
    assert "c1" not in view and s.active is view


def test_reader_joins_active_reader():
    s = Scheduler()
    s.submit(make_commitment("c1", R, "email"))
    d = s.submit(make_commitment("c2", R, "email", arrival=1))
    assert d.kind is DecisionKind.EXECUTE
    assert set(s.active) == {"c1", "c2"}


def test_reader_waits_behind_active_writer():
    s = Scheduler()
    s.submit(make_commitment("c1", W, "email"))
    c2 = make_commitment("c2", R, "email", arrival=1)
    d = s.submit(c2)
    assert d == Decision(DecisionKind.WAIT, ("c1",))
    assert s.queue == (c2,) and s.queue[0] is c2


def test_no_barging_past_queued_writer():
    s = Scheduler()
    s.submit(make_commitment("r1", R, "d"))
    s.submit(make_commitment("w2", W, "d", arrival=1))
    d = s.submit(make_commitment("r3", R, "d", arrival=2))
    assert d == Decision(DecisionKind.WAIT, ("w2",))


def test_disjoint_scopes_never_interact():
    s = Scheduler()
    s.submit(make_commitment("w1", W, "d"))
    d = s.submit(make_commitment("w2", W, "e", arrival=1))
    assert d.kind is DecisionKind.EXECUTE


def test_duplicate_id_rejected():
    s = Scheduler()
    s.submit(make_commitment("c1", R, "d"))
    with pytest.raises(DuplicateId):
        s.submit(make_commitment("c1", R, "d", arrival=1))


def test_submit_requires_pending():
    # Pending means never submitted: an id is refused while queued, while
    # active and after it retired, and the refusal changes nothing.
    s = Scheduler()
    for c in (
        make_commitment("w1", W, "d"),
        make_commitment("r2", R, "d", arrival=1),
        make_commitment("x3", W, "e", arrival=2),
    ):
        s.submit(c)
    s.on_complete("x3", LifecycleState.COMPLETED)
    for cid in ("r2", "w1", "x3"):  # queued, active, retired
        queue, active, report = s.queue, dict(s.active), s.snapshot()
        with pytest.raises(DuplicateId):
            s.submit(make_commitment(cid, R, "f", arrival=3))
        assert s.queue == queue and dict(s.active) == active
        assert s.snapshot() == report
    assert [c.id for c in s.on_complete("w1", LifecycleState.COMPLETED)] == ["r2"]


def test_unknown_completion_rejected():
    s = Scheduler()
    with pytest.raises(UnknownId):
        s.on_complete("ghost", LifecycleState.COMPLETED)


def test_queued_completion_rejected():
    s = Scheduler()
    s.submit(make_commitment("w1", W, "d"))
    s.submit(make_commitment("r2", R, "d", arrival=1))
    queue, active = s.queue, dict(s.active)
    with pytest.raises(UnknownId):
        s.on_complete("r2", LifecycleState.COMPLETED)
    assert s.queue == queue
    assert dict(s.active) == active


def test_scheduler_holds_and_returns_the_submitted_objects():
    # The scheduler keeps the lifecycle itself: every commitment it holds
    # or hands back is the very object submitted, through a drain cascade.
    made = {
        c.id: c
        for c in (
            make_commitment("w1", W, "d", target_owner="svcB"),
            make_commitment("x2", W, "e", arrival=1),
            make_commitment("r3", R, "d", arrival=2, target_owner="svcB"),
            make_commitment("r4", R, "d", arrival=3, target_owner="svcB"),
            make_commitment("w5", W, "d", arrival=4, target_owner="svcB"),
            make_commitment("y6", W, "e", arrival=5),
            make_commitment("off", W, debtor="svcB", verb=Verb.SIGNOFF, arrival=6),
        )
    }

    def held_as_submitted():
        assert all(c is made[cid] for cid, c in s.active.items())
        assert all(c is made[c.id] for c in s.queue)

    s = Scheduler()
    for c in made.values():
        s.submit(c)
    assert list(s.active) == ["w1", "x2"]
    held_as_submitted()
    steps = (
        (lambda: s.on_complete("w1", LifecycleState.COMPLETED), ["r3", "r4"]),
        (lambda: s.on_violation("x2"), ["y6"]),
        (lambda: s.on_complete("r3", LifecycleState.FAILED), []),
        (lambda: s.on_complete("r4", LifecycleState.COMPLETED), ["w5"]),
        (lambda: s.on_violation("w5"), ["off"]),
    )
    for retire, expected in steps:
        activated = retire()
        assert [c.id for c in activated] == expected
        assert all(c is made[c.id] for c in activated)
        held_as_submitted()
    assert s.queue == () and list(s.active) == ["y6", "off"]


# -- completion and queue service --------------------------------------------

def _loaded(policy, *queued):
    """Writer c1 active on d, plus the given (id, access, prio) queued on d."""
    s = Scheduler(policy)
    s.submit(make_commitment("c1", W, "d"))
    for i, (cid, access, prio) in enumerate(queued, start=1):
        s.submit(make_commitment(cid, access, "d", priority=prio, arrival=i))
    return s


def test_fcfs_serves_arrival_order():
    s = _loaded(Policy.FCFS, ("c2", W, 0), ("c3", W, 0))
    activated = s.on_complete("c1", LifecycleState.COMPLETED)
    assert [c.id for c in activated] == ["c2"]
    assert [c.id for c in s.queue] == ["c3"]


def test_priority_serves_highest_first():
    s = _loaded(Policy.PRIORITY, ("c2", W, 0), ("c3", W, 10))
    activated = s.on_complete("c1", LifecycleState.COMPLETED)
    assert [c.id for c in activated] == ["c3"]


def test_both_readers_activate_together():
    # Cross-checked against the brute-force reference on the same instance.
    s = _loaded(Policy.FCFS, ("c2", R, 0), ("c3", R, 0))
    activated = s.on_complete("c1", LifecycleState.COMPLETED)
    assert [c.id for c in activated] == ["c2", "c3"]

    ref = ReferenceScheduler("fcfs")
    for c in (
        MiniCommitment("c1", "writer", "d", 0, 0),
        MiniCommitment("c2", "reader", "d", 0, 1),
        MiniCommitment("c3", "reader", "d", 0, 2),
    ):
        ref.submit(c)
    assert ref.complete("c1") == ["c2", "c3"]


def test_failed_outcome_releases_scope_like_completed():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    activated = s.on_complete("c1", LifecycleState.FAILED)
    assert [c.id for c in activated] == ["c2"]


def test_violation_releases_scope():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    activated = s.on_violation("c1")
    assert [c.id for c in activated] == ["c2"]
    assert s.snapshot().by_service["svcA"][LifecycleState.VIOLATED] == 1


@pytest.mark.parametrize(
    "outcome",
    [o for o in LifecycleState if o not in (LifecycleState.COMPLETED, LifecycleState.FAILED)],
)
def test_on_complete_rejects_other_outcomes(outcome):
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    before = s.snapshot()
    with pytest.raises(ValueError, match="outcome must be completed or failed"):
        s.on_complete("c1", outcome)
    assert list(s.active) == ["c1"]
    assert s.snapshot() == before


# -- policy switching -----------------------------------------------------------

def test_set_policy_on_idle_scheduler():
    s = Scheduler()
    s.set_policy(Policy.PRIORITY)
    assert s.policy is Policy.PRIORITY
    s.set_policy(Policy.FCFS)
    assert s.policy is Policy.FCFS


def test_set_policy_blocked_by_queue():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    with pytest.raises(NonEmptyQueue):
        s.set_policy(Policy.PRIORITY)


# -- snapshot --------------------------------------------------------------------

def test_snapshot_empty():
    report = Scheduler().snapshot()
    assert report.by_service == {}
    assert report.queue == ()


def test_snapshot_counts_active_and_waiting():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    report = s.snapshot()
    assert report.by_service == {
        "svcA": {LifecycleState.ACTIVE: 1, LifecycleState.WAITING: 1}
    }
    assert report.queue == ("c2",)


def test_snapshot_after_completion():
    # Replay of the two-step scenario: complete c1, c2 takes its place.
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    s.on_complete("c1", LifecycleState.COMPLETED)
    report = s.snapshot()
    assert report.by_service == {
        "svcA": {LifecycleState.COMPLETED: 1, LifecycleState.ACTIVE: 1}
    }
    assert report.queue == ()


# -- properties --------------------------------------------------------------------

def _conflict(a, b) -> bool:
    """The conflict rule of ``relations``: same scope, and not friends."""
    return same_scope(a, b) and conflicts(classify(a, b))


def _safety_holds(s: Scheduler) -> bool:
    actives = list(s.active.values())
    return not any(
        _conflict(a, b) for i, a in enumerate(actives) for b in actives[i + 1:]
    )


commitment_specs = st.lists(
    st.tuples(
        st.sampled_from([R, W]),
        st.sampled_from(["d", "e"]),
        st.sampled_from([0, 10]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(specs=commitment_specs, policy=st.sampled_from(list(Policy)), data=st.data())
def test_random_runs_stay_safe_and_drain(specs, policy, data):
    s = Scheduler(policy)
    pending = [
        make_commitment(f"c{i}", access, target, priority=prio, arrival=i)
        for i, (access, target, prio) in enumerate(specs)
    ]
    while pending or s.active:
        if pending and (not s.active or data.draw(st.booleans(), label="submit next")):
            s.submit(pending.pop(0))
        else:
            cid = data.draw(st.sampled_from(sorted(s.active)), label="complete")
            s.on_complete(cid, LifecycleState.COMPLETED)
        assert _safety_holds(s)
    assert s.queue == ()


@settings(max_examples=80, deadline=None)
@given(specs=commitment_specs)
def test_distinct_targets_admit_immediately(specs):
    s = Scheduler()
    for i, (access, _, prio) in enumerate(specs):
        d = s.submit(make_commitment(f"c{i}", access, f"t{i}", priority=prio, arrival=i))
        assert d.kind is DecisionKind.EXECUTE


RETIRES = ("completed", "failed", "violated")


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(list(Policy)), data=st.data())
def test_blocker_counts_and_wait_blockers_match_a_relations_scan(policy, data):
    # The scope index reads only the buckets whose access mode conflicts;
    # every answer must equal a plain scan with the relations rule.
    s = Scheduler(policy)
    for i in range(data.draw(st.integers(1, 40), label="steps")):
        if s.active and data.draw(st.booleans(), label="retire"):
            cid = data.draw(st.sampled_from(sorted(s.active)), label="retired")
            outcome = data.draw(st.sampled_from(RETIRES), label="outcome")
            if outcome == "violated":
                s.on_violation(cid)
            else:
                s.on_complete(cid, LifecycleState(outcome))
        else:
            c = data.draw(any_commitment(f"c{i}"), label="submitted")
            scan = [x.id for x in s.active.values() if _conflict(c, x)]
            scan += [x.id for x in s.queue if _conflict(c, x)]
            decision = s.submit(c)
            if scan:
                assert decision == Decision(DecisionKind.WAIT, tuple(scan))
            else:
                assert decision.kind is DecisionKind.EXECUTE
        assert _safety_holds(s)
        for q in s.queue:
            assert s._blocked_by[q.id] == sum(_conflict(q, a) for a in s.active.values())


def test_deterministic_replay():
    def play():
        s = Scheduler(Policy.PRIORITY)
        log = []
        log.append(s.submit(make_commitment("c1", W, "d")))
        log.append(s.submit(make_commitment("c2", R, "d", arrival=1)))
        log.append(s.submit(make_commitment("c3", W, "d", priority=10, arrival=2)))
        log.append([c.id for c in s.on_complete("c1", LifecycleState.COMPLETED)])
        log.append([c.id for c in s.on_complete("c3", LifecycleState.COMPLETED)])
        return log

    assert play() == play()
