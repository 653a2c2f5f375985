"""Admission control: scope, execute/wait decisions, queue service, monitoring."""

from __future__ import annotations

import pytest

from commitsched.errors import DuplicateId, NonEmptyQueue, UnknownId
from commitsched.model import AccessClass, LifecycleState, Verb
from commitsched.scheduler import (
    Decision,
    DecisionKind,
    Policy,
    Scheduler,
    _WaitIndex,
    same_scope,
)

from conftest import make_commitment

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


@pytest.mark.parametrize("policy", list(Policy))
def test_distinct_targets_admit_immediately(policy):
    s = Scheduler(policy)
    for i, (access, prio) in enumerate([(W, 0), (R, 10), (W, 10), (R, 0), (W, 0)]):
        d = s.submit(make_commitment(f"c{i}", access, f"t{i}", priority=prio, arrival=i))
        assert d.kind is DecisionKind.EXECUTE
    assert s.queue == ()


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
    s = _loaded(Policy.FCFS, ("c2", R, 0), ("c3", R, 0))
    activated = s.on_complete("c1", LifecycleState.COMPLETED)
    assert [c.id for c in activated] == ["c2", "c3"]


def test_drain_reads_each_waiter_a_bounded_number_of_times(monkeypatch):
    # 30 readers then 30 writers wait behind one writer on d. Its retire
    # activates the readers; a drain that rescans the waiters on every
    # activation reads 30 * 30 more entries than the 60 in the queue.
    s = Scheduler()
    s.submit(make_commitment("w0", W, "d"))
    for i in range(1, 61):
        s.submit(make_commitment(f"c{i}", R if i <= 30 else W, "d", arrival=i))
    read = 0
    query = _WaitIndex.conflicting

    def counted(self, c):
        nonlocal read
        found = list(query(self, c))
        read += len(found)
        return found

    monkeypatch.setattr(_WaitIndex, "conflicting", counted)
    activated = s.on_complete("w0", LifecycleState.COMPLETED)
    assert [c.id for c in activated] == [f"c{i}" for i in range(1, 31)]
    assert len(s.queue) == 30
    assert read <= 2 * 60


def test_retire_that_leaves_its_scope_held_reads_no_waiter(monkeypatch):
    # 30 readers active on d, 30 writers queued behind them. Until the last
    # reader goes, each retire frees nobody; walking the writers on every
    # one reads 30 * 30 entries to activate the first writer.
    s = Scheduler()
    for i in range(30):
        s.submit(make_commitment(f"r{i}", R, "d"))
    for i in range(30):
        s.submit(make_commitment(f"w{i}", W, "d", arrival=1))
    read = 0
    query = _WaitIndex.conflicting

    def counted(self, c):
        nonlocal read
        found = list(query(self, c))
        read += len(found)
        return found

    monkeypatch.setattr(_WaitIndex, "conflicting", counted)
    activated = [s.on_complete(f"r{i}", LifecycleState.COMPLETED) for i in range(30)]
    assert activated == [[]] * 29 + [[s.active["w0"]]]
    assert len(s.queue) == 29
    assert read <= 2 * 30


def test_retire_that_frees_an_owner_scope_asks_its_waiters():
    # r1 leaves d held by r2 but was the last reader on a detail of s, so
    # the sign-off by s that waits on the owner scope runs.
    s = Scheduler()
    s.submit(make_commitment("r1", R, "d", target_owner="s"))
    s.submit(make_commitment("r2", R, "d"))
    signoff = make_commitment("so", W, debtor="s", verb=Verb.SIGNOFF)
    assert s.submit(signoff).blockers == ("r1",)
    assert s.on_complete("r1", LifecycleState.COMPLETED) == [signoff]


def test_signoff_blockers_keep_activation_then_queue_order():
    # r1 (owner svcB) and w2 active; w3 queued behind w2; the sign-off of svcB
    # contends with r1 through the owner scope and with w3 through the target.
    s = Scheduler()
    s.submit(make_commitment("w2", W, "svcB"))
    s.submit(make_commitment("r1", R, "d", target_owner="svcB"))
    s.submit(make_commitment("w3", W, "svcB", arrival=1))
    off = make_commitment("off", W, debtor="svcB", verb=Verb.SIGNOFF, arrival=2)
    assert s.submit(off) == Decision(DecisionKind.WAIT, ("w2", "r1", "w3"))
    assert [c.id for c in s.on_complete("w2", LifecycleState.COMPLETED)] == ["w3"]
    assert [c.id for c in s.on_complete("r1", LifecycleState.COMPLETED)] == []
    assert [c.id for c in s.on_complete("w3", LifecycleState.COMPLETED)] == ["off"]


def test_activation_from_the_queue_takes_a_fresh_sequence_number():
    # q activates after a2, so a2 precedes it in activation order, and the
    # sign-off, which finds both through the owner scope, lists a2 first.
    s = Scheduler()
    s.submit(make_commitment("a1", W, "d", target_owner="svcB"))
    s.submit(make_commitment("q", R, "d", target_owner="svcB"))
    s.submit(make_commitment("a2", W, "e", target_owner="svcB"))
    assert [c.id for c in s.on_complete("a1", LifecycleState.COMPLETED)] == ["q"]
    off = make_commitment("off", W, debtor="svcB", verb=Verb.SIGNOFF)
    assert s.submit(off) == Decision(DecisionKind.WAIT, ("a2", "q"))


def test_failed_outcome_releases_scope_like_completed():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    activated = s.on_complete("c1", LifecycleState.FAILED)
    assert [c.id for c in activated] == ["c2"]


def test_violation_releases_scope():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    activated = s.on_violation("c1")
    assert [c.id for c in activated] == ["c2"]
    assert s.snapshot()["svcA"][LifecycleState.VIOLATED] == 1


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


def test_restating_the_policy_with_a_queue_changes_nothing():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    before = s.snapshot()
    s.set_policy(Policy.FCFS)
    assert s.policy is Policy.FCFS
    assert s.snapshot() == before


# -- snapshot --------------------------------------------------------------------

def test_snapshot_empty():
    assert Scheduler().snapshot() == {}


def test_snapshot_counts_active_and_waiting():
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    assert s.snapshot() == {"svcA": {LifecycleState.ACTIVE: 1, LifecycleState.WAITING: 1}}


def test_snapshot_after_completion():
    # Replay of the two-step scenario: complete c1, c2 takes its place.
    s = _loaded(Policy.FCFS, ("c2", W, 0))
    s.on_complete("c1", LifecycleState.COMPLETED)
    assert s.snapshot() == {"svcA": {LifecycleState.COMPLETED: 1, LifecycleState.ACTIVE: 1}}


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


# -- scope -------------------------------------------------------------------------

def test_same_target_shares_scope():
    a = make_commitment("a", R, target="email")
    b = make_commitment("b", W, target="email")
    assert same_scope(a, b)


def test_disjoint_targets_do_not_contend():
    a = make_commitment("a", R, target="email")
    b = make_commitment("b", W, target="photo")
    assert not same_scope(a, b)


def test_signoff_contends_with_owned_detail():
    signoff = make_commitment("s", verb=Verb.SIGNOFF, debtor="svcA")
    post = make_commitment("p", W, target="wall", target_owner="svcA")
    assert same_scope(signoff, post)
    assert same_scope(post, signoff)


def test_signoff_ignores_foreign_details():
    signoff = make_commitment("s", verb=Verb.SIGNOFF, debtor="svcA")
    post = make_commitment("p", W, target="wall", target_owner="svcB")
    assert not same_scope(signoff, post)
    unowned = make_commitment("q", W, target="wall")
    assert not same_scope(signoff, unowned)


def test_two_signoffs_same_service_share_scope():
    a = make_commitment("a", verb=Verb.SIGNOFF, debtor="svcA")
    b = make_commitment("b", verb=Verb.SIGNOFF, debtor="svcA")
    assert same_scope(a, b)


def test_signoffs_of_different_services_are_independent():
    a = make_commitment("a", verb=Verb.SIGNOFF, debtor="svcA")
    b = make_commitment("b", verb=Verb.SIGNOFF, debtor="svcB")
    assert not same_scope(a, b)
