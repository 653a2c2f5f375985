"""The indexed Scheduler against the pairwise specification.

``Pairwise`` is the scheduler written straight from its definition: every
submission is checked with ``_blocks``, the ``relations`` rule, against
every active and every queued commitment, and every retire drains with a
``select_next`` loop. Random runs drive both side by side and compare
every observable after every step, so the scope index, the blocker counts
and the one-pass drain must reproduce the specification exactly, sign-off
scopes included.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from hypothesis import given, settings, strategies as st

from commitsched.model import (
    AccessClass,
    Commitment,
    LifecycleState,
    TransitionEvent,
    Verb,
    transition,
)
from commitsched.relations import classify, conflicts, same_scope
from commitsched.scheduler import (
    Decision,
    DecisionKind,
    MonitoringReport,
    Policy,
    Scheduler,
)

from conftest import any_commitment, make_commitment

RETIRE = {
    "complete": TransitionEvent.COMPLETE,
    "fail": TransitionEvent.FAIL,
    "violation": TransitionEvent.VIOLATE,
}
W = AccessClass.WRITER


def _blocks(c: Commitment, other: Commitment) -> bool:
    """The conflict rule of ``relations``: same scope, and not friends."""
    return same_scope(c, other) and conflicts(classify(c, other))


def select_next(
    queue: Sequence[Commitment],
    active: Iterable[Commitment],
    policy: Policy,
) -> Commitment | None:
    """Pick the queued commitment to activate next, or None.

    The executable specification of one drain step. ``Scheduler`` does
    not call it: its one-pass drain must activate exactly what a loop of
    it would pick, in the same order. Only commitments that no longer
    conflict with the active set are eligible. FCFS takes the earliest
    arrival (queue order breaks ties); Priority takes the highest
    priority, then earliest arrival, then smallest id.
    """
    actives = list(active)
    eligible = [
        (idx, c) for idx, c in enumerate(queue)
        if not any(_blocks(c, a) for a in actives)
    ]
    if not eligible:
        return None
    if policy is Policy.FCFS:
        return min(eligible, key=lambda e: (e[1].arrival, e[0]))[1]
    return min(eligible, key=lambda e: (-e[1].priority, e[1].arrival, e[1].id))[1]


class Pairwise:
    """Reference admission: pairwise scans, drained by a select_next loop."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self.active: dict = {}
        self.queue: list = []
        self.tally: dict = {}

    def submit(self, c) -> Decision:
        blockers = [x.id for x in self.active.values() if _blocks(c, x)]
        blockers += [x.id for x in self.queue if _blocks(c, x)]
        if blockers:
            self.queue.append(transition(c, TransitionEvent.ENQUEUE))
            return Decision(DecisionKind.WAIT, tuple(blockers))
        self.active[c.id] = transition(c, TransitionEvent.ACTIVATE)
        return Decision(DecisionKind.EXECUTE)

    def retire(self, cid: str, event: TransitionEvent) -> list:
        retired = transition(self.active.pop(cid), event)
        per = self.tally.setdefault(retired.debtor, {})
        per[retired.state] = per.get(retired.state, 0) + 1
        activated = []
        while (chosen := select_next(self.queue, self.active.values(), self.policy)) is not None:
            self.queue.remove(chosen)
            admitted = transition(chosen, TransitionEvent.ACTIVATE)
            self.active[admitted.id] = admitted
            activated.append(admitted)
        return activated

    def snapshot(self) -> MonitoringReport:
        counts = {svc: dict(states) for svc, states in self.tally.items()}
        for state, group in (
            (LifecycleState.ACTIVE, self.active.values()),
            (LifecycleState.WAITING, self.queue),
        ):
            for c in group:
                per = counts.setdefault(c.debtor, {})
                per[state] = per.get(state, 0) + 1
        return MonitoringReport(counts, tuple(c.id for c in self.queue))


def _retire(s: Scheduler, cid: str, event: TransitionEvent) -> list:
    if event is TransitionEvent.VIOLATE:
        return s.on_violation(cid)
    outcome = LifecycleState.COMPLETED if event is TransitionEvent.COMPLETE else LifecycleState.FAILED
    return s.on_complete(cid, outcome)


def _assert_same_state(s: Scheduler, ref: Pairwise) -> None:
    assert list(s.active.items()) == list(ref.active.items())
    assert s.queue == tuple(ref.queue)
    assert s.snapshot() == ref.snapshot()


def _drive(data, s: Scheduler, ref: Pairwise, prefix: str, steps: int) -> None:
    """Apply random steps to both engines, comparing after each one."""
    submitted = 0
    for _ in range(steps):
        ops = ["submit"] * 2 + (list(RETIRE) if ref.active else [])
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "submit":
            c = data.draw(any_commitment(f"{prefix}{submitted}"), label="commitment")
            submitted += 1
            assert s.submit(c) == ref.submit(c)
        else:
            cid = data.draw(st.sampled_from(sorted(ref.active)), label=op)
            assert _retire(s, cid, RETIRE[op]) == ref.retire(cid, RETIRE[op])
        _assert_same_state(s, ref)


@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
@given(policy=st.sampled_from(list(Policy)), data=st.data())
def test_indexed_scheduler_matches_pairwise_specification(policy, data):
    s, ref = Scheduler(policy), Pairwise(policy)
    _drive(data, s, ref, "c", data.draw(st.integers(1, 40), label="steps"))


def test_signoff_blockers_keep_activation_then_queue_order():
    # r1 (owner svcB) and w2 active; w3 queued behind w2; the sign-off of svcB
    # contends with r1 through the owner scope and with w3 through the target.
    s = Scheduler()
    s.submit(make_commitment("w2", AccessClass.WRITER, "svcB"))
    s.submit(make_commitment("r1", AccessClass.READER, "d", target_owner="svcB"))
    s.submit(make_commitment("w3", AccessClass.WRITER, "svcB", arrival=1))
    off = make_commitment("off", AccessClass.WRITER, debtor="svcB", verb=Verb.SIGNOFF, arrival=2)
    assert s.submit(off) == Decision(DecisionKind.WAIT, ("w2", "r1", "w3"))
    assert [c.id for c in s.on_complete("w2", LifecycleState.COMPLETED)] == ["w3"]
    assert [c.id for c in s.on_complete("r1", LifecycleState.COMPLETED)] == []
    assert [c.id for c in s.on_complete("w3", LifecycleState.COMPLETED)] == ["off"]


def test_activation_from_the_queue_takes_a_fresh_sequence_number():
    # q activates after a2, so a2 precedes it in activation order, and the
    # sign-off, which finds both through the owner scope, lists a2 first.
    s = Scheduler()
    s.submit(make_commitment("a1", AccessClass.WRITER, "d", target_owner="svcB"))
    s.submit(make_commitment("q", AccessClass.READER, "d", target_owner="svcB"))
    s.submit(make_commitment("a2", AccessClass.WRITER, "e", target_owner="svcB"))
    assert [c.id for c in s.on_complete("a1", LifecycleState.COMPLETED)] == ["q"]
    off = make_commitment("off", AccessClass.WRITER, debtor="svcB", verb=Verb.SIGNOFF)
    assert s.submit(off) == Decision(DecisionKind.WAIT, ("a2", "q"))


# -- select_next ---------------------------------------------------------------

def test_select_next_fcfs_earliest_arrival():
    queue = [make_commitment("c2", W, "d", arrival=1), make_commitment("c3", W, "d", arrival=2)]
    queue = [transition(c, TransitionEvent.ENQUEUE) for c in queue]
    assert select_next(queue, [], Policy.FCFS).id == "c2"


def test_select_next_priority_highest():
    queue = [
        make_commitment("c2", W, "d", priority=0, arrival=1),
        make_commitment("c3", W, "d", priority=10, arrival=2),
    ]
    queue = [transition(c, TransitionEvent.ENQUEUE) for c in queue]
    assert select_next(queue, [], Policy.PRIORITY).id == "c3"


def test_select_next_tie_breaks_on_id():
    queue = [
        make_commitment("c3", W, "d", priority=5, arrival=1),
        make_commitment("c2", W, "d", priority=5, arrival=1),
    ]
    queue = [transition(c, TransitionEvent.ENQUEUE) for c in queue]
    assert select_next(queue, [], Policy.PRIORITY).id == "c2"


def test_select_next_skips_conflicting():
    active = [transition(make_commitment("a", W, "d"), TransitionEvent.ACTIVATE)]
    queue = [transition(make_commitment("c2", W, "d", arrival=1), TransitionEvent.ENQUEUE)]
    assert select_next(queue, active, Policy.FCFS) is None
