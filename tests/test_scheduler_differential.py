"""The indexed Scheduler against the pairwise specification.

``Pairwise`` is the scheduler written straight from its definition: every
submission is checked with ``_blocks``, the ``relations`` rule, against
every active and every queued commitment, and every retire drains with a
``select_next`` loop. ``Pairwise`` keeps each id's lifecycle state and
steps it with ``LEGAL``, its own table of legal moves, so every move it
makes is legal; its snapshot is a count of those states. The scheduler
keeps no such table: an id's state is where the scheduler keeps the id.
Random runs drive both side by side and compare every observable after
every step, the identity of every held and returned commitment
included, so the scope index, the blocker counts and the one-pass drain
must reproduce the specification exactly, sign-off scopes included.
Retiring a queued or retired id must raise ``UnknownId`` and change
nothing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from commitsched.errors import UnknownId
from commitsched.model import AccessClass, Commitment, LifecycleState, Verb
from commitsched.relations import classify, conflicts, same_scope
from commitsched.scheduler import (
    Decision,
    DecisionKind,
    MonitoringReport,
    Policy,
    Scheduler,
)

from conftest import any_commitment, make_commitment

# The lifecycle, stated independently of the scheduler: (state, move) -> next
# state, where None is the state of an id never submitted. Every move the
# scheduler's API can make is here; any other raises KeyError in Pairwise.
LEGAL = {
    (None, "enqueue"): LifecycleState.WAITING,
    (None, "activate"): LifecycleState.ACTIVE,
    (LifecycleState.WAITING, "activate"): LifecycleState.ACTIVE,
    (LifecycleState.ACTIVE, "complete"): LifecycleState.COMPLETED,
    (LifecycleState.ACTIVE, "fail"): LifecycleState.FAILED,
    (LifecycleState.ACTIVE, "violation"): LifecycleState.VIOLATED,
}
RETIRE = ("complete", "fail", "violation")
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
        self.state: dict[str, LifecycleState] = {}  # every submitted id
        self.debtor: dict[str, str] = {}

    def _move(self, cid: str, move: str) -> None:
        self.state[cid] = LEGAL[(self.state.get(cid), move)]

    def submit(self, c) -> Decision:
        self.debtor[c.id] = c.debtor
        blockers = [x.id for x in self.active.values() if _blocks(c, x)]
        blockers += [x.id for x in self.queue if _blocks(c, x)]
        if blockers:
            self._move(c.id, "enqueue")
            self.queue.append(c)
            return Decision(DecisionKind.WAIT, tuple(blockers))
        self._move(c.id, "activate")
        self.active[c.id] = c
        return Decision(DecisionKind.EXECUTE)

    def retire(self, cid: str, move: str) -> list:
        self._move(cid, move)
        del self.active[cid]
        activated = []
        while (chosen := select_next(self.queue, self.active.values(), self.policy)) is not None:
            self._move(chosen.id, "activate")
            self.queue.remove(chosen)
            self.active[chosen.id] = chosen
            activated.append(chosen)
        return activated

    def snapshot(self) -> MonitoringReport:
        counts: dict = {}
        for cid, state in self.state.items():
            per = counts.setdefault(self.debtor[cid], {})
            per[state] = per.get(state, 0) + 1
        return MonitoringReport(counts, tuple(c.id for c in self.queue))


def _retire(s: Scheduler, cid: str, move: str) -> list:
    if move == "violation":
        return s.on_violation(cid)
    outcome = LifecycleState.COMPLETED if move == "complete" else LifecycleState.FAILED
    return s.on_complete(cid, outcome)


def _identities(commitments) -> list[int]:
    """Equal lists mean the very same objects in the same order."""
    return [id(c) for c in commitments]


def _assert_same_state(s: Scheduler, ref: Pairwise) -> None:
    assert list(s.active) == list(ref.active)
    assert _identities(s.active.values()) == _identities(ref.active.values())
    assert _identities(s.queue) == _identities(ref.queue)
    assert s.snapshot() == ref.snapshot()


def _drive(data, s: Scheduler, ref: Pairwise, prefix: str, steps: int) -> None:
    """Apply random steps to both engines, comparing after each one."""
    submitted = 0
    for _ in range(steps):
        ops = ["submit"] * 2 + (list(RETIRE) if ref.active else [])
        inactive = sorted(set(ref.state) - set(ref.active))  # queued or retired
        op = data.draw(st.sampled_from(ops + (["inactive"] if inactive else [])), label="op")
        if op == "submit":
            c = data.draw(any_commitment(f"{prefix}{submitted}"), label="commitment")
            submitted += 1
            assert s.submit(c) == ref.submit(c)
        elif op == "inactive":
            cid = data.draw(st.sampled_from(inactive), label=op)
            move = data.draw(st.sampled_from(RETIRE), label="move")
            with pytest.raises(UnknownId):
                _retire(s, cid, move)
        else:
            cid = data.draw(st.sampled_from(sorted(ref.active)), label=op)
            got = _retire(s, cid, op)
            assert _identities(got) == _identities(ref.retire(cid, op))
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
    assert select_next(queue, [], Policy.FCFS).id == "c2"


def test_select_next_priority_highest():
    queue = [
        make_commitment("c2", W, "d", priority=0, arrival=1),
        make_commitment("c3", W, "d", priority=10, arrival=2),
    ]
    assert select_next(queue, [], Policy.PRIORITY).id == "c3"


def test_select_next_tie_breaks_on_id():
    queue = [
        make_commitment("c3", W, "d", priority=5, arrival=1),
        make_commitment("c2", W, "d", priority=5, arrival=1),
    ]
    assert select_next(queue, [], Policy.PRIORITY).id == "c2"


def test_select_next_skips_conflicting():
    active = [make_commitment("a", W, "d")]
    queue = [make_commitment("c2", W, "d", arrival=1)]
    assert select_next(queue, active, Policy.FCFS) is None
