"""Exhaustive check of the real scheduler against the oracle's predicates.

Every instance of a few commitments over a slot set (one slot fixes an
access, target, priority and target owner) is submitted to a
``Scheduler`` under each policy, and every order in which its active
commitments can complete is walked. ``oracle.admission_fault`` checks
each submit and ``oracle.drain_fault`` each retire, on the states the
scheduler shows; a run left with nothing active must have an empty
queue. Each branch but the last replays its completion prefix on a fresh
scheduler and the last goes on with the live one: one replay per order.
``_mini_commitment`` projects a real commitment back onto a slot's
values, so random runs of the scheduler are judged by the same mapping.
"""

from __future__ import annotations

from itertools import product

from .model import (
    AccessClass,
    Commitment,
    CommitmentKind,
    ContentAction,
    LifecycleState,
    RESPONSIBILITY_FOR_VERB,
    Verb,
    new_commitment,
)
from .oracle import (
    MAX_INSTANCE,
    READER,
    SIGNOFF,
    WRITER,
    MiniCommitment,
    State,
    admission_fault,
    drain_fault,
)
from .scheduler import DecisionKind, Policy, Scheduler

# A slot: (access, target, priority, owner of the target).
TARGET_SLOTS = tuple(
    (access, target, priority, None)
    for access, target, priority in product((READER, WRITER), ("d", "e"), (0, 10))
)
OWNER_SLOTS = (
    (READER, "d", 0, "s"),
    (READER, "d", 0, None),  # shares d with the owned reader, not its owner scope
    (WRITER, "d", 0, None),
    (WRITER, "e", 0, "s"),
    (SIGNOFF, "s", 0, None),
)
SLOT_SETS = {"targets": TARGET_SLOTS, "owners": OWNER_SLOTS}

_POLICIES = (Policy.FCFS, Policy.PRIORITY)
_COMPLETED = LifecycleState.COMPLETED


def _real_commitment(mini: MiniCommitment) -> Commitment:
    debtor = f"svc-{mini.id}"
    if mini.access == READER:
        content = ContentAction(Verb.COLLECT, mini.target, owner="owner", purpose="testing")
    elif mini.access == WRITER:
        content = ContentAction(Verb.POST, mini.target, veracity=True)
    else:
        content, debtor = ContentAction(Verb.SIGNOFF, mini.target), mini.target
    return new_commitment(
        mini.id,
        CommitmentKind.SOCIAL,
        RESPONSIBILITY_FOR_VERB[content.verb],
        debtor=debtor,
        creditor="net",
        content=content,
        explicit_priority=mini.priority,
        clock=mini.arrival,
        target_owner=mini.owner,
    )


def _mini_commitment(c: Commitment) -> MiniCommitment:
    """What the oracle's predicates read of ``c``; ``_real_commitment`` inverted.

    A sign-off verb is ``SIGNOFF`` (its target is the leaving service),
    any other verb a reader or a writer by its access class.
    """
    if c.content.verb is Verb.SIGNOFF:
        access = SIGNOFF
    else:
        access = READER if c.access is AccessClass.READER else WRITER
    return MiniCommitment(c.id, access, c.content.target, c.priority, c.arrival, c.target_owner)


class GridReport:
    """Counts and faults of one ``run_grid``, filled in as it runs."""

    def __init__(self):
        self.combinations = 0
        self.runs = 0      # (combination, policy, completion order); a fault ends one
        self.states = 0    # scheduler states checked
        self.faults: list[str] = []


class _Instance:
    """One combination under one policy, walked on the real scheduler."""

    def __init__(self, minis: tuple[MiniCommitment, ...], policy: Policy, report: GridReport):
        self.minis = {m.id: m for m in minis}
        self.commitments = [_real_commitment(m) for m in minis]
        self.policy = policy
        self.report = report

    def _observe(self, sched: Scheduler) -> State:
        minis = self.minis
        return tuple(minis[i] for i in sched.active), tuple(minis[c.id] for c in sched.queue)

    def _fault(self, fault: str) -> None:
        self.report.runs += 1
        tag = ",".join(
            f"{m.id}:{m.access[0].upper()}({m.target}{'/' + m.owner if m.owner else ''})"
            f"p{m.priority}a{m.arrival}"
            for m in self.minis.values()
        )
        self.report.faults.append(f"[{self.policy.value}] {tag}: {fault}")

    def check(self) -> None:
        sched = Scheduler(self.policy)
        state: State = ((), ())
        for c in self.commitments:
            mini = self.minis[c.id]
            try:
                decision = sched.submit(c)
                blockers = decision.blockers if decision.kind is DecisionKind.WAIT else ()
                after = self._observe(sched)
                fault = admission_fault(mini, state, blockers, after)
            except Exception as exc:  # a broken engine shows up as an error
                fault = f"submit {mini.id}: scheduler raised {exc!r}"
            self.report.states += 1
            if fault:
                return self._fault(fault)
            state = after
        self._walk(sched, state, ())

    def _replay(self, prefix: tuple[str, ...]) -> Scheduler:
        sched = Scheduler(self.policy)
        for c in self.commitments:
            sched.submit(c)
        for cid in prefix:
            sched.on_complete(cid, _COMPLETED)
        return sched

    def _walk(self, sched: Scheduler, state: State, prefix: tuple[str, ...]) -> None:
        """Complete each active commitment in turn from ``state``, then recurse."""
        active = state[0]
        if not active:
            if state[1]:
                return self._fault(f"nothing active, queue {[q.id for q in state[1]]} left")
            self.report.runs += 1
            return
        last = active[-1].id
        for a in active:
            cid = a.id
            try:
                live = sched if cid == last else self._replay(prefix)
                activated = tuple(self.minis[c.id] for c in live.on_complete(cid, _COMPLETED))
                after = self._observe(live)
                fault = drain_fault(self.policy.value, state, cid, activated, after)
            except Exception as exc:  # a broken engine shows up as an error
                fault = f"scheduler raised {exc!r}"
            self.report.states += 1
            if fault:
                self._fault(f"complete {','.join((*prefix, cid))}: {fault}")
            else:
                self._walk(live, after, (*prefix, cid))


def run_grid(max_commitments: int = 4, slots=TARGET_SLOTS) -> GridReport:
    """Check every instance of 1 to ``max_commitments`` commitments (at most
    MAX_INSTANCE) over ``slots`` under both policies; report the faults."""
    if not 1 <= max_commitments <= MAX_INSTANCE:
        raise ValueError(f"max_commitments must be 1 to {MAX_INSTANCE}, got {max_commitments}")
    report = GridReport()
    for n in range(1, max_commitments + 1):
        for combo in product(slots, repeat=n):
            # Arrivals 0,1,1,2,2,3: pairs share one, so the FCFS tie-break acts.
            minis = tuple(
                MiniCommitment(f"c{i}", access, target, priority, (i + 1) // 2, owner)
                for i, (access, target, priority, owner) in enumerate(combo)
            )
            report.combinations += 1
            for policy in _POLICIES:
                _Instance(minis, policy, report).check()
    return report
