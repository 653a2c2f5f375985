"""Exhaustive check of the real scheduler against the oracle's predicates.

A slot fixes a verb (``COLLECT``, ``POST`` or ``SIGNOFF``: a reader, a
writer, or a service leaving), a target, a priority and a target owner,
and ``slot_commitment`` builds its ``Commitment``. Every instance of a
few commitments over a slot set is built once and submitted to a
``Scheduler`` under each policy, and every order in which its active
commitments can complete is walked. ``oracle.admission_fault`` checks
each submit and ``oracle.drain_fault`` each retire, on the commitments
the scheduler shows; a run left with nothing active must have an empty
queue. Each branch but the last replays its completion prefix on a fresh
scheduler and the last goes on with the live one: one replay per order.
"""

from __future__ import annotations

from itertools import product

from .model import (
    Commitment,
    CommitmentKind,
    ContentAction,
    LifecycleState,
    RESPONSIBILITY_FOR_VERB,
    Verb,
    new_commitment,
)
from .oracle import MAX_INSTANCE, State, admission_fault, drain_fault
from .scheduler import DecisionKind, Policy, Scheduler

COLLECT, POST, SIGNOFF = Verb.COLLECT, Verb.POST, Verb.SIGNOFF
# The letter of each slot verb in a fault tag: a reader, a writer, a sign-off.
_LETTER = {COLLECT: "R", POST: "W", SIGNOFF: "S"}

# A slot: (verb, target, priority, owner of the target).
TARGET_SLOTS = tuple(
    (verb, target, priority, None)
    for verb, target, priority in product((COLLECT, POST), ("d", "e"), (0, 10))
)
OWNER_SLOTS = (
    (COLLECT, "d", 0, "s"),
    (COLLECT, "d", 0, None),  # shares d with the owned reader, not its owner scope
    (POST, "d", 0, None),
    (POST, "e", 0, "s"),
    (SIGNOFF, "s", 0, None),
)
SLOT_SETS = {"targets": TARGET_SLOTS, "owners": OWNER_SLOTS}

_POLICIES = (Policy.FCFS, Policy.PRIORITY)
_COMPLETED = LifecycleState.COMPLETED


def slot_commitment(cid, verb, target, priority=0, arrival=0, owner=None) -> Commitment:
    """The commitment of one slot: a collect, a post, or a sign-off by ``target``."""
    debtor = f"svc-{cid}"
    if verb is COLLECT:
        content = ContentAction(verb, target, owner="owner", purpose="testing")
    elif verb is POST:
        content = ContentAction(verb, target, veracity=True)
    elif verb is SIGNOFF:
        content, debtor = ContentAction(verb, target), target
    else:
        raise ValueError(f"a slot's verb is collect, post or signoff, got {verb!r}")
    return new_commitment(
        cid,
        CommitmentKind.SOCIAL,
        RESPONSIBILITY_FOR_VERB[verb],
        debtor=debtor,
        creditor="net",
        content=content,
        explicit_priority=priority,
        clock=arrival,
        target_owner=owner,
    )


class GridReport:
    """Counts and faults of one ``run_grid``, filled in as it runs."""

    def __init__(self):
        self.combinations = 0
        self.runs = 0      # (combination, policy, completion order); a fault ends one
        self.states = 0    # scheduler states checked
        self.faults: list[str] = []


class _Instance:
    """One combination under one policy, walked on the real scheduler."""

    def __init__(self, commitments: tuple[Commitment, ...], policy: Policy, report: GridReport):
        self.commitments = commitments
        self.policy = policy
        self.report = report

    def _observe(self, sched: Scheduler) -> State:
        return tuple(sched.active.values()), sched.queue

    def _fault(self, fault: str) -> None:
        self.report.runs += 1
        tag = ",".join(
            f"{c.id}:{_LETTER[c.content.verb]}"
            f"({c.content.target}{'/' + c.target_owner if c.target_owner else ''})"
            f"p{c.priority}a{c.arrival}"
            for c in self.commitments
        )
        self.report.faults.append(f"[{self.policy.value}] {tag}: {fault}")

    def check(self) -> None:
        sched = Scheduler(self.policy)
        state: State = ((), ())
        for c in self.commitments:
            try:
                decision = sched.submit(c)
                blockers = decision.blockers if decision.kind is DecisionKind.WAIT else ()
                after = self._observe(sched)
                fault = admission_fault(c, state, blockers, after)
            except Exception as exc:  # a broken engine shows up as an error
                fault = f"submit {c.id}: scheduler raised {exc!r}"
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
                activated = tuple(live.on_complete(cid, _COMPLETED))
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
            commitments = tuple(
                slot_commitment(f"c{i}", verb, target, priority, (i + 1) // 2, owner)
                for i, (verb, target, priority, owner) in enumerate(combo)
            )
            report.combinations += 1
            for policy in _POLICIES:
                _Instance(commitments, policy, report).check()
    return report
