"""Brute-force readers-writer admission reference.

Deliberately independent of the scheduler module: the conflict rule is
restated from scratch (two commitments contend iff they share a target
and at least one writes) and no code is shared, so equivalence tests
between the two have teeth. Within this module each rule is written
once: ``_contend`` (conflict), ``_blockers`` (admission) and
``_eligible`` (which waiters may drain); everything else calls them.

``ReferenceScheduler`` replays submissions and completions with the same
documented tie-break chain as the real engine. ``explore`` walks every
reachable state of a small instance - under every completion order and
every possible dequeue order, a superset of both service policies - and
counts states that run a writer alongside anything on its target and
end states that leave a queue behind.
"""

from __future__ import annotations

from typing import Collection, Iterable

from .errors import InstanceTooLarge
from .model import Frozen

READER = "reader"
WRITER = "writer"

MAX_INSTANCE = 6


class MiniCommitment(Frozen):
    id: str
    access: str  # READER or WRITER
    target: str
    priority: int
    arrival: int

    def __init__(self, id, access, target, priority=0, arrival=0):
        if access not in (READER, WRITER):
            raise ValueError(f"access must be {READER!r} or {WRITER!r}")
        put = object.__setattr__
        put(self, "id", id)
        put(self, "access", access)
        put(self, "target", target)
        put(self, "priority", priority)
        put(self, "arrival", arrival)


class MiniInstance(Frozen):
    """A small scheduling problem: commitments in submission order."""

    commitments: tuple[MiniCommitment, ...]

    def __init__(self, commitments):
        if len(commitments) > MAX_INSTANCE:
            raise InstanceTooLarge(
                f"instance has {len(commitments)} commitments, max {MAX_INSTANCE}"
            )
        ids = [c.id for c in commitments]
        if len(set(ids)) != len(ids):
            raise ValueError("commitment ids must be unique")
        object.__setattr__(self, "commitments", commitments)


class RefDecision(Frozen):
    kind: str  # "execute" | "wait"
    blockers: tuple[str, ...]

    def __init__(self, kind, blockers=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "blockers", blockers)


def _contend(a: MiniCommitment, b: MiniCommitment) -> bool:
    return a.target == b.target and (a.access == WRITER or b.access == WRITER)


def _blockers(
    c: MiniCommitment,
    active: Iterable[MiniCommitment],
    queued: Iterable[MiniCommitment],
) -> list[MiniCommitment]:
    """What a new arrival waits behind: every contending active, then queued one."""
    return [x for x in (*active, *queued) if _contend(c, x)]


def _eligible(
    queued: Iterable[MiniCommitment], active: Collection[MiniCommitment]
) -> list[MiniCommitment]:
    """Waiters that contend with nothing active, in queue order."""
    return [q for q in queued if not any(_contend(q, a) for a in active)]


class ReferenceScheduler:
    """Minimal admission engine used as the ground truth."""

    def __init__(self, policy: str = "fcfs"):
        if policy not in ("fcfs", "priority"):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.active: list[MiniCommitment] = []
        self.queue: list[MiniCommitment] = []  # in the order they were queued

    def submit(self, c: MiniCommitment) -> RefDecision:
        blockers = _blockers(c, self.active, self.queue)
        if blockers:
            self.queue.append(c)
            return RefDecision("wait", tuple(b.id for b in blockers))
        self.active.append(c)
        return RefDecision("execute")

    def complete(self, cid: str) -> list[str]:
        """Retire an active id; returns ids activated from the queue."""
        if all(a.id != cid for a in self.active):
            raise KeyError(cid)
        self.active = [a for a in self.active if a.id != cid]
        activated: list[str] = []
        while (nxt := self._pick()) is not None:
            self.queue = [q for q in self.queue if q.id != nxt.id]
            self.active.append(nxt)
            activated.append(nxt.id)
        return activated

    def _pick(self) -> MiniCommitment | None:
        eligible = _eligible(self.queue, self.active)
        if not eligible:
            return None
        if self.policy == "fcfs":
            # min keeps the first of equal arrivals: the earlier queued wins.
            return min(eligible, key=lambda q: q.arrival)
        return min(eligible, key=lambda q: (-q.priority, q.arrival, q.id))

    def copy(self) -> "ReferenceScheduler":
        twin = ReferenceScheduler(self.policy)
        twin.active = list(self.active)
        twin.queue = list(self.queue)
        return twin


# -- exhaustive interleaving exploration -------------------------------------

class ExplorationReport(Frozen):
    states: int
    unsafe_states: int
    undrained_outcomes: int

    def __init__(self, states, unsafe_states, undrained_outcomes):
        put = object.__setattr__
        put(self, "states", states)
        put(self, "unsafe_states", unsafe_states)
        put(self, "undrained_outcomes", undrained_outcomes)


# A search state: (next submission index, active set, queue in order).
_Active = frozenset[MiniCommitment]
_Queue = tuple[MiniCommitment, ...]
_State = tuple[int, _Active, _Queue]


class _Walker:
    """Transition relation over instance states; admission is automatic."""

    def __init__(self, instance: MiniInstance):
        self.commitments = instance.commitments

    def moves(self, state: _State) -> list[_State]:
        """Successors of a state.

        Submissions keep their listed order. Any active commitment may
        complete at any time, and after a completion the queue drains in
        every possible eligible order (covering both service policies
        and any tie-break).
        """
        i, active, queue = state
        out: list[_State] = []
        if i < len(self.commitments):
            c = self.commitments[i]
            if _blockers(c, active, queue):
                out.append((i + 1, active, queue + (c,)))
            else:
                out.append((i + 1, active | {c}, queue))
        for c in active:
            out.extend((i, *end) for end in self._drains(active - {c}, queue))
        return out

    def _drains(self, active: _Active, queue: _Queue) -> set[tuple[_Active, _Queue]]:
        """Distinct end states of every maximal greedy drain of the queue."""
        eligible = _eligible(queue, active)
        if not eligible:
            return {(active, queue)}
        ends: set[tuple[_Active, _Queue]] = set()
        for c in eligible:
            ends |= self._drains(active | {c}, tuple(q for q in queue if q is not c))
        return ends


def _unsafe(active: _Active) -> bool:
    items = list(active)
    return any(_contend(a, b) for i, a in enumerate(items) for b in items[i + 1:])


def explore(instance: MiniInstance) -> ExplorationReport:
    """Memoized walk over every reachable state of an instance.

    Counts unsafe states (two same-target actives, one a writer) and end
    states that fail to drain. A state with no move has submitted and
    completed everything, so only a queue can be left over.
    """
    walker = _Walker(instance)
    seen: set[_State] = set()
    unsafe = 0
    undrained = 0
    stack: list[_State] = [(0, frozenset(), ())]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        _, active, queue = state
        if _unsafe(active):
            unsafe += 1
        successors = walker.moves(state)
        if not successors and queue:
            undrained += 1
        stack.extend(successors)
    return ExplorationReport(
        states=len(seen), unsafe_states=unsafe, undrained_outcomes=undrained
    )
