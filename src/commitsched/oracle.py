"""Brute-force readers-writer admission reference.

Deliberately independent of the scheduler module: the conflict rule is
restated from scratch (two commitments contend iff they share a target
and at least one writes) and no code is shared, so equivalence tests
between the two have teeth.

``ReferenceScheduler`` replays submissions and completions with the same
documented tie-break chain as the real engine. ``enumerate_outcomes``
and ``explore`` walk every interleaving of a small instance - including
every possible dequeue order, a superset of both service policies - and
check that no reachable state runs a writer alongside anything on its
target, and that every run drains its queue.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLarge

READER = "reader"
WRITER = "writer"

MAX_INSTANCE = 6


@dataclass(frozen=True)
class MiniCommitment:
    id: str
    access: str  # READER or WRITER
    target: str
    priority: int = 0
    arrival: int = 0

    def __post_init__(self):
        if self.access not in (READER, WRITER):
            raise ValueError(f"access must be {READER!r} or {WRITER!r}")


@dataclass(frozen=True)
class MiniInstance:
    """A small scheduling problem: commitments plus a completion preference.

    ``completion_order`` ranks ids; whenever something must complete, the
    highest-ranked currently-active id goes first. Every id that ever
    activates must appear in it.
    """

    commitments: tuple[MiniCommitment, ...]
    completion_order: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.commitments) > MAX_INSTANCE:
            raise InstanceTooLarge(
                f"instance has {len(self.commitments)} commitments, max {MAX_INSTANCE}"
            )
        ids = [c.id for c in self.commitments]
        if len(set(ids)) != len(ids):
            raise ValueError("commitment ids must be unique")


@dataclass(frozen=True)
class RefDecision:
    kind: str  # "execute" | "wait"
    blockers: tuple[str, ...] = ()


def _contend(a: MiniCommitment, b: MiniCommitment) -> bool:
    return a.target == b.target and (a.access == WRITER or b.access == WRITER)


class ReferenceScheduler:
    """Minimal admission engine used as the ground truth."""

    def __init__(self, policy: str = "fcfs"):
        if policy not in ("fcfs", "priority"):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.active: list[MiniCommitment] = []
        self.queue: list[tuple[int, MiniCommitment]] = []  # (queue seq, commitment)
        self._next_seq = 0

    def submit(self, c: MiniCommitment) -> RefDecision:
        blockers = [a.id for a in self.active if _contend(c, a)]
        blockers += [q.id for _, q in self.queue if _contend(c, q)]
        if blockers:
            self.queue.append((self._next_seq, c))
            self._next_seq += 1
            return RefDecision("wait", tuple(blockers))
        self.active.append(c)
        return RefDecision("execute")

    def complete(self, cid: str) -> list[str]:
        """Retire an active id; returns ids activated from the queue."""
        if all(a.id != cid for a in self.active):
            raise KeyError(cid)
        self.active = [a for a in self.active if a.id != cid]
        activated: list[str] = []
        while True:
            nxt = self._pick()
            if nxt is None:
                break
            self.queue = [(s, q) for s, q in self.queue if q.id != nxt.id]
            self.active.append(nxt)
            activated.append(nxt.id)
        return activated

    def _pick(self) -> MiniCommitment | None:
        eligible = [
            (seq, q) for seq, q in self.queue
            if not any(_contend(q, a) for a in self.active)
        ]
        if not eligible:
            return None
        if self.policy == "fcfs":
            return min(eligible, key=lambda e: (e[1].arrival, e[0]))[1]
        return min(eligible, key=lambda e: (-e[1].priority, e[1].arrival, e[1].id))[1]

    def copy(self) -> "ReferenceScheduler":
        twin = ReferenceScheduler(self.policy)
        twin.active = list(self.active)
        twin.queue = list(self.queue)
        twin._next_seq = self._next_seq
        return twin


def reference_admission(
    instance: MiniInstance, policy: str = "fcfs"
) -> list[RefDecision]:
    """Submission decisions for the instance, one per commitment."""
    ref = ReferenceScheduler(policy)
    return [ref.submit(c) for c in instance.commitments]


@dataclass(frozen=True)
class RefSchedule:
    decisions: tuple[RefDecision, ...]
    completions: tuple[str, ...]
    activations: tuple[str, ...]  # queue activations, in activation order


def reference_schedule(instance: MiniInstance, policy: str = "fcfs") -> RefSchedule:
    """Full reference run: submit everything, then drain by preference."""
    ref = ReferenceScheduler(policy)
    decisions = tuple(ref.submit(c) for c in instance.commitments)
    rank = {cid: i for i, cid in enumerate(instance.completion_order)}
    completions: list[str] = []
    activations: list[str] = []
    while ref.active:
        try:
            chosen = min(ref.active, key=lambda a: rank[a.id])
        except KeyError as exc:
            raise ValueError(f"completion order misses active id {exc}") from exc
        completions.append(chosen.id)
        activations.extend(ref.complete(chosen.id))
    return RefSchedule(decisions, tuple(completions), tuple(activations))


# -- exhaustive interleaving exploration -------------------------------------

@dataclass(frozen=True)
class ExplorationReport:
    states: int
    terminal_states: int
    unsafe_states: int
    undrained_outcomes: int

    @property
    def all_safe(self) -> bool:
        return self.unsafe_states == 0

    @property
    def all_drained(self) -> bool:
        return self.undrained_outcomes == 0


# A search state: (next submission index, active ids, queued ids in order).
_State = tuple[int, frozenset[str], tuple[str, ...]]

Event = tuple[str, str]  # ("submit"|"wait"|"activate"|"complete", id)


class _Walker:
    """Transition relation over instance states; admission is automatic."""

    def __init__(self, instance: MiniInstance):
        self.by_id = {c.id: c for c in instance.commitments}
        self.order = tuple(c.id for c in instance.commitments)

    def initial(self) -> _State:
        return (0, frozenset(), ())

    def is_unsafe(self, active: frozenset[str]) -> bool:
        items = [self.by_id[i] for i in active]
        return any(
            _contend(a, b)
            for i, a in enumerate(items)
            for b in items[i + 1:]
        )

    def moves(self, state: _State) -> list[tuple[tuple[Event, ...], _State]]:
        """Successors of a state, each with the events that produce it.

        Submissions keep their listed order. Any active commitment may
        complete at any time, and after a completion the queue drains in
        every possible eligible order (covering both service policies
        and any tie-break).
        """
        i, active, queue = state
        out: list[tuple[tuple[Event, ...], _State]] = []
        if i < len(self.order):
            cid = self.order[i]
            c = self.by_id[cid]
            contenders = [x for x in active if _contend(c, self.by_id[x])]
            contenders += [x for x in queue if _contend(c, self.by_id[x])]
            if contenders:
                out.append(
                    ((("submit", cid), ("wait", cid)), (i + 1, active, queue + (cid,)))
                )
            else:
                out.append(
                    ((("submit", cid), ("activate", cid)), (i + 1, active | {cid}, queue))
                )
        for cid in sorted(active):
            for activated, nxt_active, nxt_queue in self._drains(active - {cid}, queue):
                events = (("complete", cid),) + tuple(
                    ("activate", x) for x in activated
                )
                out.append((events, (i, nxt_active, nxt_queue)))
        return out

    def _drains(
        self, active: frozenset[str], queue: tuple[str, ...]
    ) -> list[tuple[tuple[str, ...], frozenset[str], tuple[str, ...]]]:
        """Every maximal greedy drain of the queue against the active set."""
        eligible = [
            cid for cid in queue
            if not any(_contend(self.by_id[cid], self.by_id[a]) for a in active)
        ]
        if not eligible:
            return [((), active, queue)]
        results = []
        for cid in eligible:
            rest = tuple(x for x in queue if x != cid)
            for tail, fin_active, fin_queue in self._drains(active | {cid}, rest):
                results.append(((cid,) + tail, fin_active, fin_queue))
        return results


def enumerate_outcomes(instance: MiniInstance) -> frozenset[tuple[Event, ...]]:
    """All event sequences reachable by interleaving submissions/completions."""
    walker = _Walker(instance)
    outcomes: set[tuple[Event, ...]] = set()

    def dfs(state: _State, events: tuple[Event, ...]) -> None:
        succ = walker.moves(state)
        if not succ:
            outcomes.add(events)
            return
        for step, nxt in succ:
            dfs(nxt, events + step)

    dfs(walker.initial(), ())
    return frozenset(outcomes)


def explore(instance: MiniInstance) -> ExplorationReport:
    """Memoized walk over every reachable state of an instance.

    Counts unsafe states (two same-target actives, one a writer) and
    terminal states that fail to drain. Cheaper than enumerate_outcomes
    because states, not paths, are visited once.
    """
    walker = _Walker(instance)
    seen: set[_State] = set()
    unsafe = 0
    terminal = 0
    undrained = 0
    stack = [walker.initial()]
    n = len(instance.commitments)
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        i, active, queue = state
        if walker.is_unsafe(active):
            unsafe += 1
        successors = [nxt for _, nxt in walker.moves(state)]
        if not successors:
            terminal += 1
            if queue or i < n or active:
                undrained += 1
        stack.extend(successors)
    return ExplorationReport(
        states=len(seen),
        terminal_states=terminal,
        unsafe_states=unsafe,
        undrained_outcomes=undrained,
    )
