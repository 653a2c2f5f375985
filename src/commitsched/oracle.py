"""The readers-writers specification, stated as predicates over states.

Deliberately independent of the scheduler: it imports only ``model``,
nothing of ``scheduler``, and nothing here schedules.
It judges the engine's own ``Commitment`` values, of which ``_contend``
reads the access class, the content target and verb, the debtor and the
target owner, and restates the conflict rule from scratch.
``admission_fault`` and ``drain_fault`` say what any correct engine may
do with it: the properties of Courtois, Heymans & Parnas, "Concurrent
control with 'readers' and 'writers'", CACM 1971. A state is the pair
(active commitments in activation order, queued ones in queue order), as
observed on the engine under test. Each predicate returns None when a
step is allowed, else what is wrong with it. Both also require the state
left behind to be the one the step announced, so that, step by step, no
two active commitments ever contend. ``equivalence.run_grid`` asks
both about every step of the real scheduler on every small instance
(bounded-exhaustive checking against predicates: Boyapati, Khurshid &
Marinov, "Korat", ISSTA 2002), and a random driver in the tests asks
them about every step of long runs.
"""

from __future__ import annotations

from .model import AccessClass, Commitment, Verb

MAX_INSTANCE = 6

_READER = AccessClass.READER
_SIGNOFF = Verb.SIGNOFF

State = tuple[tuple[Commitment, ...], tuple[Commitment, ...]]


def _contend(a: Commitment, b: Commitment) -> bool:
    """Two commitments contend when they share a scope and one of them writes.

    A scope is a content target. A sign-off by S also shares one with
    anything whose target S owns: leaving contends with everything still
    touching the account's details.
    """
    if a.access is _READER and b.access is _READER:
        return False
    return (
        a.content.target == b.content.target
        or (a.content.verb is _SIGNOFF and b.target_owner == a.debtor)
        or (b.content.verb is _SIGNOFF and a.target_owner == b.debtor)
    )


def _ids(commitments) -> tuple[str, ...]:
    return tuple(c.id for c in commitments)


def _leaves(state: State) -> str:
    return f"leaves active {_ids(state[0])} queued {_ids(state[1])}"


def admission_fault(
    c: Commitment, before: State, blockers: tuple[str, ...], after: State
) -> str | None:
    """Check one submit of ``c``; ``blockers`` is empty when it executes.

    It waits exactly when something active or queued contends with it,
    its blockers are exactly those, the active ones first, and it joins
    the end of the active set or of the queue.
    """
    active, queued = before
    expected = _ids(x for x in (*active, *queued) if _contend(c, x))
    if blockers != expected:
        return f"submit {c.id}: expected blockers {expected}, got {blockers}"
    if after != ((active, (*queued, c)) if expected else ((*active, c), queued)):
        return f"submit {c.id}: {_leaves(after)}"
    return None


def drain_fault(
    policy: str, before: State, retired: str, activated: tuple[Commitment, ...], after: State
) -> str | None:
    """Check one retire of active ``retired`` and the drain that follows it.

    ``activated`` is what the drain returned, in order, and ``policy`` is
    "fcfs" or "priority". The drain activates only queued commitments,
    none beside anything it contends with. It is greedy in policy-key
    order: it passes no waiter that ranks ahead and was free at that
    point. It is maximal: every waiter left behind still contends with
    something active.
    """
    active, queued = before
    running = [a for a in active if a.id != retired]
    left = {q.id: q for q in queued}
    if activated:
        if policy == "fcfs":  # by (arrival, queue order)
            rank = {q.id: (q.arrival, n) for n, q in enumerate(queued)}
        else:  # by (-priority, arrival, id)
            rank = {q.id: (-q.priority, q.arrival, q.id) for q in queued}
        for a in activated:
            if left.pop(a.id, None) is None:
                return f"activates {a.id}, which was not queued"
            if any(_contend(a, r) for r in running):
                return f"activates {a.id} beside a commitment it contends with"
            for q in left.values():
                if rank[q.id] < rank[a.id] and not any(_contend(q, r) for r in running):
                    return f"activates {a.id} ahead of {q.id}, which ranks ahead and was free"
            running.append(a)
    for q in left.values():
        if not any(_contend(q, r) for r in running):
            return f"leaves {q.id} queued with nothing active contending with it"
    if after != (tuple(running), tuple(left.values())):
        return _leaves(after)
    return None
