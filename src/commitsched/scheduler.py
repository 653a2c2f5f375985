"""Admission control for commitments.

Design rules:
  - A submitted commitment executes immediately only if it conflicts with
    no active and no already-queued same-scope commitment. At submit, a
    late reader therefore queues behind a waiting writer.
  - Completion (or failure, or a governance violation) releases the
    scope; the queue then drains greedily: repeatedly activate the
    policy's first queued commitment that conflicts with no *active*
    one. Queued conflicts are not consulted here, so a commitment queued
    only behind other waiters activates on the next retire of anything,
    ahead of them (FCFS barging; see ROADMAP item 1). The oracle's
    predicates ``admission_fault`` and ``drain_fault`` state what a
    submit and a retire may do; ``equivalence.run_grid`` checks this
    class against them on every small instance, and the random driver
    in ``tests/test_oracle.py`` on long runs with sign-offs.
  - FCFS serves by arrival, then queue order; Priority serves by
    priority, then arrival, then lexicographic id. Priority acts only at
    dequeue time.
  - The scheduler is a single-threaded state machine; callers serialize
    access. Where it keeps an id is the one statement of the lifecycle:
    a submitted id is queued (Waiting) or active, a queued id can only
    become active, and only an active id retires, once, into the
    per-service tally under its final state (Completed or Failed by
    ``on_complete``, Violated by ``on_violation``). Retiring any other
    id raises ``UnknownId``; resubmitting any id raises ``DuplicateId``.
    Commitments are immutable values that carry no state, so it stores,
    indexes and returns the caller's own objects and never copies one.

Active and queued commitments are each kept in a scope index, a lock
table hashed by resource (Gray & Reuter, *Transaction Processing*, ch. 8):
buckets by content target, by target owner and, for sign-offs, by debtor.
A query returns, in sequence order, exactly the indexed commitments that
share a scope with the asker and conflict with its access mode; the
``same_scope`` re-check in ``submit`` and ``_retire`` never rejects one
(ROADMAP item 2). The mode decides which buckets are read:

  - Sign-offs are writers, so every commitment in an owner or sign-off
    bucket of the asker's scopes conflicts with it.
  - The queued index keeps, per target, a second bucket of its writers
    alone. A reader reads that one, a writer the full target bucket.
  - The active set is pairwise compatible, so each active target bucket
    holds readers only or exactly one writer. A writer reads the whole
    bucket; for a reader, the bucket's first entry decides all of it.

A waiter is ready exactly when no active commitment conflicts with it,
which ``_HeldIndex.blocks`` answers in O(1) from the buckets a query
reads (grant on release: no per-waiter state, and an activation touches
no waiter). A retire asks only the waiters that conflict with the
retired commitment, and activates the free ones in one pass in policy
order, asking each again just before it runs. Within one drain
activations only add blockers, so that pass makes exactly the choices of
the greedy loop above. A retire that leaves its scopes held frees
nobody, so it asks no waiter: a reader whose target bucket, and owner
bucket if it has an owner, still hold active commitments. Its drain
still activates the waiters already ready (barged ones, above).
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .errors import DuplicateId, NonEmptyQueue, UnknownId
from .model import AccessClass, Commitment, Frozen, LifecycleState, Verb
from .relations import same_scope


class Policy(Enum):
    FCFS = "fcfs"
    PRIORITY = "priority"


class DecisionKind(Enum):
    EXECUTE = "execute"
    WAIT = "wait"


_READER = AccessClass.READER
_WRITER = AccessClass.WRITER
_SIGNOFF = Verb.SIGNOFF
_COMPLETED = LifecycleState.COMPLETED
_FAILED = LifecycleState.FAILED
_VIOLATED = LifecycleState.VIOLATED
_FCFS = Policy.FCFS
_RUN = DecisionKind.EXECUTE
_WAIT = DecisionKind.WAIT


class Decision(Frozen):
    """Outcome of one submission: execute now, or wait behind blockers."""

    kind: DecisionKind
    blockers: tuple[str, ...]

    def __init__(self, kind, blockers=()):
        if kind is _WAIT and not blockers:
            raise ValueError("a wait decision must name its blockers")
        if kind is _RUN and blockers:
            raise ValueError("an execute decision has no blockers")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "blockers", blockers)


class MonitoringReport(Frozen):
    """Commitment counts per service and state, plus the ordered queue."""

    by_service: Mapping[str, Mapping[LifecycleState, int]]
    queue: tuple[str, ...]

    def __init__(self, by_service, queue):
        object.__setattr__(self, "by_service", by_service)
        object.__setattr__(self, "queue", queue)


_EXECUTE = Decision(_RUN)


def _drop(buckets: dict[str, dict[int, Commitment]], key: str, seq: int) -> None:
    bucket = buckets[key]
    del bucket[seq]
    if not bucket:
        del buckets[key]


class _ScopeIndex:
    """Commitments keyed by sequence number in buckets per scope key.

    A bucket maps sequence numbers to commitments in insertion order; the
    numbers come from one monotonic counter, so every bucket is sorted.
    """

    __slots__ = ("by_target", "by_owner", "signoffs")

    def __init__(self):
        self.by_target: dict[str, dict[int, Commitment]] = {}
        self.by_owner: dict[str, dict[int, Commitment]] = {}  # target_owner -> ...
        self.signoffs: dict[str, dict[int, Commitment]] = {}  # sign-off debtor -> ...

    def add(self, seq: int, c: Commitment) -> None:
        self.by_target.setdefault(c.content.target, {})[seq] = c
        if c.target_owner is not None:
            self.by_owner.setdefault(c.target_owner, {})[seq] = c
        if c.content.verb is _SIGNOFF:
            self.signoffs.setdefault(c.debtor, {})[seq] = c

    def remove(self, seq: int, c: Commitment) -> None:
        _drop(self.by_target, c.content.target, seq)
        if c.target_owner is not None:
            _drop(self.by_owner, c.target_owner, seq)
        if c.content.verb is _SIGNOFF:
            _drop(self.signoffs, c.debtor, seq)

    def _with_owner_scopes(self, c: Commitment, found: dict[int, Commitment] | None):
        """``found`` merged by seq with the owner and sign-off buckets of ``c``.

        The callers first check that ``c`` is a sign-off or that sign-offs
        by its target's owner are indexed; most queries read one bucket.
        """
        merged = dict(found) if found else {}
        if c.content.verb is _SIGNOFF:
            merged.update(self.by_owner.get(c.debtor, ()))
        merged.update(self.signoffs.get(c.target_owner, ()))
        return [merged[seq] for seq in sorted(merged)]


class _HeldIndex(_ScopeIndex):
    """The active commitments, which are pairwise compatible."""

    __slots__ = ()

    def conflicting(self, c: Commitment):
        """Every active commitment whose mode conflicts with ``c``'s, by seq."""
        found = self.by_target.get(c.content.target)
        if (
            found
            and c.access is _READER
            and next(iter(found.values())).access is _READER
        ):
            found = None  # readers only: all friends of c
        if c.content.verb is _SIGNOFF or c.target_owner in self.signoffs:
            return self._with_owner_scopes(c, found)
        return found.values() if found else ()

    def blocks(self, c: Commitment) -> bool:
        """True exactly when ``conflicting(c)`` returns anything."""
        found = self.by_target.get(c.content.target)
        if found and (
            c.access is _WRITER
            or next(iter(found.values())).access is _WRITER
        ):
            return True
        if c.target_owner in self.signoffs:
            return True
        return c.content.verb is _SIGNOFF and c.debtor in self.by_owner


class _WaitIndex(_ScopeIndex):
    """The queued commitments, with each target's writers also kept apart."""

    __slots__ = ("writers",)

    def __init__(self):
        super().__init__()
        self.writers: dict[str, dict[int, Commitment]] = {}  # target -> its writers

    def add(self, seq: int, c: Commitment) -> None:
        super().add(seq, c)
        if c.access is _WRITER:
            self.writers.setdefault(c.content.target, {})[seq] = c

    def remove(self, seq: int, c: Commitment) -> None:
        super().remove(seq, c)
        if c.access is _WRITER:
            _drop(self.writers, c.content.target, seq)

    def conflicting(self, c: Commitment):
        """Every queued commitment whose mode conflicts with ``c``'s, by seq."""
        by_mode = self.writers if c.access is _READER else self.by_target
        found = by_mode.get(c.content.target)
        if c.content.verb is _SIGNOFF or c.target_owner in self.signoffs:
            return self._with_owner_scopes(c, found)
        return found.values() if found else ()


class Scheduler:
    """Single-threaded commitment admission state machine."""

    def __init__(self, policy: Policy = Policy.FCFS):
        self.policy = policy
        self._active: dict[str, Commitment] = {}   # id -> commitment, activation order
        self._active_view = MappingProxyType(self._active)
        self._queue: dict[str, Commitment] = {}    # id -> commitment, queue order
        self._seen: set[str] = set()
        self._tally: dict[str, dict[LifecycleState, int]] = {}  # terminal outcomes
        self._next_seq = 0
        self._seq: dict[str, int] = {}             # active or queued id -> its seq
        self._held = _HeldIndex()                 # active commitments
        self._waiting = _WaitIndex()              # queued commitments
        self._ready: set[str] = set()              # queued ids nothing active blocks

    @property
    def active(self) -> Mapping[str, Commitment]:
        """A live read-only view of the active commitments."""
        return self._active_view

    @property
    def queue(self) -> tuple[Commitment, ...]:
        return tuple(self._queue.values())

    def submit(self, c: Commitment) -> Decision:
        """Admit a pending commitment (an id never submitted): activate or queue it.

        Blockers list every conflicting same-scope commitment, active
        ones first (in activation order) then queued ones (in queue
        order).
        """
        if c.id in self._seen:
            raise DuplicateId(f"commitment id {c.id!r} already submitted")
        self._seen.add(c.id)
        held = [x.id for x in self._held.conflicting(c) if same_scope(c, x)]
        waiting = (
            [x.id for x in self._waiting.conflicting(c) if same_scope(c, x)]
            if self._queue else []
        )
        if not (held or waiting):
            self._activate(c)
            return _EXECUTE
        self._queue[c.id] = c
        self._waiting.add(self._take_seq(c.id), c)
        if not held:
            self._ready.add(c.id)
        return Decision(_WAIT, tuple(held + waiting))

    def on_complete(self, cid: str, outcome: LifecycleState) -> list[Commitment]:
        """Retire an active commitment and activate eligible waiters.

        ``outcome`` is Completed or Failed; either releases the scope.
        Returns the newly activated commitments in activation order.
        """
        if outcome is not _COMPLETED and outcome is not _FAILED:
            raise ValueError(f"outcome must be completed or failed, got {outcome}")
        return self._retire(cid, outcome)

    def on_violation(self, cid: str) -> list[Commitment]:
        """Retire an active commitment whose action breached a responsibility.

        Scheduling-wise a violation releases the scope exactly like a
        completion; the commitment ends Violated.
        """
        return self._retire(cid, _VIOLATED)

    def set_policy(self, policy: Policy) -> None:
        """Switch the service policy; a change is legal only while the queue is empty."""
        if self._queue and policy is not self.policy:
            raise NonEmptyQueue("cannot switch policy with queued commitments")
        self.policy = policy

    def snapshot(self) -> MonitoringReport:
        """Per-service commitment counts by state plus the current queue."""
        counts: dict[str, dict[LifecycleState, int]] = {
            svc: dict(states) for svc, states in self._tally.items()
        }
        for c in self._active.values():
            counts.setdefault(c.debtor, {})[LifecycleState.ACTIVE] = (
                counts.get(c.debtor, {}).get(LifecycleState.ACTIVE, 0) + 1
            )
        for c in self._queue.values():
            counts.setdefault(c.debtor, {})[LifecycleState.WAITING] = (
                counts.get(c.debtor, {}).get(LifecycleState.WAITING, 0) + 1
            )
        return MonitoringReport(
            by_service=counts,
            queue=tuple(self._queue),
        )

    def _take_seq(self, cid: str) -> int:
        seq = self._seq[cid] = self._next_seq
        self._next_seq += 1
        return seq

    def _activate(self, c: Commitment) -> None:
        """Make ``c`` active. No waiter is updated: ``_HeldIndex.blocks`` reads it."""
        self._active[c.id] = c
        self._held.add(self._take_seq(c.id), c)

    def _retire(self, cid: str, final: LifecycleState) -> list[Commitment]:
        """Retire active ``cid`` into the tally under ``final``; drain the queue."""
        if cid not in self._active:
            raise UnknownId(f"no active commitment {cid!r}")
        retired = self._active.pop(cid)
        self._held.remove(self._seq.pop(cid), retired)
        per_service = self._tally.setdefault(retired.debtor, {})
        per_service[final] = per_service.get(final, 0) + 1
        if not self._queue:
            return []
        held = self._held
        blocks = held.blocks
        owner = retired.target_owner
        # A reader whose scopes all stay held frees nobody: ask no waiter.
        if (
            retired.access is not _READER
            or retired.content.target not in held.by_target
            or (owner is not None and owner not in held.by_owner)
        ):
            for q in self._waiting.conflicting(retired):
                if same_scope(q, retired) and not blocks(q):
                    self._ready.add(q.id)
        if not self._ready:
            return []
        ready, self._ready = self._ready, set()
        queue, seqs = self._queue, self._seq
        if self.policy is _FCFS:
            order = sorted(ready, key=lambda i: (queue[i].arrival, seqs[i]))
        else:
            order = sorted(ready, key=lambda i: (-queue[i].priority, queue[i].arrival, i))
        activated: list[Commitment] = []
        for qid in order:
            chosen = queue[qid]
            if blocks(chosen):
                continue  # an earlier activation in this pass blocks it again
            del queue[qid]
            self._waiting.remove(seqs.pop(qid), chosen)
            self._activate(chosen)
            activated.append(chosen)
        return activated
