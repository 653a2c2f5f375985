"""Exhaustive scheduler-vs-oracle cross-check.

Enumerates every small instance over a fixed grid (access class, target,
priority per slot) and submits each one to both the real scheduler and
the independent reference. The reference alone then walks every
completion order; each order is replayed on a fresh scheduler. Decisions,
blocker lists and activation orders must agree everywhere, and every
replay must end with an empty queue; the oracle's state exploration
additionally certifies that no reachable state is unsafe and every run
drains.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .model import (
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
    WRITER,
    MiniCommitment,
    MiniInstance,
    ReferenceScheduler,
    explore,
)
from .scheduler import DecisionKind, Policy, Scheduler


def _real_commitment(mini: MiniCommitment) -> Commitment:
    if mini.access == READER:
        verb = Verb.COLLECT
        content = ContentAction(verb, mini.target, owner="owner", purpose="testing")
    else:
        verb = Verb.POST
        content = ContentAction(verb, mini.target, veracity=True)
    return new_commitment(
        mini.id,
        CommitmentKind.SOCIAL,
        RESPONSIBILITY_FOR_VERB[verb],
        debtor=f"svc-{mini.id}",
        creditor="net",
        content=content,
        explicit_priority=mini.priority,
        clock=mini.arrival,
    )


class GridReport:
    """Counts and mismatches of one ``run_grid``, filled in as it runs."""

    def __init__(self):
        self.instances = 0       # (combination, completion order, policy) runs
        self.passed = 0          # runs that replayed clean
        self.combinations = 0
        self.states_explored = 0
        self.unsafe_states = 0
        self.undrained = 0
        self.mismatches: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.unsafe_states and not self.undrained


# One completion order: (completed id, ids the oracle activates) per step.
CompletionPath = tuple[tuple[str, list[str]], ...]


def _check_combination(
    minis: tuple[MiniCommitment, ...], policy: Policy, report: GridReport
) -> None:
    tag = f"[{policy.value}] " + ",".join(
        f"{m.id}:{m.access[0].upper()}({m.target})p{m.priority}" for m in minis
    )
    commitments = [_real_commitment(mini) for mini in minis]
    ref = ReferenceScheduler(policy.value)
    decisions = [ref.submit(mini) for mini in minis]
    paths = list(_completion_paths(ref))
    report.instances += len(paths)
    sched = Scheduler(policy)
    for mini, c, expected in zip(minis, commitments, decisions):
        got = sched.submit(c)
        got_kind = "execute" if got.kind is DecisionKind.EXECUTE else "wait"
        if (got_kind, got.blockers) != (expected.kind, expected.blockers):
            report.mismatches.append(
                f"{tag}: submit {mini.id}: "
                f"oracle {expected.kind}{expected.blockers} vs "
                f"scheduler {got_kind}{got.blockers}"
            )
            return
    failed: CompletionPath | None = None
    for path in paths:
        if failed is not None and path[: len(failed)] == failed:
            continue  # this prefix has been reported once already
        failed = _replay(path, commitments, policy, tag, report)
        report.passed += failed is None


def _completion_paths(
    ref: ReferenceScheduler, prefix: CompletionPath = ()
) -> Iterator[CompletionPath]:
    """Every order in which the oracle's active commitments can complete."""
    active_ids = sorted(a.id for a in ref.active)
    if not active_ids:
        yield prefix
        return
    for cid in active_ids:
        nxt = ref.copy()
        yield from _completion_paths(nxt, prefix + ((cid, nxt.complete(cid)),))


def _replay(
    path: CompletionPath,
    commitments: list[Commitment],
    policy: Policy,
    tag: str,
    report: GridReport,
) -> CompletionPath | None:
    """Run one completion order on a fresh scheduler; the failing prefix, if any."""
    sched = Scheduler(policy)
    for c in commitments:
        sched.submit(c)
    for i, (cid, expected) in enumerate(path):
        try:
            got = [c.id for c in sched.on_complete(cid, LifecycleState.COMPLETED)]
        except Exception as exc:  # divergence shows up as a scheduler error
            report.mismatches.append(f"{tag}: complete {cid}: scheduler raised {exc!r}")
            return path[: i + 1]
        if got != expected:
            report.mismatches.append(
                f"{tag}: complete {cid}: oracle activates {expected} vs scheduler {got}"
            )
            return path[: i + 1]
    if sched.queue:
        report.mismatches.append(f"{tag}: scheduler left a queue")
        return path
    return None


_TARGETS = ("d", "e")
_PRIORITIES = (0, 10)
_POLICIES = (Policy.FCFS, Policy.PRIORITY)


def run_grid(max_commitments: int = 4) -> GridReport:
    """Check every instance of 1 to ``max_commitments`` commitments (at most
    MAX_INSTANCE); report mismatches and oracle stats."""
    if not 1 <= max_commitments <= MAX_INSTANCE:
        raise ValueError(f"max_commitments must be 1 to {MAX_INSTANCE}, got {max_commitments}")
    report = GridReport()
    slots = list(product((READER, WRITER), _TARGETS, _PRIORITIES))
    for n in range(1, max_commitments + 1):
        for combo in product(slots, repeat=n):
            minis = tuple(
                MiniCommitment(f"c{i}", access, target, priority, arrival=i)
                for i, (access, target, priority) in enumerate(combo)
            )
            report.combinations += 1
            exploration = explore(MiniInstance(minis))
            report.states_explored += exploration.states
            report.unsafe_states += exploration.unsafe_states
            report.undrained += exploration.undrained_outcomes
            for policy in _POLICIES:
                _check_combination(minis, policy, report)
    return report
