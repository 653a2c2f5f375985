"""Canonical event trace.

One line per event: ``t=<tick> <Kind> <subject>[ key=value...]`` with the
attribute order fixed by the emitting code, and a final sentinel line
``t=<tick> END ok=<true|false>`` where ok means the run saw no
responsibility violation. Identical runs serialize byte-identically;
the monitoring panel is a pure projection of this text.

The lines are the record. The simulator writes each event's line once,
when the event happens, and a ``Trace`` holds those lines, the final
clock and the ok flag; ``text()`` only joins them. Events are parsed
from the lines on demand (``Trace.events``, ``parse_event``).

An event is a ``ScheduleEvent``, a named tuple ``(clock, kind, subject,
attrs)``: immutable, compared and hashed as a tuple. ``line()`` renders
it with one format and a join over ``attrs``; ``parse_event`` is its
inverse for subjects and attribute words without spaces and keys
without ``=``. Scenario words hold no spaces, so ``parse_event(l).line()``
gives back every line a run writes.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .model import Frozen


class EventKind(Enum):
    REGISTERED = "Registered"
    REJECTED = "Rejected"
    ASSIGNED = "Assigned"
    SUBMITTED = "Submitted"
    ACTIVATED = "Activated"
    WAITING = "Waiting"
    COMPLETED = "Completed"
    FAILED = "Failed"
    VIOLATION = "Violation"
    SNAPSHOT = "Snapshot"
    SIGNEDOFF = "SignedOff"

    __hash__ = object.__hash__  # identity, as equality is


class ScheduleEvent(NamedTuple):
    """One timestamped trace line."""

    clock: int
    kind: EventKind
    subject: str
    attrs: tuple[tuple[str, str], ...] = ()

    def line(self) -> str:
        clock, kind, subject, attrs = self
        # ``_value_`` is the member's stored value; ``.value`` is a property.
        return f"t={clock} {kind._value_} {subject}" + "".join([f" {k}={v}" for k, v in attrs])


def parse_event(line: str) -> ScheduleEvent:
    """The event whose ``line()`` is ``line``."""
    head, kind, subject, *words = line.split(" ")
    attrs = tuple(tuple(word.split("=", 1)) for word in words)
    return ScheduleEvent(int(head[2:]), EventKind(kind), subject, attrs)


class Trace(Frozen):
    """The event lines of one run, its final clock and whether it was clean."""

    event_lines: tuple[str, ...]
    final_clock: int
    ok: bool

    def __new__(cls, event_lines, final_clock, ok):
        return cls._make((event_lines, final_clock, ok))

    @property
    def events(self) -> tuple[ScheduleEvent, ...]:
        return tuple(map(parse_event, self.event_lines))

    def lines(self) -> list[str]:
        return [*self.event_lines, f"t={self.final_clock} END ok={'true' if self.ok else 'false'}"]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


# Lifecycle moves implied by each event kind, used to rebuild the
# monitoring counts from a trace prefix.
_STATE_FOR_KIND = {
    EventKind.ACTIVATED: "Active",
    EventKind.WAITING: "Waiting",
    EventKind.COMPLETED: "Completed",
    EventKind.FAILED: "Failed",
    EventKind.VIOLATION: "Violated",
}


def replay_counts(events) -> dict[str, dict[str, int]]:
    """Fold lifecycle events into per-service state counts.

    Tracks each commitment's latest state from Activated / Waiting /
    Completed / Failed / Violation events; other kinds do not touch the
    lifecycle. The result matches what a Snapshot taken after the last
    event reports.
    """
    latest: dict[str, tuple[str, str]] = {}  # cid -> (service, state)
    for e in events:
        state = _STATE_FOR_KIND.get(e.kind)
        if state is None:
            continue
        service = dict(e.attrs).get("service", "")
        latest[e.subject] = (service, state)
    counts: dict[str, dict[str, int]] = {}
    for service, state in latest.values():
        per = counts.setdefault(service, {})
        per[state] = per.get(state, 0) + 1
    return counts
