"""Value types built without ``__init__`` behave like constructed ones."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from commitsched.model import (
    ACCESS_FOR_VERB,
    AccessClass,
    Commitment,
    CommitmentKind,
    ContentAction,
    LifecycleState,
    Privacy,
    RESPONSIBILITY_FOR_VERB,
    TransitionEvent,
    Verb,
    new_commitment,
)
from commitsched.trace import EventKind, ScheduleEvent

names = st.text(alphabet="abcxyz019-", min_size=1, max_size=6)
tokens = st.text(alphabet="abc=, .", max_size=6)


@st.composite
def contents(draw, debtor: str) -> ContentAction:
    verb = draw(st.sampled_from(list(Verb)))
    if verb is Verb.SIGNOFF:
        return ContentAction(verb, debtor)
    target = draw(names)
    if verb is Verb.COLLECT:
        return ContentAction(verb, target, owner=draw(names), purpose=draw(names))
    if verb is Verb.POST:
        return ContentAction(verb, target, veracity=draw(st.booleans()),
                             payload=draw(st.none() | names))
    if verb is Verb.REVEAL:
        return ContentAction(verb, target, requester=draw(names))
    return ContentAction(verb, target, payload=draw(st.none() | names))


@st.composite
def commitment_args(draw) -> dict:
    debtor = draw(names)
    content = draw(contents(debtor))
    return {
        "cid": draw(names),
        "kind": draw(st.sampled_from(list(CommitmentKind))),
        "debtor": debtor,
        "creditor": draw(names),
        "content": content,
        "explicit_priority": draw(st.none() | st.integers(0, 20)),
        "clock": draw(st.integers(0, 50)),
        "privacy": draw(st.sampled_from(list(Privacy))),
        "target_owner": draw(st.none() | names),
    }


@given(args=commitment_args())
def test_new_commitment_equals_the_constructed_value(args):
    content = args["content"]
    privacy = args["privacy"]
    built = new_commitment(
        args["cid"],
        args["kind"],
        RESPONSIBILITY_FOR_VERB[content.verb],
        args["debtor"],
        args["creditor"],
        content,
        explicit_priority=args["explicit_priority"],
        clock=args["clock"],
        privacy=privacy,
        target_owner=args["target_owner"],
    )
    if args["explicit_priority"] is not None:
        priority = args["explicit_priority"]
    elif content.verb is not Verb.SIGNOFF and privacy is Privacy.PRIVATE:
        priority = 10
    else:
        priority = 0
    constructed = Commitment(
        id=args["cid"],
        kind=args["kind"],
        responsibility=RESPONSIBILITY_FOR_VERB[content.verb],
        debtor=args["debtor"],
        creditor=args["creditor"],
        content=content,
        access=ACCESS_FOR_VERB[content.verb],
        priority=priority,
        arrival=args["clock"],
        target_owner=args["target_owner"],
    )
    assert type(built) is Commitment
    assert built == constructed and constructed == built
    assert hash(built) == hash(constructed)
    assert repr(built) == repr(constructed)
    assert dataclasses.astuple(built) == dataclasses.astuple(constructed)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.priority = 99
    with pytest.raises(dataclasses.FrozenInstanceError):
        del built.id


attrs = st.lists(st.tuples(names, tokens), max_size=4).map(tuple)
events = st.builds(
    ScheduleEvent, st.integers(0, 10**6), st.sampled_from(list(EventKind)), tokens, attrs
)


@given(event=events)
def test_schedule_events_are_equal_hashable_and_immutable(event):
    twin = ScheduleEvent(event.clock, event.kind, event.subject, tuple(event.attrs))
    assert twin == event and hash(twin) == hash(event)
    assert len({event, twin}) == 1
    assert ScheduleEvent(event.clock + 1, event.kind, event.subject, event.attrs) != event
    with pytest.raises(AttributeError):
        event.clock = 0
    with pytest.raises(TypeError):
        event[0] = 0
    assert pickle.loads(pickle.dumps(event)) == event


def _old_line(e: ScheduleEvent) -> str:
    """The serialisation ``line()`` had as a dataclass method."""
    parts = [f"t={e.clock}", e.kind.value, e.subject]
    parts.extend(f"{k}={v}" for k, v in e.attrs)
    return " ".join(parts)


@given(event=events)
def test_line_matches_the_old_format(event):
    assert event.line() == _old_line(event)


def test_line_without_attrs():
    assert ScheduleEvent(3, EventKind.SNAPSHOT, "scheduler").line() == "t=3 Snapshot scheduler"
    assert ScheduleEvent(0, EventKind.SUBMITTED, "", ()).line() == "t=0 Submitted "


HOT_ENUMS = (LifecycleState, TransitionEvent, Verb, AccessClass, EventKind)
members = st.sampled_from([m for cls in HOT_ENUMS for m in cls])


@given(a=members, b=members)
def test_hot_enum_members_hash_by_identity(a, b):
    assert type(a).__hash__ is object.__hash__
    again = pickle.loads(pickle.dumps(a))
    assert again is a and hash(again) == hash(a)
    assert (a == b) is (a is b)
    if a == b:
        assert hash(a) == hash(b)
    assert {a: 1}.get(b) == (1 if a is b else None)
