"""Value types: the fields ``new_commitment`` derives, events, hot enums, content."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from commitsched.errors import InvalidContent
from commitsched.model import (
    ACCESS_FOR_VERB,
    AccessClass,
    Commitment,
    CommitmentKind,
    ContentAction,
    LifecycleState,
    Privacy,
    RESPONSIBILITY_FOR_VERB,
    Verb,
    new_commitment,
)
from commitsched.scenario import parse
from commitsched.simulator import run
from commitsched.trace import EventKind, ScheduleEvent, parse_event
from commitsched.world import Assignment, AssignmentStatus, Detail, WorldState, exec_post
from conftest import astuple

names = st.text(alphabet="abcxyz019-", min_size=1, max_size=6)
tokens = st.text(alphabet="abc=, .", max_size=6)


def _assert_indistinguishable(built, constructed) -> None:
    """``built``, made by the run path, is the value ``constructed`` in every visible way."""
    assert type(built) is type(constructed)
    assert built == constructed and constructed == built
    assert hash(built) == hash(constructed)
    assert repr(built) == repr(constructed)
    assert astuple(built) == astuple(constructed)
    # Compare the instance dictionaries themselves: a stray entry would
    # not show in the field values.
    assert vars(built) == vars(constructed)
    first = type(built)._fields[0]
    with pytest.raises(AttributeError):
        setattr(built, first, None)
    with pytest.raises(AttributeError):
        delattr(built, first)


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
def test_new_commitment_derives_access_and_priority(args):
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
    assert type(built) is Commitment
    # The instance dictionary holds every field, in field order, and nothing else.
    assert list(vars(built).items()) == [
        ("id", args["cid"]),
        ("kind", args["kind"]),
        ("responsibility", RESPONSIBILITY_FOR_VERB[content.verb]),
        ("debtor", args["debtor"]),
        ("creditor", args["creditor"]),
        ("content", content),
        ("access", ACCESS_FOR_VERB[content.verb]),
        ("priority", priority),
        ("arrival", args["clock"]),
        ("target_owner", args["target_owner"]),
    ]


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


# The words a trace line holds: subjects and values without spaces, keys
# without spaces or ``=``. Empty words and ``=`` inside a value are kept.
words = st.text(alphabet="abc=,.-", max_size=6)
keys = st.text(alphabet="abc,.-", max_size=6)
parseable_events = st.builds(
    ScheduleEvent,
    st.integers(0, 10**6),
    st.sampled_from(list(EventKind)),
    words,
    st.lists(st.tuples(keys, words), max_size=4).map(tuple),
)


@given(event=parseable_events)
def test_parse_event_inverts_line(event):
    parsed = parse_event(event.line())
    assert parsed == event
    assert parsed.kind is event.kind


HOT_ENUMS = (LifecycleState, Verb, AccessClass, EventKind)
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


# -- the content rule and the world's values ------------------------------------

REQUIRED = {
    Verb.COLLECT: ("owner", "purpose"),
    Verb.POST: ("veracity",),
    Verb.TAMPER: (),
    Verb.SIGNOFF: (),
    Verb.REVEAL: ("requester",),
}
FILLED = {"owner": "o", "purpose": "p", "veracity": True, "requester": "r"}


@st.composite
def content_args(draw) -> dict:
    """Valid keyword arguments of ``ContentAction``, optional fields drawn too."""
    verb = draw(st.sampled_from(list(Verb)))
    args = {
        "verb": verb,
        "target": draw(names),
        "owner": draw(st.none() | names),
        "purpose": draw(st.none() | names),
        "veracity": draw(st.none() | st.booleans()),
        "requester": draw(st.none() | names),
        "payload": draw(st.none() | names),
    }
    for name in REQUIRED[verb]:
        if args[name] is None:
            args[name] = draw(st.booleans() if name == "veracity" else names)
    return args


@given(args=content_args())
def test_constructor_accepts_valid_content(args):
    value = ContentAction(**args)
    # The instance dictionary holds every field, in field order, and nothing else.
    assert list(vars(value).items()) == list(args.items())
    # The simulator passes the fields by position, in field order.
    _assert_indistinguishable(ContentAction(*args.values()), value)


def _malformed():
    for verb, required in REQUIRED.items():
        valid = {name: FILLED[name] for name in required}
        yield pytest.param(verb, "", valid, id=f"{verb.value}-empty-target")
        for name in required:
            missing = {k: v for k, v in valid.items() if k != name}
            yield pytest.param(verb, "d", missing, id=f"{verb.value}-no-{name}")


@pytest.mark.parametrize("verb,target,kwargs", list(_malformed()))
def test_constructor_rejects_malformed_content(verb, target, kwargs):
    with pytest.raises(InvalidContent):
        ContentAction(verb, target, **kwargs)


@given(owner=names, poster=names, key=names, value=names, new_value=names,
       privacy=st.sampled_from(list(Privacy)), t=st.integers(0, 10**6))
def test_exec_post_update_equals_the_constructed_value(owner, poster, key, value, new_value,
                                                       privacy, t):
    w = WorldState()
    w.with_network("n")
    w.with_member(owner, "n")
    if poster != owner:
        w.with_member(poster, "n")
    w.with_detail(Detail(key, owner, "n", privacy, value))
    assert exec_post(w, poster, key, True, t, value=new_value) is None
    _assert_indistinguishable(w.details[key], Detail(key, owner, "n", privacy, new_value))


@given(owner=names, key=names, value=names, privacy=st.sampled_from(list(Privacy)))
def test_detail_command_equals_the_constructed_value(owner, key, value, privacy):
    text = (
        f"network n\nsignup {owner} n accept\n"
        f"detail {key} {owner} n {privacy.value} {value}\n"
    )
    built = run(parse(text)).world.details[key]
    _assert_indistinguishable(built, Detail(key, owner, "n", privacy, value))


@given(aid=names, service=names,
       outcome=st.sampled_from([AssignmentStatus.COMPLETE, AssignmentStatus.FAILED]))
def test_finished_assignment_equals_the_constructed_value(aid, service, outcome):
    w = WorldState()
    w.with_network("n")
    w.with_member(service, "n")
    w.with_assignment(Assignment(aid, service))
    w.with_finished_assignment(aid, outcome)
    _assert_indistinguishable(w.assignment(aid), Assignment(aid, service, outcome))
