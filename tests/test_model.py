"""Commitment model: derivations, pairing rules, lifecycle machine."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from commitsched.errors import (
    IllegalTransition,
    InvalidContent,
    MismatchedResponsibility,
    UnknownDetail,
)
from commitsched.model import (
    AccessClass,
    Commitment,
    CommitmentKind,
    ContentAction,
    LifecycleState,
    Privacy,
    RESPONSIBILITY_FOR_VERB,
    Responsibility,
    TransitionEvent,
    Verb,
    derive_access_class,
    derive_priority,
    new_commitment,
    transition,
)

from conftest import make_commitment


def _content(verb: Verb, target: str = "d") -> ContentAction:
    if verb is Verb.COLLECT:
        return ContentAction(verb, target, owner="o", purpose="p")
    if verb is Verb.POST:
        return ContentAction(verb, target, veracity=True)
    if verb is Verb.REVEAL:
        return ContentAction(verb, target, requester="m")
    return ContentAction(verb, target)


# -- access class -----------------------------------------------------------

@pytest.mark.parametrize(
    "verb,expected",
    [
        (Verb.COLLECT, AccessClass.READER),
        (Verb.REVEAL, AccessClass.READER),
        (Verb.POST, AccessClass.WRITER),
        (Verb.TAMPER, AccessClass.WRITER),
        (Verb.SIGNOFF, AccessClass.WRITER),
    ],
)
def test_access_class_total(verb, expected):
    assert derive_access_class(_content(verb)) is expected


# -- priority ----------------------------------------------------------------

def test_priority_private_detail():
    content = _content(Verb.COLLECT, "vault")
    assert derive_priority(content, None, {"vault": Privacy.PRIVATE}) == 10


def test_priority_public_detail():
    content = _content(Verb.COLLECT, "email")
    assert derive_priority(content, None, {"email": Privacy.PUBLIC}) == 0


def test_priority_explicit_override():
    content = _content(Verb.POST, "email")
    assert derive_priority(content, 7, {"email": Privacy.PUBLIC}) == 7


def test_priority_signoff_is_baseline():
    assert derive_priority(_content(Verb.SIGNOFF, "svcA"), None, {}) == 0


def test_priority_unknown_detail():
    with pytest.raises(UnknownDetail):
        derive_priority(_content(Verb.COLLECT, "ghost"), None, {})


def test_priority_rejects_negative():
    with pytest.raises(ValueError):
        derive_priority(_content(Verb.POST), -1)


@given(key=st.text(min_size=1, max_size=8))
def test_priority_private_beats_public(key):
    content = ContentAction(Verb.POST, key, veracity=True)
    private = derive_priority(content, None, {key: Privacy.PRIVATE})
    public = derive_priority(content, None, {key: Privacy.PUBLIC})
    assert private > public


# -- construction -------------------------------------------------------------

def test_new_commitment_collect_is_reader_pending():
    c = new_commitment(
        "c1",
        CommitmentKind.SOCIAL,
        Responsibility.RESP1,
        "svcA",
        "netFB",
        ContentAction(Verb.COLLECT, "email", owner="svcB", purpose="analytics"),
        detail_privacy={"email": Privacy.PUBLIC},
        clock=0,
    )
    assert c.access is AccessClass.READER
    assert c.state is LifecycleState.PENDING
    assert c.arrival == 0


def test_new_commitment_post_is_writer():
    c = new_commitment(
        "c2",
        CommitmentKind.SOCIAL,
        Responsibility.RESP2,
        "svcA",
        "netFB",
        ContentAction(Verb.POST, "video1", veracity=True),
        detail_privacy={"video1": Privacy.PUBLIC},
        clock=1,
    )
    assert c.access is AccessClass.WRITER
    assert c.arrival == 1


@pytest.mark.parametrize(
    "responsibility,verb",
    list(itertools.product(Responsibility, Verb)),
)
def test_responsibility_verb_pairing(responsibility, verb):
    build = lambda: new_commitment(  # noqa: E731
        "cX",
        CommitmentKind.SOCIAL,
        responsibility,
        "svcA",
        "netFB",
        _content(verb, "svcA" if verb is Verb.SIGNOFF else "d"),
        explicit_priority=0,
    )
    if RESPONSIBILITY_FOR_VERB[verb] is responsibility:
        assert build().responsibility is responsibility
    else:
        with pytest.raises(MismatchedResponsibility):
            build()


def test_signoff_must_target_debtor():
    with pytest.raises(InvalidContent):
        new_commitment(
            "c1",
            CommitmentKind.SOCIAL,
            Responsibility.RESP4,
            "svcA",
            "netFB",
            ContentAction(Verb.SIGNOFF, "svcB"),
            explicit_priority=0,
        )


def test_business_kind_takes_opaque_creditor():
    c = new_commitment(
        "b1",
        CommitmentKind.BUSINESS,
        Responsibility.RESP2,
        "svcA",
        "composition-17",
        ContentAction(Verb.POST, "report", veracity=True),
        explicit_priority=0,
    )
    assert c.kind is CommitmentKind.BUSINESS
    assert c.creditor == "composition-17"


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ContentAction(Verb.COLLECT, "d", owner="o"),           # no purpose
        lambda: ContentAction(Verb.COLLECT, "d", purpose="p"),         # no owner
        lambda: ContentAction(Verb.POST, "d"),                          # no veracity
        lambda: ContentAction(Verb.REVEAL, "d"),                        # no requester
        lambda: ContentAction(Verb.POST, "", veracity=True),            # empty target
    ],
)
def test_malformed_content_rejected(bad):
    with pytest.raises(InvalidContent):
        bad()


# -- lifecycle ----------------------------------------------------------------

# The legal-transition table, restated independently as the test oracle.
LEGAL = {
    (LifecycleState.PENDING, TransitionEvent.ACTIVATE): LifecycleState.ACTIVE,
    (LifecycleState.PENDING, TransitionEvent.ENQUEUE): LifecycleState.WAITING,
    (LifecycleState.PENDING, TransitionEvent.VIOLATE): LifecycleState.VIOLATED,
    (LifecycleState.WAITING, TransitionEvent.ACTIVATE): LifecycleState.ACTIVE,
    (LifecycleState.WAITING, TransitionEvent.VIOLATE): LifecycleState.VIOLATED,
    (LifecycleState.ACTIVE, TransitionEvent.COMPLETE): LifecycleState.COMPLETED,
    (LifecycleState.ACTIVE, TransitionEvent.FAIL): LifecycleState.FAILED,
    (LifecycleState.ACTIVE, TransitionEvent.VIOLATE): LifecycleState.VIOLATED,
}


def test_transition_examples():
    pending = make_commitment("c1")
    active = transition(pending, TransitionEvent.ACTIVATE)
    assert active.state is LifecycleState.ACTIVE

    waiting = transition(pending, TransitionEvent.ENQUEUE)
    assert transition(waiting, TransitionEvent.ACTIVATE).state is LifecycleState.ACTIVE

    done = transition(active, TransitionEvent.COMPLETE)
    with pytest.raises(IllegalTransition):
        transition(done, TransitionEvent.ACTIVATE)


def test_transition_returns_new_value():
    pending = make_commitment("c1")
    transition(pending, TransitionEvent.ACTIVATE)
    assert pending.state is LifecycleState.PENDING


@given(events=st.lists(st.sampled_from(list(TransitionEvent)), max_size=12))
def test_lifecycle_never_leaves_legal_table(events):
    c = make_commitment("c1")
    for event in events:
        expected = LEGAL.get((c.state, event))
        if expected is None:
            before = c.state
            with pytest.raises(IllegalTransition):
                transition(c, event)
            assert c.state is before
        else:
            before = c.state
            nxt = transition(c, event)
            # The copy-free step must give the value dataclasses.replace would.
            reference = dataclasses.replace(c, state=expected)
            assert nxt == reference and hash(nxt) == hash(reference)
            with pytest.raises(dataclasses.FrozenInstanceError):
                nxt.state = before
            assert c.state is before
            c = nxt
            assert c.state is expected


@given(events=st.lists(st.sampled_from(list(TransitionEvent)), min_size=1, max_size=12))
def test_terminal_states_accept_nothing(events):
    c = make_commitment("c1")
    for event in events:
        if (c.state, event) not in LEGAL:
            break
        c = transition(c, event)
    if c.state in (
        LifecycleState.COMPLETED,
        LifecycleState.FAILED,
        LifecycleState.VIOLATED,
    ):
        for event in TransitionEvent:
            with pytest.raises(IllegalTransition):
                transition(c, event)
