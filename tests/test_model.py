"""Commitment model: derivations, pairing rules, stateless values."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from commitsched.errors import (
    InvalidContent,
    MismatchedResponsibility,
    UnknownDetail,
)
from commitsched.model import (
    AccessClass,
    Commitment,
    CommitmentKind,
    ContentAction,
    Privacy,
    RESPONSIBILITY_FOR_VERB,
    Responsibility,
    Verb,
    derive_access_class,
    derive_priority,
    new_commitment,
)


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
    assert derive_priority(content, None, Privacy.PRIVATE) == 10


def test_priority_public_detail():
    content = _content(Verb.COLLECT, "email")
    assert derive_priority(content, None, Privacy.PUBLIC) == 0


def test_priority_explicit_override():
    content = _content(Verb.POST, "email")
    assert derive_priority(content, 7, Privacy.PUBLIC) == 7


def test_priority_signoff_is_baseline():
    assert derive_priority(_content(Verb.SIGNOFF, "svcA"), None, None) == 0


def test_priority_unknown_detail():
    with pytest.raises(UnknownDetail):
        derive_priority(_content(Verb.COLLECT, "ghost"), None, None)


def test_priority_post_to_a_fresh_key_is_public():
    """A post without a target detail creates a public one."""
    assert derive_priority(_content(Verb.POST, "fresh"), None, None) == 0


def test_priority_explicit_override_on_a_fresh_key():
    assert derive_priority(_content(Verb.POST, "fresh"), 4, None) == 4


@pytest.mark.parametrize("verb", [Verb.COLLECT, Verb.TAMPER, Verb.REVEAL], ids=lambda v: v.value)
def test_priority_other_verbs_need_a_target_detail(verb):
    """Only a post may lack its target detail."""
    with pytest.raises(UnknownDetail, match="no detail 'fresh'"):
        derive_priority(_content(verb, "fresh"), None, None)


def test_priority_rejects_negative():
    with pytest.raises(ValueError):
        derive_priority(_content(Verb.POST), -1)


@given(key=st.text(min_size=1, max_size=8))
def test_priority_private_beats_public(key):
    content = ContentAction(Verb.POST, key, veracity=True)
    private = derive_priority(content, None, Privacy.PRIVATE)
    public = derive_priority(content, None, Privacy.PUBLIC)
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
        privacy=Privacy.PUBLIC,
        clock=0,
    )
    assert c.access is AccessClass.READER
    assert c.arrival == 0
    # Pending means not yet submitted: the value has no lifecycle field, as
    # the scheduler alone keeps each id's state.
    assert "state" not in Commitment._fields


def test_new_commitment_post_is_writer():
    c = new_commitment(
        "c2",
        CommitmentKind.SOCIAL,
        Responsibility.RESP2,
        "svcA",
        "netFB",
        ContentAction(Verb.POST, "video1", veracity=True),
        privacy=Privacy.PUBLIC,
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
    # The model's copy of the rule; the parser's copy is a DIAGNOSTICS row.
    with pytest.raises(InvalidContent, match=r"sign-off target must be the debtor \('svcA'\)"):
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
