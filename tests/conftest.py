"""Shared builders for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from commitsched.model import (
    ACCESS_FOR_VERB,
    AccessClass,
    CommitmentKind,
    ContentAction,
    RESPONSIBILITY_FOR_VERB,
    Verb,
    new_commitment,
)
from commitsched.world import Detail, WorldState
from commitsched.model import Privacy


def make_commitment(
    cid: str,
    access: AccessClass = AccessClass.READER,
    target: str = "d",
    priority: int = 0,
    arrival: int = 0,
    debtor: str = "svcA",
    target_owner: str | None = None,
    verb: Verb | None = None,
):
    """A ready-to-submit commitment with the requested access class."""
    if verb is None:
        verb = Verb.COLLECT if access is AccessClass.READER else Verb.POST
    if verb is Verb.COLLECT:
        content = ContentAction(verb, target, owner="owner", purpose="testing")
    elif verb is Verb.POST:
        content = ContentAction(verb, target, veracity=True)
    elif verb is Verb.REVEAL:
        content = ContentAction(verb, target, requester="someone")
    elif verb is Verb.SIGNOFF:
        content = ContentAction(verb, debtor)
    else:
        content = ContentAction(verb, target)
    return new_commitment(
        cid,
        CommitmentKind.SOCIAL,
        RESPONSIBILITY_FOR_VERB[verb],
        debtor=debtor,
        creditor="net",
        content=content,
        explicit_priority=priority,
        clock=arrival,
        target_owner=target_owner,
    )


SERVICES = ("svcA", "svcB")
# "svcA" is also a detail key: a post on it shares the target of svcA's sign-off.
TARGETS = ("d", "e", "svcA")


@st.composite
def any_commitment(draw, cid: str):
    """Any verb, sign-offs included, on a small set of services and targets."""
    verb = draw(st.sampled_from(list(Verb)))
    debtor = draw(st.sampled_from(SERVICES))
    return make_commitment(
        cid,
        ACCESS_FOR_VERB[verb],
        target=debtor if verb is Verb.SIGNOFF else draw(st.sampled_from(TARGETS)),
        priority=draw(st.sampled_from([0, 10])),
        arrival=draw(st.integers(0, 2)),  # equal and non-monotonic arrivals
        debtor=debtor,
        target_owner=draw(st.sampled_from((None,) + SERVICES)),
        verb=verb,
    )


@pytest.fixture
def small_world() -> WorldState:
    """One network, two member services, one public and one private detail."""
    w = WorldState().with_network("fb")
    w = w.with_purpose("fb", "analytics")
    w = w.with_member("svcA", "fb").with_member("svcB", "fb")
    w = w.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "addr0"))
    w = w.with_detail(Detail("vault", "svcA", "fb", Privacy.PRIVATE, "secret0"))
    return w
