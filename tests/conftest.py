"""Shared builders for the test suite."""

from __future__ import annotations

from itertools import product

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
# (verb, debtor, target, priority, arrival, target owner): arrivals repeat and
# need not grow. One draw per commitment keeps a long random run cheap.
_SPECS = st.sampled_from(
    list(product(Verb, SERVICES, TARGETS, (0, 10), range(3), (None,) + SERVICES))
)


def any_commitment(data, cid: str):
    """Draw any verb, sign-offs included, on a small set of services and targets.

    A sign-off's target is its debtor, whatever target was drawn.
    """
    verb, debtor, target, priority, arrival, owner = data.draw(_SPECS, label=cid)
    return make_commitment(
        cid,
        ACCESS_FOR_VERB[verb],
        target=debtor if verb is Verb.SIGNOFF else target,
        priority=priority,
        arrival=arrival,
        debtor=debtor,
        target_owner=owner,
        verb=verb,
    )


@pytest.fixture
def small_world() -> WorldState:
    """One network, two member services, one public and one private detail."""
    w = WorldState()
    w.with_network("fb")
    w.with_purpose("fb", "analytics")
    w.with_member("svcA", "fb")
    w.with_member("svcB", "fb")
    w.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "addr0"))
    w.with_detail(Detail("vault", "svcA", "fb", Privacy.PRIVATE, "secret0"))
    return w


def astuple(value) -> tuple:
    """The field values of a ``Frozen`` value, read one by one in field order."""
    return tuple(getattr(value, name) for name in type(value)._fields)
