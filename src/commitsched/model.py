"""Commitment data model.

A commitment is the unit of scheduled work: a debtor service pledges an
action (its content) to a creditor under one of five responsibilities.
This module defines the immutable value types, the lifecycle state
machine, and the two derivations every commitment carries:

  * access class - reader or writer, fully determined by the content verb;
  * priority     - explicit override, else 10 for private target details
                   and 0 otherwise (private outranks public).

All types are frozen dataclasses. A commitment carries no lifecycle
state: the scheduler knows it from where the id lives, and
``transition`` maps a state and an event to the next state by the legal
table. So a commitment is built once and never copied. ``new_commitment``
validates its arguments itself and fills a fresh instance dictionary in
one step (``_build``), without ``__init__``; ``_evolve`` copies a
detail or an assignment of the world the same way. Equality, hashing,
``repr`` and the frozen-attribute check stay the dataclass's own.
``ContentAction`` is built by its constructor, which validates it.

Enums used as dictionary keys on the per-commitment path hash by
identity (``__hash__ = object.__hash__``, computed without running Python
code); their equality is identity already.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import (
    IllegalTransition,
    InvalidContent,
    MismatchedResponsibility,
    UnknownDetail,
)


class CommitmentKind(Enum):
    SOCIAL = "social"
    BUSINESS = "business"


class Responsibility(Enum):
    RESP1 = "resp1"
    RESP2 = "resp2"
    RESP3 = "resp3"
    RESP4 = "resp4"
    RESP5 = "resp5"


class Verb(Enum):
    COLLECT = "collect"
    POST = "post"
    TAMPER = "tamper"
    SIGNOFF = "signoff"
    REVEAL = "reveal"

    __hash__ = object.__hash__  # identity, as equality is


class AccessClass(Enum):
    READER = "reader"
    WRITER = "writer"

    __hash__ = object.__hash__  # identity, as equality is


class Privacy(Enum):
    PUBLIC = "public"
    PRIVATE = "private"


class LifecycleState(Enum):
    PENDING = "pending"
    WAITING = "waiting"
    ACTIVE = "active"
    COMPLETED = "completed"
    FAILED = "failed"
    VIOLATED = "violated"

    __hash__ = object.__hash__  # identity, as equality is


class TransitionEvent(Enum):
    ACTIVATE = "activate"
    ENQUEUE = "enqueue"
    COMPLETE = "complete"
    FAIL = "fail"
    VIOLATE = "violate"

    __hash__ = object.__hash__  # identity, as equality is


# Each responsibility governs exactly one verb.
RESPONSIBILITY_FOR_VERB: Mapping[Verb, Responsibility] = {
    Verb.COLLECT: Responsibility.RESP1,
    Verb.POST: Responsibility.RESP2,
    Verb.TAMPER: Responsibility.RESP3,
    Verb.SIGNOFF: Responsibility.RESP4,
    Verb.REVEAL: Responsibility.RESP5,
}

# Collect/reveal only read network information; post/tamper mutate it and
# sign-off mutates the membership registry.
ACCESS_FOR_VERB: Mapping[Verb, AccessClass] = {
    Verb.COLLECT: AccessClass.READER,
    Verb.REVEAL: AccessClass.READER,
    Verb.POST: AccessClass.WRITER,
    Verb.TAMPER: AccessClass.WRITER,
    Verb.SIGNOFF: AccessClass.WRITER,
}

# Verbs whose target names a detail key (sign-off targets the debtor's
# own service account instead).
DETAIL_VERBS = frozenset({Verb.COLLECT, Verb.POST, Verb.TAMPER, Verb.REVEAL})

PRIORITY_PUBLIC = 0
PRIORITY_PRIVATE = 10

_LEGAL_TRANSITIONS: Mapping[tuple[LifecycleState, TransitionEvent], LifecycleState] = {
    (LifecycleState.PENDING, TransitionEvent.ACTIVATE): LifecycleState.ACTIVE,
    (LifecycleState.PENDING, TransitionEvent.ENQUEUE): LifecycleState.WAITING,
    (LifecycleState.PENDING, TransitionEvent.VIOLATE): LifecycleState.VIOLATED,
    (LifecycleState.WAITING, TransitionEvent.ACTIVATE): LifecycleState.ACTIVE,
    (LifecycleState.WAITING, TransitionEvent.VIOLATE): LifecycleState.VIOLATED,
    (LifecycleState.ACTIVE, TransitionEvent.COMPLETE): LifecycleState.COMPLETED,
    (LifecycleState.ACTIVE, TransitionEvent.FAIL): LifecycleState.FAILED,
    (LifecycleState.ACTIVE, TransitionEvent.VIOLATE): LifecycleState.VIOLATED,
}


@dataclass(frozen=True)
class ContentAction:
    """Action a commitment pledges: a verb plus verb-specific arguments.

    ``target`` names a detail key, except for sign-off where it names the
    debtor's own service. ``owner``/``purpose`` belong to collect,
    ``veracity`` to post, ``requester`` to reveal, and ``payload`` is the
    optional replacement value a post or tamper carries.
    """

    verb: Verb
    target: str
    owner: str | None = None
    purpose: str | None = None
    veracity: bool | None = None
    requester: str | None = None
    payload: str | None = None

    def __post_init__(self):
        if not self.target:
            raise InvalidContent("content target must be non-empty")
        if self.verb is Verb.COLLECT and (self.owner is None or self.purpose is None):
            raise InvalidContent("collect requires owner and purpose")
        if self.verb is Verb.POST and self.veracity is None:
            raise InvalidContent("post requires a veracity flag")
        if self.verb is Verb.REVEAL and self.requester is None:
            raise InvalidContent("reveal requires a requester")


@dataclass(frozen=True)
class Commitment:
    """One scheduled pledge.

    ``target_owner`` snapshots the owner of the target detail at
    submission time (None when the target is not a known detail); the
    compatibility rules use it to make sign-offs contend with everything
    touching the leaving service's account.
    """

    id: str
    kind: CommitmentKind
    responsibility: Responsibility
    debtor: str
    creditor: str
    content: ContentAction
    access: AccessClass
    priority: int
    arrival: int
    target_owner: str | None = None


def _build(cls, fields: dict):
    """Instance of the frozen dataclass ``cls`` whose attributes are ``fields``.

    Runs neither ``__init__`` nor ``__post_init__``: ``fields`` must name
    every field, derived ones included, with values already validated.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _evolve(obj, **changes):
    """Copy of the frozen dataclass ``obj`` with ``changes`` applied.

    Equal to ``dataclasses.replace(obj, **changes)`` for a class without
    ``__post_init__``, but skips ``__init__``: the instance dictionary is
    copied as is, derived fields included, so a caller that changes a
    field some derived field depends on must pass that one too. ``obj``
    is never modified.
    """
    return _build(obj.__class__, {**obj.__dict__, **changes})


def derive_access_class(content: ContentAction) -> AccessClass:
    """Reader/writer classification of a content action. Total over verbs."""
    return ACCESS_FOR_VERB[content.verb]


def derive_priority(
    content: ContentAction,
    explicit: int | None = None,
    privacy: Privacy | None = None,
) -> int:
    """Priority of a commitment: explicit override, else privacy-derived.

    ``privacy`` is that of the target detail, None when there is none.
    Private target details map to PRIORITY_PRIVATE, public ones (and
    non-detail targets such as sign-off) to PRIORITY_PUBLIC. A detail
    verb without a target detail raises UnknownDetail.
    """
    if explicit is not None:
        if explicit < 0:
            raise ValueError(f"priority must be >= 0, got {explicit}")
        return explicit
    if content.verb not in DETAIL_VERBS:
        return PRIORITY_PUBLIC
    if privacy is None:
        raise UnknownDetail(f"no detail {content.target!r} to derive priority from")
    return PRIORITY_PRIVATE if privacy is Privacy.PRIVATE else PRIORITY_PUBLIC


def new_commitment(
    cid: str,
    kind: CommitmentKind,
    responsibility: Responsibility,
    debtor: str,
    creditor: str,
    content: ContentAction,
    *,
    explicit_priority: int | None = None,
    clock: int = 0,
    privacy: Privacy | None = None,
    target_owner: str | None = None,
) -> Commitment:
    """Build a commitment, deriving access class and priority.

    ``privacy`` is that of the target detail (None when there is none).

    The responsibility must pair with the content verb (collect=resp1,
    post=resp2, tamper=resp3, signoff=resp4, reveal=resp5) and a sign-off
    must target the debtor itself.
    """
    expected = RESPONSIBILITY_FOR_VERB[content.verb]
    if responsibility is not expected:
        raise MismatchedResponsibility(
            f"{content.verb.value!r} requires {expected.value}, got {responsibility.value}"
        )
    if content.verb is Verb.SIGNOFF and content.target != debtor:
        raise InvalidContent(
            f"sign-off target must be the debtor ({debtor!r}), got {content.target!r}"
        )
    return _build(Commitment, {
        "id": cid,
        "kind": kind,
        "responsibility": responsibility,
        "debtor": debtor,
        "creditor": creditor,
        "content": content,
        "access": derive_access_class(content),
        "priority": derive_priority(content, explicit_priority, privacy),
        "arrival": clock,
        "target_owner": target_owner,
    })


def transition(state: LifecycleState, event: TransitionEvent) -> LifecycleState:
    """The state a lifecycle event leads to from ``state``.

    Raises IllegalTransition when the event is not legal from ``state``;
    terminal states accept nothing.
    """
    nxt = _LEGAL_TRANSITIONS.get((state, event))
    if nxt is None:
        raise IllegalTransition(state, event)
    return nxt
