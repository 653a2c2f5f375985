"""Commitment data model.

A commitment is the unit of scheduled work: a debtor service pledges an
action (its content) to a creditor under one of five responsibilities.
This module defines the immutable value types, the lifecycle states,
and the two derivations every commitment carries:

  * access class - reader or writer, fully determined by the content verb;
  * priority     - explicit override, else 10 for private target details
                   and 0 otherwise (private outranks public).

Every value type subclasses ``Frozen``, which makes it immutable and
compares, hashes and prints it by its annotated fields. Each value type
but ``Commitment`` is built by its constructor, a plain ``__init__``
that sets each field. ``new_commitment`` is the one builder of a
commitment: it validates its arguments, derives the access class and
priority, and fills a fresh instance dictionary in one step.
Calling ``Commitment`` raises, so no caller can give a commitment an
access class or a priority that contradicts its verb.
A commitment carries no lifecycle state: ``LifecycleState`` only names
the states, and the scheduler keeps them as where each id lives
(active, queued, or tallied under its final state). So a commitment is
built once and never copied.

Enums used as dictionary keys on the per-commitment path hash by
identity (``__hash__ = object.__hash__``, computed without running Python
code); their equality is identity already. The per-call paths compare
against members bound once to module globals (``_SIGNOFF = Verb.SIGNOFF``):
on CPython 3.10 and 3.11 each ``Verb.SIGNOFF`` runs ``EnumType.__getattr__``.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Mapping

from .errors import (
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
    WAITING = "waiting"
    ACTIVE = "active"
    COMPLETED = "completed"
    FAILED = "failed"
    VIOLATED = "violated"

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

_COLLECT = Verb.COLLECT
_POST = Verb.POST
_SIGNOFF = Verb.SIGNOFF
_REVEAL = Verb.REVEAL
_PRIVATE = Privacy.PRIVATE


class Frozen:
    """Base of the immutable value types; the fields are the class annotations.

    ``_fields`` names them in declaration order and ``_astuple(obj)``
    gives their values. Equality holds only between instances of one
    class, the hash is that of the value tuple, and ``repr`` reads
    ``Name(field=value, ...)``: all three as a frozen dataclass makes
    them. Setting or deleting an attribute raises ``AttributeError``, so
    a subclass ``__init__`` sets each field with ``object.__setattr__``.
    ``Commitment.__init__`` only raises: ``new_commitment`` is its one
    builder, and fills the instance dictionary itself.
    """

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__annotations__)
        get = attrgetter(*fields)
        # ``attrgetter`` of one name returns the value itself, not a 1-tuple.
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        values = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple(self)))
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ContentAction(Frozen):
    """Action a commitment pledges: a verb plus verb-specific arguments.

    ``target`` names a detail key, except for sign-off where it names the
    debtor's own service. ``owner``/``purpose`` belong to collect,
    ``veracity`` to post, ``requester`` to reveal, and ``payload`` is the
    optional replacement value a post or tamper carries.
    """

    verb: Verb
    target: str
    owner: str | None
    purpose: str | None
    veracity: bool | None
    requester: str | None
    payload: str | None

    def __init__(self, verb, target, owner=None, purpose=None, veracity=None, requester=None,
                 payload=None):
        if not target:
            raise InvalidContent("content target must be non-empty")
        if verb is _COLLECT and (owner is None or purpose is None):
            raise InvalidContent("collect requires owner and purpose")
        if verb is _POST and veracity is None:
            raise InvalidContent("post requires a veracity flag")
        if verb is _REVEAL and requester is None:
            raise InvalidContent("reveal requires a requester")
        put = object.__setattr__
        put(self, "verb", verb)
        put(self, "target", target)
        put(self, "owner", owner)
        put(self, "purpose", purpose)
        put(self, "veracity", veracity)
        put(self, "requester", requester)
        put(self, "payload", payload)


class Commitment(Frozen):
    """One scheduled pledge.

    ``target_owner`` snapshots the owner of the target detail at
    submission time (None when the target is not a known detail); the
    compatibility rules use it to make sign-offs contend with everything
    touching the leaving service's account. Built only by
    ``new_commitment``; calling the class raises TypeError.
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
    target_owner: str | None

    def __init__(self, *args, **kwargs):
        raise TypeError("Commitment has no constructor: build one with new_commitment")


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
    non-detail targets such as sign-off) to PRIORITY_PUBLIC. So does a
    post without a target detail: it creates a public one. Any other
    detail verb without a target detail raises UnknownDetail.
    """
    if explicit is not None:
        if explicit < 0:
            raise ValueError(f"priority must be >= 0, got {explicit}")
        return explicit
    verb = content.verb
    if verb not in DETAIL_VERBS:
        return PRIORITY_PUBLIC
    if privacy is None:
        if verb is _POST:
            return PRIORITY_PUBLIC
        raise UnknownDetail(f"no detail {content.target!r} to derive priority from")
    return PRIORITY_PRIVATE if privacy is _PRIVATE else PRIORITY_PUBLIC


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
    # Also checked by scenario.parse, which can name the column; this copy
    # guards library callers.
    if content.verb is _SIGNOFF and content.target != debtor:
        raise InvalidContent(
            f"sign-off target must be the debtor ({debtor!r}), got {content.target!r}"
        )
    c = object.__new__(Commitment)
    c.__dict__.update({
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
    return c
