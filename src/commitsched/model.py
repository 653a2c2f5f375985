"""Commitment data model.

A commitment is the unit of scheduled work: a debtor service pledges an
action (its content) to a creditor under one of five responsibilities.
This module defines the immutable value types, the lifecycle states,
and the two derivations every commitment carries:

  * access class - reader or writer, fully determined by the content verb;
  * priority     - explicit override, else 10 for private target details
                   and 0 otherwise (private outranks public).

Every value type subclasses ``Frozen``, which makes it immutable and
compares, hashes and prints it by its annotated fields, and has a plain
``__init__`` that sets each field. A commitment carries no lifecycle state:
``LifecycleState`` only names the states, and the scheduler keeps them
as where each id lives (active, queued, or tallied under its final
state). So a commitment is built once and never copied.
``new_commitment`` validates its arguments itself and fills a fresh
instance dictionary in one step (``_build``), without ``__init__``;
``_evolve`` copies a detail or an assignment of the world the same
way. Equality, hashing, ``repr`` and the frozen-attribute check are
``Frozen``'s, whichever way a value was made.
``new_content`` builds a ``ContentAction`` without ``__init__`` too,
setting each field itself; it and the constructor both validate with
``_check_content``, the one statement of the content rule. The run path
also builds the ``detail`` command's world ``Detail`` with ``_build``.

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


def _check_content(verb, target, owner, purpose, veracity, requester) -> None:
    """Raise InvalidContent unless the arguments make a valid content action."""
    if not target:
        raise InvalidContent("content target must be non-empty")
    if verb is _COLLECT and (owner is None or purpose is None):
        raise InvalidContent("collect requires owner and purpose")
    if verb is _POST and veracity is None:
        raise InvalidContent("post requires a veracity flag")
    if verb is _REVEAL and requester is None:
        raise InvalidContent("reveal requires a requester")


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
        _check_content(verb, target, owner, purpose, veracity, requester)
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
    target_owner: str | None

    def __init__(self, id, kind, responsibility, debtor, creditor, content, access, priority,
                 arrival, target_owner=None):
        put = object.__setattr__
        put(self, "id", id)
        put(self, "kind", kind)
        put(self, "responsibility", responsibility)
        put(self, "debtor", debtor)
        put(self, "creditor", creditor)
        put(self, "content", content)
        put(self, "access", access)
        put(self, "priority", priority)
        put(self, "arrival", arrival)
        put(self, "target_owner", target_owner)


def _build(cls, fields: dict):
    """Instance of the ``Frozen`` class ``cls`` whose attributes are ``fields``.

    Does not run ``__init__`` or its checks: ``fields`` must name every
    field, derived ones included, with values already validated.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _evolve(obj, **changes):
    """Copy of the ``Frozen`` value ``obj`` with ``changes`` applied.

    Equal to the value its constructor would give for the same fields,
    but skips ``__init__`` and its checks: the instance dictionary is
    copied as is, derived fields included, so a caller that changes a
    field some derived field depends on must pass that one too. ``obj``
    is never modified.
    """
    return _build(obj.__class__, {**obj.__dict__, **changes})


def new_content(
    verb: Verb,
    target: str,
    owner: str | None = None,
    purpose: str | None = None,
    veracity: bool | None = None,
    requester: str | None = None,
    payload: str | None = None,
) -> ContentAction:
    """The ``ContentAction`` its constructor would build, validated the same way.

    The simulator builds one per submitted commitment, without the type
    call and ``__init__`` frame of the constructor; when the constructor
    was a dataclass's, that gave world-bulk 2-3% more commitments/s
    (``BENCH_13.json``, ``builder_vs_constructor``). Filled field by
    field, as the constructor fills it, not with ``_build``: on
    CPython 3.11+ the attributes then stay inline in the instance, which
    is smaller than one with its own instance dictionary, and the
    scheduler reads ``content.target`` and ``content.verb`` of every
    queued commitment it scans. Built by ``_build``, the scheduler's
    slowest calls got slower (``BENCH_13.json``).
    """
    _check_content(verb, target, owner, purpose, veracity, requester)
    obj = object.__new__(ContentAction)
    put = object.__setattr__
    put(obj, "verb", verb)
    put(obj, "target", target)
    put(obj, "owner", owner)
    put(obj, "purpose", purpose)
    put(obj, "veracity", veracity)
    put(obj, "requester", requester)
    put(obj, "payload", payload)
    return obj


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
