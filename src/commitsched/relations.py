"""Compatibility of two commitments.

Two commitments contend only when they share a scope: the same content
target, or a sign-off by the service that owns the other's target detail
(leaving an account contends with everything still touching it). Within
a scope the relation partitions into friend (both readers), family (both
writers) and strange (mixed); only friends may run concurrently.
"""

from __future__ import annotations

from enum import Enum

from .model import AccessClass, Commitment, Verb


class Relation(Enum):
    FRIEND = "friend"
    FAMILY = "family"
    STRANGE = "strange"


def _signoff_touches(a: Commitment, b: Commitment) -> bool:
    return (
        a.content.verb is Verb.SIGNOFF
        and b.target_owner is not None
        and b.target_owner == a.debtor
    )


def same_scope(a: Commitment, b: Commitment) -> bool:
    """True when the two commitments touch the same resource."""
    if a.content.target == b.content.target:
        return True
    return _signoff_touches(a, b) or _signoff_touches(b, a)


def classify(a: Commitment, b: Commitment) -> Relation:
    """Three-way relation of two same-scope commitments. Symmetric."""
    if a.access is AccessClass.READER and b.access is AccessClass.READER:
        return Relation.FRIEND
    if a.access is AccessClass.WRITER and b.access is AccessClass.WRITER:
        return Relation.FAMILY
    return Relation.STRANGE


def conflicts(r: Relation) -> bool:
    """Friends execute concurrently; family and strange pairs must wait."""
    return r is not Relation.FRIEND
