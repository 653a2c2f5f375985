"""Scope of two commitments.

Two commitments contend only when they share a scope: the same content
target, or a sign-off by the service that owns the other's target detail
(leaving an account contends with everything still touching it). Within
a scope the paper's relation partitions the pairs into friend (both
readers), family (both writers) and strange (mixed); only friends may
run concurrently. The scheduler applies that rule through its access
classes and calls ``same_scope`` for the scope.
"""

from __future__ import annotations

from .model import Commitment, Verb


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
