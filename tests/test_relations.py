"""Scope contention: which commitments touch the same resource."""

from __future__ import annotations

from commitsched.model import AccessClass, Verb
from commitsched.relations import same_scope

from conftest import make_commitment


def test_same_target_shares_scope():
    a = make_commitment("a", AccessClass.READER, target="email")
    b = make_commitment("b", AccessClass.WRITER, target="email")
    assert same_scope(a, b)


def test_disjoint_targets_do_not_contend():
    a = make_commitment("a", AccessClass.READER, target="email")
    b = make_commitment("b", AccessClass.WRITER, target="photo")
    assert not same_scope(a, b)


def test_signoff_contends_with_owned_detail():
    signoff = make_commitment("s", verb=Verb.SIGNOFF, debtor="svcA")
    post = make_commitment(
        "p", AccessClass.WRITER, target="wall", target_owner="svcA"
    )
    assert same_scope(signoff, post)
    assert same_scope(post, signoff)


def test_signoff_ignores_foreign_details():
    signoff = make_commitment("s", verb=Verb.SIGNOFF, debtor="svcA")
    post = make_commitment(
        "p", AccessClass.WRITER, target="wall", target_owner="svcB"
    )
    assert not same_scope(signoff, post)
    unowned = make_commitment("q", AccessClass.WRITER, target="wall")
    assert not same_scope(signoff, unowned)


def test_two_signoffs_same_service_share_scope():
    a = make_commitment("a", verb=Verb.SIGNOFF, debtor="svcA")
    b = make_commitment("b", verb=Verb.SIGNOFF, debtor="svcA")
    assert same_scope(a, b)


def test_signoffs_of_different_services_are_independent():
    a = make_commitment("a", verb=Verb.SIGNOFF, debtor="svcA")
    b = make_commitment("b", verb=Verb.SIGNOFF, debtor="svcB")
    assert not same_scope(a, b)
