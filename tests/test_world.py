"""World state and the five responsibility checks."""

from __future__ import annotations

import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from commitsched.errors import (
    AlreadyMember,
    DuplicateAssignment,
    DuplicateDetail,
    EngineError,
    IllegalStatusChange,
    NoCollectionRecord,
    OwnerNotMember,
    UnknownAssignment,
    UnknownDetail,
    UnknownNetwork,
    UnknownService,
)
from commitsched.model import Privacy, Responsibility
from commitsched.world import (
    Assignment,
    AssignmentStatus,
    CollectionRecord,
    Detail,
    Violation,
    WorldState,
    exec_collect,
    exec_post,
    exec_reveal,
    exec_signoff,
    exec_tamper_guard,
    valid,
)


# -- valid -----------------------------------------------------------------

def test_valid_membership(small_world):
    assert valid(small_world, "fb", "analytics") is True


def test_valid_rejects_unregistered_purpose(small_world):
    assert valid(small_world, "fb", "spam") is False


def test_valid_unknown_network(small_world):
    with pytest.raises(UnknownNetwork):
        valid(small_world, "nowhere", "analytics")


# -- collect ----------------------------------------------------------------

def test_collect_appends_record(small_world):
    result = exec_collect(small_world, "svcB", "email", "analytics", t=3)
    assert not isinstance(result, Violation)
    w2, record = result
    assert record.detail_key == "email"
    assert record.collector == "svcB"
    assert record.approved_at == 3
    assert record.snapshot == "addr0"
    assert w2.collections == (record,)
    assert small_world.collections == ()  # input untouched


def test_collect_invalid_purpose(small_world):
    result = exec_collect(small_world, "svcB", "email", "spam", t=0)
    assert result == Violation(Responsibility.RESP1, "invalid-purpose")


def test_collect_nonmember(small_world):
    result = exec_collect(small_world, "outsider", "email", "analytics", t=0)
    assert result == Violation(Responsibility.RESP1, "collector-not-member")


def test_collect_unknown_detail(small_world):
    with pytest.raises(UnknownDetail):
        exec_collect(small_world, "svcB", "ghost", "analytics", t=0)


# -- post --------------------------------------------------------------------

def test_post_updates_value(small_world):
    w2 = exec_post(small_world, "svcB", "email", True, t=2, value="addr1")
    assert not isinstance(w2, Violation)
    assert w2.details["email"].value == "addr1"
    assert w2.details["email"].veracity is True
    assert w2.details["email"].owner == "svcA"  # ownership survives updates
    assert small_world.details["email"].value == "addr0"


def test_post_untrue_is_violation(small_world):
    result = exec_post(small_world, "svcB", "email", False, t=2)
    assert result == Violation(Responsibility.RESP2, "untrue-content")


def test_post_nonmember_is_violation(small_world):
    result = exec_post(small_world, "outsider", "email", True, t=2)
    assert result == Violation(Responsibility.RESP2, "poster-not-member")


def test_post_creates_detail(small_world):
    w2 = exec_post(small_world, "svcB", "story", True, t=4, network="fb", value="v0")
    assert not isinstance(w2, Violation)
    d = w2.details["story"]
    assert (d.owner, d.network, d.privacy, d.value) == ("svcB", "fb", Privacy.PUBLIC, "v0")


def test_post_default_value_token(small_world):
    w2 = exec_post(small_world, "svcB", "email", True, t=7)
    assert w2.details["email"].value == "svcB@t7"


def test_post_without_network_for_fresh_key(small_world):
    with pytest.raises(UnknownNetwork):
        exec_post(small_world, "svcB", "story", True, t=0)


# -- tamper ---------------------------------------------------------------------

def test_tamper_after_collection(small_world):
    w2, _ = exec_collect(small_world, "svcB", "email", "analytics", t=0)
    result = exec_tamper_guard(w2, "email")
    assert result == Violation(Responsibility.RESP3, "tamper-after-collection")


def test_tamper_without_collection(small_world):
    with pytest.raises(NoCollectionRecord):
        exec_tamper_guard(small_world, "email")


def test_repeated_tampers_leave_snapshot_alone(small_world):
    w2, record = exec_collect(small_world, "svcB", "email", "analytics", t=0)
    for _ in range(2):
        result = exec_tamper_guard(w2, "email")
        assert result == Violation(Responsibility.RESP3, "tamper-after-collection")
    assert w2.collections[0].snapshot == "addr0"


def test_snapshot_survives_later_posts(small_world):
    w2, record = exec_collect(small_world, "svcB", "email", "analytics", t=0)
    w3 = exec_post(w2, "svcB", "email", True, t=1, value="changed")
    assert w3.collections[0].snapshot == "addr0"
    assert w3.details["email"].value == "changed"


# -- signoff -----------------------------------------------------------------------

def test_signoff_with_terminal_assignments(small_world):
    w = small_world.with_assignment(Assignment("a1", "svcB"))
    w = w.with_finished_assignment("a1", AssignmentStatus.COMPLETE)
    w = w.with_assignment(Assignment("a2", "svcB"))
    w = w.with_finished_assignment("a2", AssignmentStatus.FAILED)
    result = exec_signoff(w, "svcB")
    assert not isinstance(result, Violation)
    w2, networks = result
    assert networks == ("fb",)
    assert not w2.has_any_membership("svcB")


def test_signoff_blocked_by_ongoing(small_world):
    w = small_world.with_assignment(Assignment("a1", "svcB"))
    w = w.with_assignment(Assignment("a2", "svcB"))
    result = exec_signoff(w, "svcB")
    assert result == Violation(
        Responsibility.RESP4, "ongoing-assignments", items=("a1", "a2")
    )
    assert w.has_any_membership("svcB")


def test_signoff_unknown_service(small_world):
    with pytest.raises(UnknownService):
        exec_signoff(small_world, "outsider")


# -- reveal -------------------------------------------------------------------------

def _with_record(world, t=0):
    w, _ = exec_collect(world, "svcB", "email", "analytics", t=t)
    return w


def test_reveal_to_member(small_world):
    assert exec_reveal(small_world, "email", "svcB", t=0) == "addr0"


def test_reveal_public_within_ttl(small_world):
    w = _with_record(small_world.with_ttl(5), t=0)
    assert exec_reveal(w, "email", "outsider", t=5) == "addr0"


def test_reveal_public_expired(small_world):
    w = _with_record(small_world.with_ttl(5), t=0)
    result = exec_reveal(w, "email", "outsider", t=6)
    assert result == Violation(Responsibility.RESP5, "authorization-expired")


def test_reveal_private_to_nonmember(small_world):
    result = exec_reveal(small_world, "vault", "outsider", t=0)
    assert result == Violation(Responsibility.RESP5, "private-to-nonmember")


def test_reveal_private_to_member_is_fine(small_world):
    assert exec_reveal(small_world, "vault", "svcB", t=0) == "secret0"


def test_reveal_needs_approved_collection(small_world):
    result = exec_reveal(small_world, "email", "outsider", t=0)
    assert result == Violation(Responsibility.RESP5, "no-approved-collection")


def test_reveal_unknown_detail(small_world):
    with pytest.raises(UnknownDetail):
        exec_reveal(small_world, "ghost", "svcB", t=0)


def _reveal_world():
    w = WorldState().with_network("fb").with_purpose("fb", "analytics")
    w = w.with_member("svcA", "fb").with_member("svcB", "fb")
    w = w.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "addr0"))
    return _with_record(w.with_ttl(3), t=0)


@given(first=st.integers(0, 50), gap=st.integers(1, 50))
def test_reveal_violations_are_monotone(first, gap):
    # Once expired for a non-member, it stays expired at every later tick.
    w = _reveal_world()
    early = exec_reveal(w, "email", "outsider", t=first)
    late = exec_reveal(w, "email", "outsider", t=first + gap)
    if isinstance(early, Violation):
        assert isinstance(late, Violation)


# -- assignments / status -------------------------------------------------------------

def test_status_lifecycle(small_world):
    w = small_world.with_assignment(Assignment("a1", "svcB"))
    assert w.assignment("a1").status is AssignmentStatus.ONGOING
    w = w.with_finished_assignment("a1", AssignmentStatus.COMPLETE)
    assert w.assignment("a1").status is AssignmentStatus.COMPLETE


def test_status_unknown(small_world):
    with pytest.raises(UnknownAssignment):
        small_world.assignment("ghost").status


def test_finish_twice_rejected(small_world):
    w = small_world.with_assignment(Assignment("a1", "svcB"))
    w = w.with_finished_assignment("a1", AssignmentStatus.COMPLETE)
    with pytest.raises(IllegalStatusChange):
        w.with_finished_assignment("a1", AssignmentStatus.FAILED)


# -- construction invariants -----------------------------------------------------------

def test_duplicate_detail_rejected(small_world):
    with pytest.raises(DuplicateDetail):
        small_world.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "x"))


def test_detail_owner_must_be_member(small_world):
    with pytest.raises(OwnerNotMember):
        small_world.with_detail(Detail("new", "outsider", "fb", Privacy.PUBLIC, "x"))


def test_detail_needs_network(small_world):
    with pytest.raises(UnknownNetwork):
        small_world.with_detail(Detail("new", "svcA", "nowhere", Privacy.PUBLIC, "x"))


def test_duplicate_assignment_rejected(small_world):
    w = small_world.with_assignment(Assignment("a1", "svcB"))
    with pytest.raises(DuplicateAssignment):
        w.with_assignment(Assignment("a1", "svcA"))


def test_double_membership_rejected(small_world):
    with pytest.raises(AlreadyMember):
        small_world.with_member("svcA", "fb")


# -- violation atomicity -----------------------------------------------------------------

def _plain(w: WorldState) -> dict:
    """The constructor arguments of ``w`` as plain dicts, tuples and frozensets."""
    return {
        "networks": w.networks,
        "members": w.members,
        "details": dict(w.details),
        "collections": tuple(w.collections),
        "assignments": w.assignments,
        "purposes": dict(w.purposes),
        "reveal_ttl": w.reveal_ttl,
    }


def _rebuilt(w: WorldState) -> WorldState:
    """A world constructed directly from the public fields of ``w``."""
    return WorldState(**_plain(w))


def test_violations_leave_world_untouched(small_world):
    w = small_world.with_assignment(Assignment("a1", "svcA"))
    cases = [
        lambda: exec_collect(w, "svcB", "email", "spam", t=0),
        lambda: exec_collect(w, "outsider", "email", "analytics", t=0),
        lambda: exec_post(w, "svcB", "email", False, t=0),
        lambda: exec_post(w, "outsider", "email", True, t=0),
        lambda: exec_tamper_guard(_with_record(w), "email"),
        lambda: exec_signoff(w, "svcA"),
        lambda: exec_reveal(w, "vault", "outsider", t=0),
    ]
    snapshot = _rebuilt(w)
    for case in cases:
        result = case()
        assert isinstance(result, Violation)
        assert w == snapshot


# -- derived indexes ---------------------------------------------------------------------

_SERVICES = ("svcA", "svcB", "svcC", "outsider")
_NETWORKS = ("fb", "li")
_KEYS = ("email", "vault", "story")
_ticks = st.integers(0, 8)

_steps = st.one_of(
    st.tuples(st.just("member"), st.sampled_from(_SERVICES), st.sampled_from(_NETWORKS)),
    st.tuples(st.just("leave"), st.sampled_from(_SERVICES)),
    st.tuples(
        st.just("detail"), st.sampled_from(_KEYS), st.sampled_from(_SERVICES),
        st.sampled_from(_NETWORKS), st.sampled_from(list(Privacy)),
    ),
    st.tuples(
        st.just("record"), st.sampled_from(_KEYS), st.sampled_from(_SERVICES), _ticks
    ),
    st.tuples(st.just("assignment"), st.sampled_from(("a1", "a2")), st.sampled_from(_SERVICES)),
    st.tuples(
        st.just("collect"), st.sampled_from(_SERVICES), st.sampled_from(_KEYS),
        st.sampled_from(("analytics", "spam")), _ticks,
    ),
    st.tuples(
        st.just("post"), st.sampled_from(_SERVICES), st.sampled_from(_KEYS),
        st.booleans(), st.sampled_from(_NETWORKS), _ticks,
    ),
    st.tuples(st.just("tamper"), st.sampled_from(_KEYS)),
    st.tuples(st.just("signoff"), st.sampled_from(_SERVICES)),
    st.tuples(
        st.just("reveal"), st.sampled_from(_KEYS), st.sampled_from(_SERVICES), _ticks
    ),
)


def _apply(w: WorldState, step):
    """The world (or Violation, or reveal result) one step returns."""
    op, *args = step
    if op == "member":
        return w.with_member(*args)
    if op == "leave":
        return w.without_memberships(*args)
    if op == "detail":
        key, owner, network, privacy = args
        return w.with_detail(Detail(key, owner, network, privacy, f"{key}0"))
    if op == "record":
        key, collector, t = args
        return w.with_collection(CollectionRecord(key, collector, "analytics", t, "v"))
    if op == "assignment":
        return w.with_assignment(Assignment(*args))
    if op == "collect":
        result = exec_collect(w, *args)
        return result if isinstance(result, Violation) else result[0]
    if op == "post":
        poster, key, veracity, network, t = args
        return exec_post(w, poster, key, veracity, t, network=network)
    if op == "tamper":
        return exec_tamper_guard(w, *args)
    if op == "signoff":
        result = exec_signoff(w, *args)
        return result if isinstance(result, Violation) else result[0]
    key, requester, t = args
    return exec_reveal(w, key, requester, t)


def _must_breach(w: WorldState, step) -> bool:
    """True for the steps whose input alone shows a breached responsibility."""
    op, *args = step
    if op == "collect":
        _, key, purpose, _ = args
        return key in w.details and purpose == "spam"
    if op == "post":
        return not args[2]
    if op == "tamper":
        key = args[0]
        return key in w.details and any(r.detail_key == key for r in w.collections)
    if op == "signoff":
        svc = args[0]
        return any(s == svc for s, _ in w.members) and any(
            a.service == svc for a in w.assignments
        )
    if op == "reveal":
        key, requester, _ = args
        d = w.details.get(key)
        return (
            d is not None
            and d.privacy is Privacy.PRIVATE
            and not w.is_member(requester, d.network)
        )
    return False


def _answers(w: WorldState):
    """What the indexed queries say about every service and detail key."""
    return (
        [(w.has_any_membership(s), w.member_networks(s)) for s in _SERVICES],
        [w.records_for(k) for k in _KEYS],
    )


def _scanned(w: WorldState):
    """The same answers, from a direct scan of ``members`` and ``collections``."""
    return (
        [
            (
                any(s == svc for s, _ in w.members),
                tuple(sorted(n for s, n in w.members if s == svc)),
            )
            for svc in _SERVICES
        ],
        [tuple(r for r in w.collections if r.detail_key == k) for k in _KEYS],
    )


def _frozen_view(w: WorldState) -> dict:
    """Every attribute of ``w``, derived indexes included, copied as plain values.

    Mappings become dicts and ``collections`` a tuple, so a value shared
    between versions is read as this version sees it, not kept by reference.
    """
    return {
        k: dict(v) if isinstance(v, Mapping) else tuple(v) if k == "collections" else v
        for k, v in vars(w).items()
    }


@given(steps=st.lists(_steps, max_size=30))
def test_indexes_match_scans_after_every_step(steps):
    w = WorldState().with_network("fb").with_network("li")
    w = w.with_purpose("fb", "analytics").with_purpose("li", "analytics")
    w = w.with_member("svcA", "fb").with_member("svcB", "fb").with_member("svcC", "li")
    w = w.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "addr0"))
    w = w.with_detail(Detail("vault", "svcA", "fb", Privacy.PRIVATE, "secret0"))
    for step in steps:
        before = _frozen_view(w)
        try:
            result = _apply(w, step)
        except EngineError:
            result = None
        # No step, breach or not, changes the value it was given.
        assert _frozen_view(w) == before
        if _must_breach(w, step):
            assert isinstance(result, Violation)
        if isinstance(result, WorldState):
            w = result
        assert _answers(w) == _scanned(w)
        rebuilt = _rebuilt(w)
        assert rebuilt == w
        assert _answers(rebuilt) == _answers(w)


# -- versions ------------------------------------------------------------------------------

def _outcome(w: WorldState, step):
    try:
        return _apply(w, step)
    except EngineError:
        return None


def _check_version(w: WorldState, plain: dict):
    assert _plain(w) == plain
    assert [w.records_for(k) for k in _KEYS] == [
        tuple(r for r in plain["collections"] if r.detail_key == k) for k in _KEYS
    ]


@settings(deadline=None)
@given(steps=st.lists(_steps, max_size=15), data=st.data())
def test_older_versions_read_and_write_as_themselves(steps, data):
    # Every write is repeated on a world built afresh from the reference's
    # plain copy, so the reference never shares a versioned value.
    w = WorldState().with_network("fb").with_network("li")
    w = w.with_purpose("fb", "analytics").with_purpose("li", "analytics")
    w = w.with_member("svcA", "fb").with_member("svcB", "fb").with_member("svcC", "li")
    w = w.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "addr0"))
    worlds, plains = [w], [_plain(w)]

    def write(i, step):
        result = _outcome(worlds[i], step)
        expected = _outcome(WorldState(**plains[i]), step)
        if isinstance(expected, WorldState):
            assert isinstance(result, WorldState)
            worlds.append(result)
            plains.append(_plain(expected))
            _check_version(result, plains[-1])
        else:
            assert result == expected

    for step in steps:
        write(len(worlds) - 1, step)
    version = st.integers(0, len(worlds) - 1)
    for _ in range(data.draw(st.integers(0, 20), label="visits")):
        i = data.draw(version, label="version")
        action = data.draw(st.sampled_from(("read", "write", "compare")), label="action")
        if action == "read":
            _check_version(worlds[i], plains[i])
        elif action == "write":
            write(i, data.draw(_steps, label="step"))
        else:
            j = data.draw(version, label="other")
            assert (worlds[i] == worlds[j]) == (plains[i] == plains[j])
    # The newest version after the oldest was rerooted, and back.
    _check_version(worlds[0], plains[0])
    _check_version(worlds[-1], plains[-1])
    _check_version(worlds[0], plains[0])


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_writes_allocate_independently_of_world_size():
    # A copy of ``details`` or of the records index would allocate hundreds
    # of KiB at this size; one write needs about one KiB.
    n = 20_000
    keys = [f"d{i}" for i in range(n)]
    w = WorldState(
        networks=frozenset({"fb"}),
        members=frozenset({("svcA", "fb"), ("svcB", "fb")}),
        details={k: Detail(k, "svcA", "fb", Privacy.PUBLIC, "v0") for k in keys},
        collections=tuple(CollectionRecord(k, "svcB", "analytics", 0, "v0") for k in keys),
        purposes={"fb": frozenset({"analytics"})},
    )
    budget = 16 * 1024
    assert _peak_bytes(lambda: exec_post(w, "svcA", "d7", True, t=1, value="v1")) <= budget
    assert _peak_bytes(lambda: exec_collect(w, "svcB", "d7", "analytics", t=1)) <= budget
    new = Detail("fresh", "svcA", "fb", Privacy.PUBLIC, "v0")
    assert _peak_bytes(lambda: w.with_detail(new)) <= budget
