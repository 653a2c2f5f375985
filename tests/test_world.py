"""World state and the five responsibility checks."""

from __future__ import annotations

import copy
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from commitsched.errors import (
    AlreadyMember,
    DuplicateAssignment,
    DuplicateDetail,
    EngineError,
    IllegalStatusChange,
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
    detail = small_world.details["email"]
    assert exec_collect(small_world, "svcB", "email", "analytics", t=3) is None
    assert small_world.latest_approval == {"email": 3}
    assert small_world.details["email"] is detail  # a collect leaves the detail alone


def test_collect_invalid_purpose(small_world):
    result = exec_collect(small_world, "svcB", "email", "spam", t=0)
    assert result == Violation(Responsibility.RESP1, "invalid-purpose")


def test_collect_nonmember(small_world):
    result = exec_collect(small_world, "outsider", "email", "analytics", t=0)
    assert result == Violation(Responsibility.RESP1, "collector-not-member")


def test_collect_unknown_detail(small_world):
    with pytest.raises(UnknownDetail):
        exec_collect(small_world, "svcB", "ghost", "analytics", t=0)
    with pytest.raises(UnknownDetail):
        small_world.with_collection("ghost", 0)
    assert small_world.latest_approval == {}


# -- post --------------------------------------------------------------------

def test_post_updates_value(small_world):
    assert exec_post(small_world, "svcB", "email", True, t=2, value="addr1") is None
    assert small_world.details["email"].value == "addr1"
    assert small_world.details["email"].owner == "svcA"  # ownership survives updates


def test_post_untrue_is_violation(small_world):
    result = exec_post(small_world, "svcB", "email", False, t=2)
    assert result == Violation(Responsibility.RESP2, "untrue-content")


def test_post_nonmember_is_violation(small_world):
    result = exec_post(small_world, "outsider", "email", True, t=2)
    assert result == Violation(Responsibility.RESP2, "poster-not-member")


def test_post_creates_detail(small_world):
    assert exec_post(small_world, "svcB", "story", True, t=4, network="fb", value="v0") is None
    d = small_world.details["story"]
    assert (d.key, d.owner, d.network, d.privacy, d.value) == (
        "story", "svcB", "fb", Privacy.PUBLIC, "v0"
    )


def test_post_default_value_token(small_world):
    assert exec_post(small_world, "svcB", "email", True, t=7) is None
    assert small_world.details["email"].value == "svcB@t7"


def test_post_without_network_for_fresh_key(small_world):
    with pytest.raises(UnknownNetwork):
        exec_post(small_world, "svcB", "story", True, t=0)


# -- tamper ---------------------------------------------------------------------

def _with_record(w: WorldState, t: int = 0) -> WorldState:
    assert exec_collect(w, "svcB", "email", "analytics", t=t) is None
    return w


def test_tamper_after_collection(small_world):
    result = exec_tamper_guard(_with_record(small_world), "email")
    assert result == Violation(Responsibility.RESP3, "tamper-after-collection")


def test_tamper_without_collection(small_world):
    before = _snapshot(small_world)
    assert exec_tamper_guard(small_world, "email") is None
    assert vars(small_world) == before  # the guard writes nothing
    with pytest.raises(UnknownDetail):  # a missing detail is still an error
        exec_tamper_guard(small_world, "ghost")


def test_repeated_tampers_leave_snapshot_alone(small_world):
    w = _with_record(small_world)
    detail = w.details["email"]
    for _ in range(2):
        result = exec_tamper_guard(w, "email")
        assert result == Violation(Responsibility.RESP3, "tamper-after-collection")
    assert w.details["email"] is detail
    assert w.latest_approval == {"email": 0}


def test_snapshot_survives_later_posts(small_world):
    w = _with_record(small_world)
    assert exec_post(w, "svcB", "email", True, t=1, value="changed") is None
    assert w.details["email"].value == "changed"
    assert w.latest_approval == {"email": 0}  # a post neither adds nor drops an approval
    assert exec_tamper_guard(w, "email") == Violation(
        Responsibility.RESP3, "tamper-after-collection"
    )


# -- signoff -----------------------------------------------------------------------

def test_signoff_with_terminal_assignments(small_world):
    w = small_world
    w.with_assignment(Assignment("a1", "svcB"))
    w.with_finished_assignment("a1", AssignmentStatus.COMPLETE)
    w.with_assignment(Assignment("a2", "svcB"))
    w.with_finished_assignment("a2", AssignmentStatus.FAILED)
    assert exec_signoff(w, "svcB") == ("fb",)
    assert not w.has_any_membership("svcB")
    assert not w.is_member("svcB", "fb")


def test_signoff_blocked_by_ongoing(small_world):
    w = small_world
    w.with_assignment(Assignment("a1", "svcB"))
    w.with_assignment(Assignment("a2", "svcB"))
    w.with_assignment(Assignment("a3", "svcB"))
    w.with_finished_assignment("a2", AssignmentStatus.COMPLETE)
    result = exec_signoff(w, "svcB")
    assert result == Violation(
        Responsibility.RESP4, "ongoing-assignments", items=("a1", "a3")
    )
    assert w.has_any_membership("svcB")


def test_signoff_unknown_service(small_world):
    with pytest.raises(UnknownService):
        exec_signoff(small_world, "outsider")


# -- reveal -------------------------------------------------------------------------

def test_reveal_to_member(small_world):
    assert exec_reveal(small_world, "email", "svcB", t=0) == "addr0"


def test_reveal_public_within_ttl(small_world):
    small_world.with_ttl(5)
    w = _with_record(small_world, t=0)
    assert exec_reveal(w, "email", "outsider", t=5) == "addr0"


def test_reveal_public_expired(small_world):
    small_world.with_ttl(5)
    w = _with_record(small_world, t=0)
    result = exec_reveal(w, "email", "outsider", t=6)
    assert result == Violation(Responsibility.RESP5, "authorization-expired")
    # A newer approval authorizes again; an older one added later does not expire it.
    w = _with_record(w, t=4)
    w.with_collection("email", 0)
    assert exec_reveal(w, "email", "outsider", t=9) == "addr0"
    assert isinstance(exec_reveal(w, "email", "outsider", t=10), Violation)


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


def _base_world() -> WorldState:
    w = WorldState()
    for network in ("fb", "li"):
        w.with_network(network)
        w.with_purpose(network, "analytics")
    for service, network in (("svcA", "fb"), ("svcB", "fb"), ("svcC", "li")):
        w.with_member(service, network)
    w.with_detail(Detail("email", "svcA", "fb", Privacy.PUBLIC, "addr0"))
    w.with_detail(Detail("vault", "svcA", "fb", Privacy.PRIVATE, "secret0"))
    return w


@given(first=st.integers(0, 50), gap=st.integers(1, 50))
def test_reveal_violations_are_monotone(first, gap):
    # Once expired for a non-member, it stays expired at every later tick.
    w = _base_world()
    w.with_ttl(3)
    w = _with_record(w, t=0)
    early = exec_reveal(w, "email", "outsider", t=first)
    late = exec_reveal(w, "email", "outsider", t=first + gap)
    if isinstance(early, Violation):
        assert isinstance(late, Violation)


# -- assignments / status -------------------------------------------------------------

def test_status_lifecycle(small_world):
    w = small_world
    w.with_assignment(Assignment("a1", "svcB"))
    assert w.assignment("a1").status is AssignmentStatus.ONGOING
    assert w.ongoing_assignments("svcB") == ("a1",)
    w.with_finished_assignment("a1", AssignmentStatus.COMPLETE)
    assert w.assignment("a1").status is AssignmentStatus.COMPLETE
    assert w.ongoing_assignments("svcB") == ()


def test_status_unknown(small_world):
    with pytest.raises(UnknownAssignment):
        small_world.assignment("ghost").status


def test_finish_twice_rejected(small_world):
    w = small_world
    w.with_assignment(Assignment("a1", "svcB"))
    w.with_finished_assignment("a1", AssignmentStatus.COMPLETE)
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
    small_world.with_assignment(Assignment("a1", "svcB"))
    with pytest.raises(DuplicateAssignment):
        small_world.with_assignment(Assignment("a1", "svcA"))


def test_double_membership_rejected(small_world):
    with pytest.raises(AlreadyMember):
        small_world.with_member("svcA", "fb")


# -- violation atomicity -----------------------------------------------------------------

def _snapshot(w: WorldState) -> dict:
    """A deep copy of every attribute of the store, indexes included."""
    return copy.deepcopy(vars(w))


def test_violations_leave_world_untouched(small_world):
    w = _with_record(small_world)
    w.with_assignment(Assignment("a1", "svcA"))
    cases = [
        lambda: exec_collect(w, "svcB", "email", "spam", t=0),
        lambda: exec_collect(w, "outsider", "email", "analytics", t=0),
        lambda: exec_post(w, "svcB", "email", False, t=0),
        lambda: exec_post(w, "outsider", "email", True, t=0),
        lambda: exec_tamper_guard(w, "email"),
        lambda: exec_signoff(w, "svcA"),
        lambda: exec_reveal(w, "vault", "outsider", t=0),
        lambda: exec_reveal(w, "email", "outsider", t=10_000),
    ]
    before = _snapshot(w)
    for case in cases:
        assert isinstance(case(), Violation)
        assert vars(w) == before


# -- indexes ------------------------------------------------------------------------------

_SERVICES = ("svcA", "svcB", "svcC", "outsider")
_NETWORKS = ("fb", "li")
_KEYS = ("email", "vault", "story")
_IDS = ("a1", "a2", "a3")
_ticks = st.integers(0, 8)

_steps = st.one_of(
    st.tuples(st.just("member"), st.sampled_from(_SERVICES), st.sampled_from(_NETWORKS)),
    st.tuples(st.just("leave"), st.sampled_from(_SERVICES)),
    st.tuples(
        st.just("detail"), st.sampled_from(_KEYS), st.sampled_from(_SERVICES),
        st.sampled_from(_NETWORKS), st.sampled_from(list(Privacy)),
    ),
    st.tuples(st.just("record"), st.sampled_from(_KEYS), _ticks),
    st.tuples(st.just("assignment"), st.sampled_from(_IDS), st.sampled_from(_SERVICES)),
    st.tuples(
        st.just("finish"), st.sampled_from(_IDS), st.sampled_from(list(AssignmentStatus))
    ),
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
    """Run one step on ``w``; a passed check applies its own write.

    Returns the check's result (a ``Violation``, a reveal's value, ...) or None.
    """
    op, *args = step
    if op == "member":
        return w.with_member(*args)
    if op == "leave":
        return w.without_memberships(*args)
    if op == "detail":
        key, owner, network, privacy = args
        return w.with_detail(Detail(key, owner, network, privacy, f"{key}0"))
    if op == "record":
        return w.with_collection(*args)
    if op == "assignment":
        return w.with_assignment(Assignment(*args))
    if op == "finish":
        return w.with_finished_assignment(*args)
    if op == "collect":
        return exec_collect(w, *args)
    if op == "post":
        poster, key, veracity, network, t = args
        return exec_post(w, poster, key, veracity, t, network=network)
    if op == "tamper":
        return exec_tamper_guard(w, *args)
    if op == "signoff":
        return exec_signoff(w, *args)
    key, requester, t = args
    return exec_reveal(w, key, requester, t)


def _must_breach(w: WorldState, approvals: list[tuple[str, int]], step) -> bool:
    """True for the steps whose input alone shows a breached responsibility."""
    op, *args = step
    if op == "collect":
        _, key, purpose, _ = args
        return key in w.details and purpose == "spam"
    if op == "post":
        return not args[2]
    if op == "tamper":
        key = args[0]
        return key in w.details and any(k == key for k, _ in approvals)
    if op == "signoff":
        svc = args[0]
        return bool(w.member_networks(svc)) and any(
            a.service == svc and a.status is AssignmentStatus.ONGOING
            for a in w.assignments.values()
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


def _follow(
    pairs: set[tuple[str, str]], approvals: list[tuple[str, int]], step, result
) -> None:
    """Apply a step that passed to ``pairs``, the (service, network) memberships,
    and to ``approvals``, the (detail key, tick) of every approved collection."""
    op, *args = step
    if op == "member":
        pairs.add(tuple(args))
    elif op == "leave" or (op == "signoff" and not isinstance(result, Violation)):
        pairs.difference_update({p for p in pairs if p[0] == args[0]})
    elif op == "record":
        approvals.append(tuple(args))
    elif op == "collect" and result is None:
        approvals.append((args[1], args[3]))


def _answers(w: WorldState):
    """What the indexes say about every service and detail key."""
    return (
        [(w.has_any_membership(s), w.member_networks(s)) for s in _SERVICES],
        {k: w.latest_approval[k] for k in _KEYS if k in w.latest_approval},
        [w.ongoing_assignments(s) for s in _SERVICES],
    )


def _scanned(
    w: WorldState, pairs: set[tuple[str, str]], approvals: list[tuple[str, int]]
):
    """The same answers, from the memberships and approvals applied and a scan
    of the assignments."""
    return (
        [
            (
                any(s == svc for s, _ in pairs),
                tuple(sorted(n for s, n in pairs if s == svc)),
            )
            for svc in _SERVICES
        ],
        {
            k: max(t for key, t in approvals if key == k)
            for k in _KEYS
            if any(key == k for key, _ in approvals)
        },
        [
            tuple(
                a.id for a in w.assignments.values()
                if a.service == s and a.status is AssignmentStatus.ONGOING
            )
            for s in _SERVICES
        ],
    )


@given(steps=st.lists(_steps, max_size=30))
def test_indexes_match_scans_after_every_step(steps):
    w = _base_world()
    pairs = {("svcA", "fb"), ("svcB", "fb"), ("svcC", "li")}
    approvals: list[tuple[str, int]] = []  # the test's own log; the store keeps none
    for step in steps:
        before = _snapshot(w)
        # Judged on the store the step runs on: a passed step may change it.
        must = _must_breach(w, approvals, step)
        try:
            result = _apply(w, step)
        except EngineError:
            # A write validates before it changes anything.
            assert vars(w) == before
            assert not must
            continue
        if must:
            assert isinstance(result, Violation)
        if isinstance(result, Violation) or step[0] == "tamper":
            assert vars(w) == before  # the tamper guard writes nothing either way
        _follow(pairs, approvals, step, result)
        assert _answers(w) == _scanned(w, pairs, approvals)


# -- cost at size ------------------------------------------------------------------------

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
    # At this size a copy of any collection or index the write touches
    # would allocate hundreds of KiB; one write or check needs under one KiB.
    n = 20_000
    w = WorldState()
    w.with_network("fb")
    w.with_purpose("fb", "analytics")
    for i in range(n):
        w.with_member(f"s{i}", "fb")
    for i in range(n):
        w.with_detail(Detail(f"d{i}", "s0", "fb", Privacy.PUBLIC, "v0"))
        w.with_collection(f"d{i}", 0)
    w.with_detail(Detail("hot", "s0", "fb", Privacy.PUBLIC, "v0"))
    for _ in range(n):  # one detail approved n times
        w.with_collection("hot", 0)
    for i in range(n):
        w.with_assignment(Assignment(f"a{i}", "s2"))
    w.with_assignment(Assignment("c0", "s3"))

    def collect():
        assert exec_collect(w, "s1", "hot", "analytics", t=1) is None

    def sign_off():
        assert exec_signoff(w, "s7") == ("fb",)

    budget = 16 * 1024
    writes = {
        "post": lambda: exec_post(w, "s0", "d7", True, t=1, value="v1"),
        "collect": collect,
        "new detail": lambda: w.with_detail(Detail("fresh", "s0", "fb", Privacy.PUBLIC, "v0")),
        "new member": lambda: w.with_member("newcomer", "fb"),
        "new assignment": lambda: w.with_assignment(Assignment("b0", "s2")),
        "finish": lambda: w.with_finished_assignment("a7", AssignmentStatus.COMPLETE),
        "expired reveal": lambda: exec_reveal(w, "hot", "outsider", t=10_000),
        "blocked sign-off": lambda: exec_signoff(w, "s3"),
        "sign-off": sign_off,
    }
    for name, call in writes.items():
        assert _peak_bytes(call) <= budget, name
    assert len(w.latest_approval) == n + 1 and w.latest_approval["hot"] == 1
    assert w.details["d7"].value == "v1" and not w.has_any_membership("s7")
    assert w.ongoing_assignments("s2")[-1] == "b0"
