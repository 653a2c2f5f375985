"""End-to-end scenario runs: registration gate, traces, monitoring."""

from __future__ import annotations

import copy

import pytest

from commitsched.errors import AlreadyMember, ScenarioRuntimeError, UnknownNetwork
from commitsched.model import Privacy
from commitsched.scenario import COMMANDS, Command, Scenario, parse
from commitsched.scheduler import Policy
from commitsched.scenarios import load_text
from commitsched.simulator import _HANDLERS, register, run
from commitsched.trace import EventKind, replay_counts
from commitsched.world import WorldState


def _run_text(text: str, **kwargs):
    return run(parse(text), **kwargs)


PREAMBLE = """\
network fb
purpose fb analytics
signup owner fb accept
signup alpha fb accept
signup beta fb accept
detail wall owner fb public seed
"""


# -- registration -----------------------------------------------------------

def _one_network() -> WorldState:
    w = WorldState()
    w.with_network("fb")
    return w


def test_register_accept_adds_membership():
    w = _one_network()
    event = register(w, "svcA", "fb", accept=True, clock=0)
    assert w.is_member("svcA", "fb")
    assert event.kind is EventKind.REGISTERED


def test_register_reject_leaves_world():
    w = _one_network()
    before = copy.deepcopy(vars(w))
    event = register(w, "svcA", "fb", accept=False, clock=0)
    assert vars(w) == before
    assert event.kind is EventKind.REJECTED
    # A rejection is still validated, and a failed one writes nothing either.
    with pytest.raises(UnknownNetwork, match="no network 'gplus'"):
        register(w, "svcA", "gplus", accept=False, clock=0)
    with pytest.raises(UnknownNetwork, match="no network 'gplus'"):
        register(w, "svcA", "gplus", accept=True, clock=0)
    assert vars(w) == before
    w.with_member("svcA", "fb")
    with pytest.raises(AlreadyMember, match="'svcA' is already a member of 'fb'"):
        register(w, "svcA", "fb", accept=False, clock=0)


def test_register_twice_fails():
    result = _run_text("network fb\nsignup a fb accept\n")
    for second in ("accept", "reject"):
        with pytest.raises(ScenarioRuntimeError) as err:
            run(parse(f"network fb\nsignup a fb accept\nsignup a fb {second}\n"))
        assert err.value.line == 3
    assert result.world.is_member("a", "fb")


def test_unregistered_service_cannot_submit():
    text = PREAMBLE + "submit c1 ghost post wall true x\n"
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text(text)
    assert "ghost" in str(err.value)


def test_rejected_service_cannot_submit():
    text = (
        "network fb\nsignup owner fb accept\n"
        "detail wall owner fb public seed\n"
        "signup shady fb reject\n"
        "submit c1 shady post wall true x\n"
    )
    with pytest.raises(ScenarioRuntimeError, match="'shady' is a member of no network"):
        _run_text(text)


def test_every_scenario_command_has_a_handler():
    assert set(_HANDLERS) == set(COMMANDS)


def test_unknown_command_names_its_line():
    scenario = Scenario((Command("network", 1, ("fb",)), Command("withdraw", 3, ())))
    with pytest.raises(ScenarioRuntimeError) as err:
        run(scenario)
    assert err.value.line == 3
    assert err.value.command == "withdraw"
    assert "unknown command 'withdraw'" in str(err.value)


# -- rule traces ----------------------------------------------------------------

def test_two_readers_share_a_tick():
    text = PREAMBLE + (
        "submit r1 alpha collect wall owner analytics\n"
        "submit r2 beta collect wall owner analytics\n"
    )
    trace = _run_text(text).trace
    kinds = [e.kind for e in trace.events]
    assert kinds.count(EventKind.ACTIVATED) == 2
    assert EventKind.WAITING not in kinds
    assert len({e.clock for e in trace.events if e.kind is EventKind.ACTIVATED}) == 1


def test_writer_blocks_reader_until_complete():
    text = PREAMBLE + (
        "submit w1 alpha post wall true v1\n"
        "tick\n"
        "submit r2 beta collect wall owner analytics\n"
        "tick\n"
        "complete w1\n"
    )
    lines = _run_text(text).trace.lines()
    assert "t=1 Waiting r2 service=beta blockers=w1" in lines
    assert lines.index("t=2 Completed w1 service=alpha") < lines.index(
        "t=2 Activated r2 service=beta"
    )


def test_policy_override_wins():
    text = "policy priority\n" + PREAMBLE
    result = _run_text(text, policy_override=Policy.FCFS)
    assert result.scheduler.policy is Policy.FCFS


def test_restating_the_policy_with_a_queue_is_allowed():
    text = (
        "network fb\npurpose fb analytics\nsignup a fb accept\nsignup b fb accept\n"
        "detail d a fb public v0\nsubmit w1 a post d true\nsubmit w2 b post d true\n"
        "policy fcfs\n"
    )
    result = _run_text(text)
    assert result.scheduler.policy is Policy.FCFS
    assert "t=0 Waiting w2 service=b blockers=w1" in result.trace.lines()
    with pytest.raises(ScenarioRuntimeError) as err:  # a change of policy still waits
        _run_text(text.replace("policy fcfs", "policy priority"))
    assert err.value.line == 8
    assert "cannot switch policy with queued commitments" in str(err.value)


# -- clock ------------------------------------------------------------------------

def test_clock_advances_only_on_tick():
    text = PREAMBLE + "tick 3\nsubmit w1 alpha post wall true v\ntick\ncomplete w1\n"
    trace = _run_text(text).trace
    submitted = next(e for e in trace.events if e.kind is EventKind.SUBMITTED)
    assert submitted.clock == 3
    assert trace.final_clock == 4


# -- guards -------------------------------------------------------------------------

def test_closed_guard_rejects_submission():
    text = PREAMBLE + (
        "guard market false\n"
        "submit c1 alpha post wall true v if=market\n"
    )
    trace = _run_text(text).trace
    rejected = [e for e in trace.events if e.kind is EventKind.REJECTED]
    assert len(rejected) == 1
    assert rejected[0].subject == "c1"
    assert dict(rejected[0].attrs)["guard"] == "market"
    assert all(e.kind is not EventKind.ACTIVATED for e in trace.events)


def test_unset_guard_counts_as_closed():
    text = PREAMBLE + "submit c1 alpha post wall true v if=market\n"
    trace = _run_text(text).trace
    assert any(e.kind is EventKind.REJECTED for e in trace.events)


def test_open_guard_lets_submission_through():
    text = PREAMBLE + (
        "guard market true\n"
        "submit c1 alpha post wall true v if=market\n"
        "complete c1\n"
    )
    trace = _run_text(text).trace
    assert any(e.kind is EventKind.ACTIVATED for e in trace.events)


def test_guard_rejection_consumes_the_id():
    text = PREAMBLE + (
        "guard market false\n"
        "submit c1 alpha post wall true v if=market\n"
        "guard market true\n"
        "submit c1 alpha post wall true v if=market\n"
    )
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text(text)
    assert "already used" in str(err.value)


# -- violations and cascades -----------------------------------------------------------

def test_violation_releases_scope_for_waiters():
    # Governance runs at activation, so a waiter can only sit behind a
    # violator that was itself queued: w1 and w2 queue behind the honest w0,
    # and completing w0 activates w1, whose breach activates w2.
    text = PREAMBLE + (
        "submit w0 owner post wall true v0\n"
        "submit w1 alpha post wall false lie\n"  # violates resp2 at activation
        "submit w2 beta post wall true fix\n"
        "tick\ncomplete w0\n"
        "tick\ncomplete w2\n"
    )
    lines = _run_text(text).trace.lines()
    violation = "t=1 Violation w1 service=alpha resp=resp2 reason=untrue-content"
    assert violation in lines
    assert "t=1 Activated w2 service=beta" in lines
    # w2 waited first: its submission decision preceded the violation.
    assert lines.index("t=0 Waiting w2 service=beta blockers=w0,w1") < lines.index(
        violation
    )
    # The violation is what released the scope to w2.
    assert lines.index(violation) < lines.index("t=1 Activated w2 service=beta")


def test_tamper_without_collection_degrades_to_write():
    text = PREAMBLE + "submit t1 alpha tamper wall forged\ntick\ncomplete t1\n"
    result = _run_text(text)
    assert result.trace.ok
    assert result.world.details["wall"].value == "forged"


def test_tamper_after_collection_violates():
    text = PREAMBLE + (
        "submit r1 alpha collect wall owner analytics\n"
        "tick\ncomplete r1\n"
        "submit t1 beta tamper wall forged\n"
    )
    result = _run_text(text)
    violations = [e for e in result.trace.events if e.kind is EventKind.VIOLATION]
    assert len(violations) == 1
    assert dict(violations[0].attrs)["resp"] == "resp3"
    assert result.world.details["wall"].value == "seed"


def test_signoff_removes_membership_and_gates_future_submits():
    text = PREAMBLE + (
        "submit s1 alpha signoff alpha\n"
        "tick\ncomplete s1\n"
        "submit c2 alpha post wall true v\n"
    )
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text(text)
    assert err.value.line == 10
    assert "'alpha' is a member of no network" in str(err.value)


def test_signoff_waits_for_writes_on_owned_details():
    # A sign-off by the owner queues behind an active post on its detail.
    text = PREAMBLE + (
        "submit w1 alpha post wall true v\n"
        "tick\n"
        "submit s1 owner signoff owner\n"
        "tick\n"
        "complete w1\n"
        "tick\n"
        "complete s1\n"
    )
    lines = _run_text(text).trace.lines()
    assert "t=1 Waiting s1 service=owner blockers=w1" in lines
    assert "t=2 Activated s1 service=owner" in lines
    assert "t=2 SignedOff owner network=fb" in lines


# -- store writes ----------------------------------------------------------------------

def _record_store_writes(monkeypatch) -> list[str]:
    """The names of the ``WorldState`` writes made from now on, in call order."""
    calls: list[str] = []

    def recorded(name, write):
        def call(*args):
            calls.append(name)
            return write(*args)

        return call

    for name, write in list(vars(WorldState).items()):
        if name.startswith(("with_", "without_")):
            monkeypatch.setattr(WorldState, name, recorded(name, write))
    return calls


def test_each_passed_action_makes_one_store_write(monkeypatch):
    setup = PREAMBLE + (
        "detail note owner fb public n0\n"
        "detail vault owner fb private s0\n"
        "signup gamma fb accept\n"
        "assignment a1 beta\n"
    )
    actions = (
        "submit c1 alpha collect wall owner analytics\ncomplete c1\n"
        "submit p1 alpha post wall true v1\ncomplete p1\n"
        "submit p2 alpha post story true v2\ncomplete p2\n"
        "submit t1 beta tamper note forged\ncomplete t1\n"  # note was never collected
        "submit s1 gamma signoff gamma\ncomplete s1\n"
        "submit r1 beta reveal wall alpha\ncomplete r1\n"
        "submit x1 alpha collect wall owner spam\n"
        "submit x2 alpha post wall false lie\n"
        "submit x3 beta tamper wall forged\n"
        "submit x4 beta signoff beta\n"
        "submit x5 alpha reveal vault outsider\n"
    )
    calls = _record_store_writes(monkeypatch)
    run(parse(setup))
    setup_writes = len(calls)
    calls.clear()
    result = run(parse(setup + actions))
    assert calls[setup_writes:] == [
        "with_collection",
        "with_detail_value",
        "with_detail",
        "with_detail_value",
        "without_memberships",
    ]
    violations = [
        (e.subject, dict(e.attrs)["resp"])
        for e in result.trace.events
        if e.kind is EventKind.VIOLATION
    ]
    assert violations == [(f"x{i}", f"resp{i}") for i in range(1, 6)]


# -- assignment commands -----------------------------------------------------------------

def test_assign_requires_registered_service():
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text("network fb\nassign ghost resp1\n")
    assert str(err.value) == (
        "line 2 (assign): cannot assign responsibilities: 'ghost' is a member of no network"
    )


def test_assign_after_signoff_names_no_network():
    text = (
        "network fb\nsignup a fb accept\n"
        "detail wall a fb public seed\n"
        "submit s1 a signoff a\ntick\ncomplete s1\n"
        "assign a resp1\n"
    )
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text(text)
    assert str(err.value) == (
        "line 7 (assign): cannot assign responsibilities: 'a' is a member of no network"
    )


def test_assign_emits_event():
    trace = _run_text(
        "network fb\nsignup a fb accept\nassign a resp2\n"
    ).trace
    assigned = [e for e in trace.events if e.kind is EventKind.ASSIGNED]
    assert len(assigned) == 1
    assert dict(assigned[0].attrs)["resp"] == "resp2"


def test_finish_assignment_flow():
    text = (
        "network fb\nsignup a fb accept\n"
        "assignment a1 a\nfinish-assignment a1 complete\n"
        "submit s1 a signoff a\n"
    )
    result = _run_text(text)
    assert result.trace.ok


# -- runtime errors ------------------------------------------------------------------------

def test_runtime_error_carries_line():
    text = PREAMBLE + "complete ghost\n"
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text(text)
    assert err.value.line == len(PREAMBLE.splitlines()) + 1


def test_complete_of_queued_commitment_is_rejected():
    # Only active commitments retire; a queued one has no move to Completed.
    text = PREAMBLE + (
        "submit w1 alpha post wall true v\n"
        "submit r1 beta collect wall owner analytics\n"
        "complete r1\n"
    )
    with pytest.raises(ScenarioRuntimeError) as err:
        _run_text(text)
    line = len(PREAMBLE.splitlines()) + 3
    assert err.value.line == line
    assert str(err.value) == f"line {line} (complete): no active commitment 'r1'"


def test_unknown_detail_at_submission():
    text = PREAMBLE + "submit c1 alpha collect ghost owner analytics\n"
    with pytest.raises(ScenarioRuntimeError):
        _run_text(text)


@pytest.mark.parametrize("args", ["tamper ghost v", "reveal ghost beta"], ids=["tamper", "reveal"])
def test_tamper_or_reveal_of_unknown_detail_at_submission(args):
    text = PREAMBLE + f"submit c1 alpha {args}\n"
    with pytest.raises(ScenarioRuntimeError, match="no detail 'ghost'"):
        _run_text(text)


def test_post_with_explicit_priority_may_create_detail():
    text = PREAMBLE + "submit c1 alpha post story true v0 prio=2\ntick\ncomplete c1\n"
    result = _run_text(text)
    assert result.world.details["story"].value == "v0"
    assert result.world.details["story"].owner == "alpha"
    assert result.world.details["story"].network == "fb"


def test_post_to_a_fresh_key_creates_a_public_detail():
    text = (
        "network zeta\nnetwork alpha\npurpose alpha use\n"
        "signup poster zeta accept\nsignup poster alpha accept\n"
        "submit p1 poster post fresh true\ntick\ncomplete p1\n"
        "submit c1 poster collect fresh poster use\ntick\ncomplete c1\n"
    )
    result = _run_text(text)
    assert result.trace.ok
    lines = result.trace.lines()
    assert "t=0 Submitted p1 service=poster verb=post target=fresh access=writer prio=0" in lines
    assert "t=1 Submitted c1 service=poster verb=collect target=fresh access=reader prio=0" in lines
    detail = result.world.details["fresh"]
    # Created in the poster's first network by name, where the collect's purpose is valid.
    assert (detail.privacy, detail.owner, detail.network) == (Privacy.PUBLIC, "poster", "alpha")


def test_later_post_to_a_created_detail_ranks_public():
    """The detail a fresh-key post creates is public, so the next post derives prio=0 from it."""
    text = PREAMBLE + (
        "submit p1 alpha post fresh true v1\ntick\ncomplete p1\n"
        "submit p2 beta post fresh true v2\ntick\ncomplete p2\n"
    )
    result = _run_text(text)
    assert result.trace.ok
    assert "t=1 Submitted p2 service=beta verb=post target=fresh access=writer prio=0" in (
        result.trace.lines()
    )
    detail = result.world.details["fresh"]
    assert (detail.owner, detail.privacy, detail.value) == ("alpha", Privacy.PUBLIC, "v2")


# -- determinism and monitoring --------------------------------------------------------------

def test_trace_determinism_on_demo():
    demo = parse(load_text("four-network-demo"), source="four-network-demo")
    assert run(demo).trace.text() == run(demo).trace.text()


def test_snapshot_matches_trace_fold():
    text = PREAMBLE + (
        "submit w1 alpha post wall true v\n"
        "submit w2 beta post wall true v2\n"
        "tick\n"
        "complete w1 failed\n"
        "snapshot\n"
        "submit r1 alpha collect wall owner analytics\n"
        "snapshot\n"  # r1 waits behind the active writer w2
        # A queued commitment cannot be completed: w2 must retire first.
        "tick\ncomplete w2\ncomplete r1\nsnapshot\n"
    )
    trace = _run_text(text).trace
    compared = 0
    for idx, event in enumerate(trace.events):
        if event.kind is not EventKind.SNAPSHOT:
            continue
        compared += 1
        folded = replay_counts(trace.events[:idx])
        attrs = dict(event.attrs)
        rebuilt: dict[str, dict[str, int]] = {}
        for key, value in attrs.items():
            if key == "queue":
                continue
            service, state = key.split(".")
            rebuilt.setdefault(service, {})[state] = int(value)
        assert rebuilt == folded
    assert compared == text.count("snapshot\n") == 3


def test_end_line_reports_ok():
    good = _run_text(PREAMBLE).trace
    assert good.lines()[-1].endswith("END ok=true")
    bad = _run_text(PREAMBLE + "submit c1 alpha post wall false lie\n").trace
    assert bad.lines()[-1].endswith("END ok=false")
