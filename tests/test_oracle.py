"""The specification's predicates, and the two drivers that check the real
scheduler against them: the exhaustive walk of small instances and random
long runs."""

from __future__ import annotations

import ast
import traceback
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.errors import HypothesisException

from commitsched import equivalence, oracle, scheduler
from commitsched.cli import main
from commitsched.equivalence import (
    COLLECT,
    OWNER_SLOTS,
    POST,
    SIGNOFF,
    TARGET_SLOTS,
    GridReport,
    run_grid,
    slot_commitment,
)
from commitsched.errors import UnknownId
from commitsched.model import ACCESS_FOR_VERB, AccessClass, LifecycleState, Verb
from commitsched.oracle import _contend, admission_fault, drain_fault
from commitsched.scheduler import DecisionKind, Policy

from conftest import any_commitment, make_commitment


def R(cid, target="d", prio=0, arr=0, owner=None):
    return slot_commitment(cid, COLLECT, target, prio, arr, owner)


def W(cid, target="d", prio=0, arr=0, owner=None):
    return slot_commitment(cid, POST, target, prio, arr, owner)


def S(cid, service="s", arr=0):
    return slot_commitment(cid, SIGNOFF, service, 0, arr)


def _admitted(c, active, queued, blockers):
    """``admission_fault`` of ``c`` given the decision and the state it implies."""
    after = (active, (*queued, c)) if blockers else ((*active, c), queued)
    return admission_fault(c, (active, queued), blockers, after)


# -- contention --------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_contend_is_symmetric(data):
    a, b = any_commitment(data, "a"), any_commitment(data, "b")
    assert _contend(a, b) == _contend(b, a)


def test_on_one_detail_contention_is_one_of_them_writing():
    detail_verbs = [v for v in Verb if v is not Verb.SIGNOFF]  # sign-off targets a service
    for va, vb in product(detail_verbs, repeat=2):
        a = make_commitment("a", verb=va, target="d", debtor="svcA")
        b = make_commitment("b", verb=vb, target="d", debtor="svcB")
        assert _contend(a, b) == (AccessClass.WRITER in (a.access, b.access)), (va, vb)
        elsewhere = make_commitment("b", verb=vb, target="e", debtor="svcB")
        assert not _contend(a, elsewhere), (va, vb)


def test_two_signoffs_contend_only_within_one_service():
    assert _contend(S("c1"), S("c2", arr=1))
    assert not _contend(S("c1"), S("c2", "t", arr=1))


def test_signoff_spares_unowned_and_foreign_targets():
    leave = S("c1")
    assert _contend(leave, W("c2", owner="s"))
    assert not _contend(leave, W("c3"))
    assert not _contend(leave, W("c4", owner="t"))


@pytest.mark.parametrize("slots", [TARGET_SLOTS, OWNER_SLOTS], ids=["targets", "owners"])
def test_slot_commitment_carries_its_slot(slots):
    # The predicates and the fault tags read each slot back off its commitment.
    for n, (verb, target, priority, owner) in enumerate(slots):
        c = slot_commitment(f"c{n}", verb, target, priority, n, owner)
        assert (c.id, c.content.verb, c.content.target) == (f"c{n}", verb, target)
        assert (c.priority, c.arrival, c.target_owner) == (priority, n, owner)
        assert c.access is ACCESS_FOR_VERB[verb]
        assert c.debtor == (target if verb is SIGNOFF else f"svc-c{n}")


def test_slot_commitment_rejects_another_verb():
    with pytest.raises(ValueError, match="collect, post or signoff"):
        slot_commitment("c0", Verb.TAMPER, "d")


# -- admission ---------------------------------------------------------------------

def test_two_readers_both_execute():
    c1, c2 = R("c1"), R("c2", arr=1)
    assert _admitted(c2, (c1,), (), ()) is None
    assert _admitted(c2, (c1,), (), ("c1",)) == "submit c2: expected blockers (), got ('c1',)"


def test_reader_waits_for_writer():
    c1, c2 = W("c1"), R("c2", arr=1)
    assert _admitted(c2, (c1,), (), ("c1",)) is None
    assert _admitted(c2, (c1,), (), ()) == "submit c2: expected blockers ('c1',), got ()"


def test_disjoint_writers_both_execute():
    c1, c2 = W("c1"), W("c2", "e", arr=1)
    assert _admitted(c2, (c1,), (), ()) is None


def test_queued_conflicts_also_block():
    c1, c2, c3 = R("c1"), W("c2", arr=1), R("c3", arr=2)
    assert _admitted(c3, (c1,), (c2,), ("c2",)) is None
    assert _admitted(c3, (c1,), (c2,), ()) is not None


def test_blockers_list_active_ones_first():
    c1, c2, c3, c4 = R("c1"), W("c2", arr=1), R("c3", "e"), W("c4", arr=2)
    assert _admitted(c4, (c1, c3), (c2,), ("c1", "c2")) is None
    assert _admitted(c4, (c1, c3), (c2,), ("c2", "c1")) is not None


def test_signoff_contends_with_the_targets_its_service_owns():
    # A sign-off by s blocks on a reader of d owned by s, not on one owned by t.
    owned, other, leave = R("c1", owner="s"), R("c2", "e", owner="t"), S("c3")
    assert _admitted(leave, (owned, other), (), ("c1",)) is None
    assert _admitted(W("c4", owner="s"), (leave,), (), ("c3",)) is None
    assert _admitted(W("c4", owner="t"), (leave,), (), ()) is None


def test_admission_checks_the_state_left_behind():
    c1, c2 = W("c1"), W("c2", "e", arr=1)
    assert admission_fault(c2, ((c1,), ()), (), ((c1,), (c2,))) == (
        "submit c2: leaves active ('c1',) queued ('c2',)"
    )


def test_admission_checks_where_a_waiter_is_left():
    c1, c2, c3 = W("c1"), W("c2", arr=1), W("c3", arr=2)
    assert admission_fault(c2, ((c1,), ()), ("c1",), ((c1, c2), ())) == (
        "submit c2: leaves active ('c1', 'c2') queued ()"
    )
    # A waiter joins the end of the queue, not its front.
    assert admission_fault(c3, ((c1,), (c2,)), ("c1", "c2"), ((c1,), (c3, c2))) == (
        "submit c3: leaves active ('c1',) queued ('c3', 'c2')"
    )


# -- drain -------------------------------------------------------------------------

def test_drain_ranks_by_each_policy_key():
    # Two writers queued behind c1: FCFS serves c2 (earlier), Priority c3 (p10).
    c1, c2, c3 = W("c1"), W("c2", prio=0, arr=1), W("c3", prio=10, arr=2)
    before = ((c1,), (c2, c3))
    for policy, first, second in (("fcfs", c2, c3), ("priority", c3, c2)):
        assert drain_fault(policy, before, "c1", (first,), ((first,), (second,))) is None
        assert drain_fault(policy, before, "c1", (second,), ((second,), (first,))) == (
            f"activates {second.id} ahead of {first.id}, which ranks ahead and was free"
        )


def test_fcfs_breaks_an_arrival_tie_by_queue_order():
    c1, c2, c3 = W("c1"), W("c2", arr=1), W("c3", arr=1)
    before = ((c1,), (c2, c3))
    assert drain_fault("fcfs", before, "c1", (c2,), ((c2,), (c3,))) is None
    assert drain_fault("fcfs", before, "c1", (c3,), ((c3,), (c2,))) is not None


def test_priority_breaks_a_tie_by_arrival_then_id():
    c1 = W("c1")
    late, early = W("c2", prio=10, arr=2), W("c3", prio=10, arr=1)
    before = ((c1,), (late, early))
    assert drain_fault("priority", before, "c1", (early,), ((early,), (late,))) is None
    assert drain_fault("priority", before, "c1", (late,), ((late,), (early,))) == (
        "activates c2 ahead of c3, which ranks ahead and was free"
    )
    # Equal arrivals too: the smaller id, though FCFS serves the queue's first.
    c5, c4 = W("c5", prio=10, arr=1), W("c4", prio=10, arr=1)
    before = ((c1,), (c5, c4))
    assert drain_fault("priority", before, "c1", (c4,), ((c4,), (c5,))) is None
    assert drain_fault("priority", before, "c1", (c5,), ((c5,), (c4,))) == (
        "activates c5 ahead of c4, which ranks ahead and was free"
    )
    assert drain_fault("fcfs", before, "c1", (c5,), ((c5,), (c4,))) is None


def test_drain_may_pass_a_waiter_that_is_still_blocked():
    # c3 ranks ahead of c4 but still waits for c1: retiring c2 frees c4 alone.
    c1, c2, c3, c4 = W("c1"), W("c2", "e"), R("c3", arr=1), R("c4", "e", arr=2)
    before = ((c1, c2), (c3, c4))
    assert drain_fault("fcfs", before, "c2", (c4,), ((c1, c4), (c3,))) is None
    assert drain_fault("fcfs", before, "c2", (c3, c4), ((c1, c3, c4), ())) == (
        "activates c3 beside a commitment it contends with"
    )


def test_retiring_the_last_owned_reader_frees_a_queued_signoff():
    owned, leave = R("c1", owner="s"), S("c2", arr=1)
    before = ((owned,), (leave,))
    assert drain_fault("fcfs", before, "c1", (leave,), ((leave,), ())) is None
    assert drain_fault("fcfs", before, "c1", (), ((), (leave,))) == (
        "leaves c2 queued with nothing active contending with it"
    )


def test_drain_activates_every_free_waiter_in_key_order():
    c1, c2, c3 = W("c1"), R("c2", arr=1), R("c3", arr=2)
    before = ((c1,), (c2, c3))
    assert drain_fault("fcfs", before, "c1", (c2, c3), ((c2, c3), ())) is None
    assert drain_fault("fcfs", before, "c1", (c3, c2), ((c3, c2), ())) is not None
    assert drain_fault("fcfs", before, "c1", (c2,), ((c2,), (c3,))) == (
        "leaves c3 queued with nothing active contending with it"
    )


def test_drain_activates_only_free_queued_commitments():
    c1, c2, c3 = W("c1"), W("c2", "e"), W("c3", "e", arr=1)
    before = ((c1, c2), (c3,))
    assert drain_fault("fcfs", before, "c1", (), ((c2,), (c3,))) is None
    assert drain_fault("fcfs", before, "c1", (c3,), ((c2, c3), ())) == (
        "activates c3 beside a commitment it contends with"
    )
    assert drain_fault("fcfs", before, "c1", (c2,), ((c2,), (c3,))) == (
        "activates c2, which was not queued"
    )
    assert drain_fault("fcfs", before, "c1", (), ((c1, c2), (c3,))) == (
        "leaves active ('c1', 'c2') queued ('c3',)"
    )


# -- the walk on one instance -------------------------------------------------------
# Every submit and every retire is a checked state, and every completion
# order is a run: a walk that skipped an order would count fewer of both.

def _walk(*commitments, policy=Policy.FCFS):
    report = GridReport()
    equivalence._Instance(commitments, policy, report).check()
    assert report.faults == []
    return report.runs, report.states


def test_single_commitment_has_one_outcome():
    assert _walk(R("c1")) == (1, 2)


def test_same_target_writers_serialize():
    assert _walk(W("c1"), W("c2", arr=1)) == (1, 4)


def test_independent_writers_interleave():
    assert _walk(W("c1"), W("c2", "e", arr=1)) == (2, 6)


def test_three_commitments_two_targets_safe_and_drained():
    # c1 and c3 run, c2 waits for c1: c1 first leaves two orders, c3 first one.
    assert _walk(W("c1"), R("c2", arr=1), W("c3", "e", arr=2)) == (3, 11)


def test_walk_covers_every_completion_order():
    assert _walk(W("c1"), W("c2", "e"), W("c3", "f")) == (6, 18)


# -- the grid --------------------------------------------------------------------

def _clean_grid_of_three(slots):
    # Every instance of up to 3 commitments over a slot set, under both
    # policies and every completion order.
    report = run_grid(3, slots)
    assert report.faults == []
    return report.combinations, report.runs, report.states


def test_grid_of_three_is_clean():
    assert _clean_grid_of_three(TARGET_SLOTS) == (584, 3584, 12576)


def test_owner_grid_of_three_is_clean():
    assert _clean_grid_of_three(OWNER_SLOTS) == (155, 832, 2988)


# Each is one edit of scheduler.py, and each must make both the grid of three
# and the random runs below report faults.
MUTATIONS = {
    "batch-reversed": ("        for qid in order:\n", "        for qid in order[::-1]:\n"),
    "drain-stops-after-one": (
        "            activated.append(chosen)\n",
        "            activated.append(chosen)\n            break\n",
    ),
    "blockers-without-queued": ("tuple(held + waiting)", "tuple(held)"),
    "admit-past-queued": ("if not (held or waiting):", "if not held:"),
    "fcfs-seq-tie-reversed": ("(queue[i].arrival, seqs[i])", "(queue[i].arrival, -seqs[i])"),
    "priority-key-ignored": (
        "(-queue[i].priority, queue[i].arrival, i)", "(queue[i].arrival, i)"
    ),
    "owner-bucket-skipped": (
        "            merged.update(self.by_owner.get(c.debtor, ()))\n", "            pass\n",
    ),
    "drain-skips-blocks-recheck": ("            if blocks(chosen):\n", "            if False:\n"),
    "blocks-ignores-signoffs": (
        "        if c.target_owner in self.signoffs:\n", "        if False:\n"
    ),
    "blocks-ignores-owner-bucket": (
        "c.content.verb is _SIGNOFF and c.debtor in self.by_owner", "False"
    ),
    "blocks-reader-as-writer": ("            c.access is _WRITER\n", "            True\n"),
    "retire-skips-owner-scope": (
        "\n            or (owner is not None and owner not in held.by_owner)", ""
    ),
}
# These need owner scopes or sign-offs, which only the owner slots hold.
OWNER_MUTATIONS = {
    "owner-bucket-skipped", "blocks-ignores-signoffs", "blocks-ignores-owner-bucket",
    "retire-skips-owner-scope",
}
# A scope index that returns more than the conflicting commitments: every
# caller's ``same_scope`` filter hides it from the decisions, so the grid cannot
# see it, and only the random runs' checks of the index itself must fail.
INDEX_MUTATIONS = {
    "wait-index-adds-own-signoffs": (
        "        found = by_mode.get(c.content.target)\n",
        "        found = {**by_mode.get(c.content.target, {}), **self.signoffs.get(c.debtor, {})}\n"
        "        found = {seq: found[seq] for seq in sorted(found)}\n",
    ),
}


_SHARED_TYPES = (scheduler.Policy, scheduler.DecisionKind, scheduler.Decision)


def _mutant(name=None):
    """``Scheduler`` built from scheduler.py with one mutation applied (none without a name)."""
    path = Path(scheduler.__file__)
    source = path.read_text(encoding="utf-8")
    if name is not None:
        old, new = {**MUTATIONS, **INDEX_MUTATIONS}[name]
        assert source.count(old) == 1, f"{name}: the mutated text is not in scheduler.py once"
        source = source.replace(old, new)
    namespace = {"__name__": "scheduler_mutant", "__package__": "commitsched"}
    exec(compile(source, str(path), "exec"), namespace)
    # The walk compares policies and decisions with the real module's values,
    # so the mutant takes those types and every module-level value of them
    # (``_EXECUTE``, ``_FCFS``, ``_WAIT``, ...) from the real module.
    for shared, value in vars(scheduler).items():
        if value in _SHARED_TYPES or isinstance(value, _SHARED_TYPES):
            namespace[shared] = value
    return namespace["Scheduler"]


@pytest.mark.parametrize("slots", [TARGET_SLOTS, OWNER_SLOTS], ids=["targets", "owners"])
def test_unmutated_mutant_runs_a_clean_grid(slots, monkeypatch):
    # The harness itself adds no fault: each row below fails for its edit.
    monkeypatch.setattr(equivalence, "Scheduler", _mutant())
    assert run_grid(3, slots).faults == []


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_grid_catches_a_scheduler_mutation(name, monkeypatch):
    monkeypatch.setattr(equivalence, "Scheduler", _mutant(name))
    slots = OWNER_SLOTS if name in OWNER_MUTATIONS else TARGET_SLOTS
    report = run_grid(3, slots)
    assert report.faults


# -- random runs --------------------------------------------------------------------

_RETIRES = st.sampled_from(
    (LifecycleState.COMPLETED, LifecycleState.FAILED, LifecycleState.VIOLATED)
)


def _retire(s, cid, final):
    if final is LifecycleState.VIOLATED:
        return s.on_violation(cid)
    return s.on_complete(cid, final)


def _random_run(engine, policy: Policy, data) -> None:
    """Drive an ``engine`` (a ``Scheduler`` class) through up to 40 random steps.

    Each step submits ``conftest.any_commitment`` (sign-offs, owner
    scopes, equal and non-monotone arrivals), retires an active id by
    completion, failure or violation, or retires a queued or retired id.
    The oracle judges the states observed, in the engine's own
    commitments: ``admission_fault`` every submit, ``drain_fault`` every
    retire. Nothing here restates the drain rule. The run also checks what
    the predicates do not read: the engine holds and returns the caller's
    own objects; retiring an inactive id raises ``UnknownId`` and changes
    nothing; ``snapshot()`` equals a count, kept here, of each id's last
    outcome; for each waiter, ``_held.conflicting`` and
    ``_waiting.conflicting`` return, in order, exactly the active and the
    other queued commitments ``oracle._contend`` accepts (the scope index
    alone, before any ``same_scope`` filter); and ``_held.blocks`` is true
    exactly when the first of them returns anything.
    """
    s = engine(policy)
    made = {}  # id -> the submitted commitment
    last = {}  # id -> Waiting, Active or its final state

    def observe():
        return tuple(s.active.values()), s.queue

    state = ((), ())
    for step in range(data.draw(st.integers(1, 40), label="steps")):
        active = list(s.active)
        inactive = sorted(last.keys() - s.active.keys())  # queued or retired
        ops = ["submit", "submit"] + ["retire"] * bool(active) + ["inactive"] * bool(inactive)
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "submit":
            c = any_commitment(data, f"c{step}")
            made[c.id] = c
            decision = s.submit(c)
            blockers = decision.blockers if decision.kind is DecisionKind.WAIT else ()
            after = observe()
            fault = admission_fault(c, state, blockers, after)
            last[c.id] = LifecycleState.WAITING if blockers else LifecycleState.ACTIVE
        elif op == "retire":
            cid = data.draw(st.sampled_from(active), label="retired")
            final = data.draw(_RETIRES, label="final")
            activated = _retire(s, cid, final)
            assert all(a is made[a.id] for a in activated)
            after = observe()
            fault = drain_fault(policy.value, state, cid, tuple(activated), after)
            last[cid] = final
            last.update((a.id, LifecycleState.ACTIVE) for a in activated)
        else:
            cid = data.draw(st.sampled_from(inactive), label="inactive")
            with pytest.raises(UnknownId):
                _retire(s, cid, data.draw(_RETIRES, label="final"))
            after = observe()
            fault = None if after == state else f"retiring inactive {cid} changed the state"
        assert fault is None, fault
        state = after
        assert all(c is made[cid] for cid, c in s.active.items())
        assert all(c is made[c.id] for c in s.queue)
        counts = Counter((made[cid].debtor, outcome) for cid, outcome in last.items())
        assert counts == {
            (svc, outcome): n for svc, per in s.snapshot().items() for outcome, n in per.items()
        }
        active, queued = state
        for q in queued:
            held = [a.id for a in s._held.conflicting(q)]
            assert held == [a.id for a in active if _contend(q, a)]
            assert s._held.blocks(q) == bool(held)
            waiting = [x.id for x in s._waiting.conflicting(q) if x is not q]
            assert waiting == [x.id for x in queued if x is not q and _contend(q, x)]


@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
@given(policy=st.sampled_from(list(Policy)), data=st.data())
def test_random_runs_keep_the_oracle_predicates(policy, data):
    _random_run(scheduler.Scheduler, policy, data)


# The mutation rows and their control run one fixed sequence of examples and
# report the first failure unshrunk: a red row takes seconds, not minutes.
@settings(
    max_examples=500,
    phases=[Phase.generate],
    derandomize=True,
    database=None,
    deadline=None,
    report_multiple_bugs=False,
)
@given(policy=st.sampled_from(list(Policy)), data=st.data())
def _fixed_random_runs(engine, policy, data):
    _random_run(engine, policy, data)


def test_unmutated_mutant_passes_random_runs():
    # The harness itself adds no fault on the sequence the rows below fail on.
    _fixed_random_runs(_mutant())


def _raised_by_the_run(exc: BaseException) -> bool:
    """True for a failed check of the run or an error the mutant's own code
    raised; false for an error of Hypothesis or of the rest of the harness."""
    frames = traceback.walk_tb(exc.__traceback__)
    return not isinstance(exc, HypothesisException) and (
        isinstance(exc, (AssertionError, pytest.fail.Exception))
        or any(f.f_globals.get("__name__") == "scheduler_mutant" for f, _ in frames)
    )


@pytest.mark.parametrize("name", [*MUTATIONS, *INDEX_MUTATIONS])
def test_random_runs_catch_a_scheduler_mutation(name):
    engine = _mutant(name)  # outside the check: a stale row fails here
    with pytest.raises((Exception, pytest.fail.Exception)) as caught:
        _fixed_random_runs(engine)
    assert _raised_by_the_run(caught.value), repr(caught.value)


def test_oracle_command_reports_a_raising_submit(monkeypatch, capsys):
    # A wait decision without blockers raises inside submit: a fault, not a crash.
    monkeypatch.setattr(equivalence, "Scheduler", _mutant("blockers-without-queued"))
    assert main(["oracle", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "targets: combinations=584 runs=3584 states=12096",
        "owners: combinations=155 runs=832 states=2826",
        "pass=4202 fail=214",
        "  [fcfs] c0:R(d)p0a0,c1:W(d)p0a1,c2:R(d)p0a1: submit c2: "
        "scheduler raised ValueError('a wait decision must name its blockers')",
    ]


class _Refusing(scheduler.Scheduler):
    """Refuses every completion: each run of one commitment is a fault."""

    def on_complete(self, cid, outcome):
        raise UnknownId(cid)


def test_oracle_command_reports_an_engine_error_as_a_fault(monkeypatch, capsys):
    # An EngineError from the engine under test is a fault (exit 1), not a
    # usage error (exit 2).
    monkeypatch.setattr(equivalence, "Scheduler", _Refusing)
    assert main(["oracle", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "pass=0 fail=26"
    assert out[3] == "  [fcfs] c0:R(d)p0a0: complete c0: scheduler raised UnknownId('c0')"


def test_fault_tag_names_each_owner_slot(monkeypatch):
    # The letter is read off the verb, and the owner follows the target.
    monkeypatch.setattr(equivalence, "Scheduler", _Refusing)
    tags = ("c0:R(d/s)p0a0", "c0:R(d)p0a0", "c0:W(d)p0a0", "c0:W(e/s)p0a0", "c0:S(s)p0a0")
    assert run_grid(1, OWNER_SLOTS).faults == [
        f"[{policy}] {tag}: complete c0: scheduler raised UnknownId('c0')"
        for tag in tags
        for policy in ("fcfs", "priority")
    ]


# -- independence -------------------------------------------------------------------

def _package_imports(source: str) -> set[str]:
    """The ``commitsched`` modules a module's source imports, package-relative."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            names = ["commitsched." + n for n in names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
            if node.module == "commitsched":
                names = ["commitsched." + a.name for a in node.names]
        else:
            continue
        found.update(n for n in names if n == "commitsched" or n.startswith("commitsched."))
    return {n.removeprefix("commitsched.") for n in found}


def test_oracle_imports_only_the_model():
    # The specification shares no code with the engine it judges. Importing
    # the oracle loads the package ``__init__``, so ``sys.modules`` cannot
    # tell: its source can.
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert _package_imports(source) == {"model"}
    wider = "import commitsched.relations\nfrom . import trace\nfrom commitsched import scheduler\n"
    assert _package_imports(wider) == {"relations", "trace", "scheduler"}


# -- bounds -------------------------------------------------------------------------

@pytest.mark.parametrize("size", ["0", "-1", "7"])
def test_oracle_command_rejects_a_size_out_of_range(size, monkeypatch, capsys):
    # Refused before any instance is enumerated: 0 would check nothing and
    # exit 0, and 7 would run every size up to 6 before the bound fired.
    def never(*_args, **_kwargs):
        raise AssertionError("run_grid called")

    monkeypatch.setattr("commitsched.equivalence.run_grid", never)
    with pytest.raises(SystemExit) as exited:
        main(["oracle", size])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument size: invalid choice: {size} (choose from 1, 2, 3, 4, 5, 6)" in captured.err


@pytest.mark.parametrize("size", [0, 7])
def test_run_grid_rejects_a_size_out_of_range(size, monkeypatch):
    # 0 would pass vacuously and 7 would check every size up to 6 first.
    def never(*_args, **_kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("commitsched.equivalence.slot_commitment", never)
    with pytest.raises(ValueError, match=f"max_commitments must be 1 to 6, got {size}"):
        run_grid(size)


def test_bad_access_rejected():
    # A slot is a reader, a writer or a sign-off: the grid has no other verb.
    for verb in (Verb.TAMPER, Verb.REVEAL, "collect"):
        with pytest.raises(ValueError, match="a slot's verb is collect, post or signoff"):
            slot_commitment("c1", verb, "d")
