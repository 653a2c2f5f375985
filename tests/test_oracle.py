"""The specification's predicates, and the walk that checks the real scheduler."""

from __future__ import annotations

from pathlib import Path

import pytest

from commitsched import equivalence, scheduler
from commitsched.cli import main
from commitsched.equivalence import OWNER_SLOTS, TARGET_SLOTS, GridReport, run_grid
from commitsched.errors import UnknownId
from commitsched.oracle import (
    READER,
    SIGNOFF,
    WRITER,
    MiniCommitment,
    admission_fault,
    drain_fault,
)
from commitsched.scheduler import Policy


def R(cid, target="d", prio=0, arr=0, owner=None):
    return MiniCommitment(cid, READER, target, prio, arr, owner)


def W(cid, target="d", prio=0, arr=0, owner=None):
    return MiniCommitment(cid, WRITER, target, prio, arr, owner)


def S(cid, service="s", arr=0):
    return MiniCommitment(cid, SIGNOFF, service, 0, arr)


def _admitted(c, active, queued, blockers):
    """``admission_fault`` of ``c`` given the decision and the state it implies."""
    after = (active, (*queued, c)) if blockers else ((*active, c), queued)
    return admission_fault(c, (active, queued), blockers, after)


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

def _walk(*minis, policy=Policy.FCFS):
    report = GridReport()
    equivalence._Instance(minis, policy, report).check()
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
    assert _clean_grid_of_three(OWNER_SLOTS) == (84, 354, 1366)


# Each is one edit of scheduler.py, and each must make the grid of three
# report faults.
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
}
# These need owner scopes or sign-offs, which only the owner slots hold.
OWNER_MUTATIONS = {
    "owner-bucket-skipped", "blocks-ignores-signoffs", "blocks-ignores-owner-bucket",
}


_SHARED_TYPES = (scheduler.Policy, scheduler.DecisionKind, scheduler.Decision)


def _mutant(name=None):
    """``Scheduler`` built from scheduler.py with one mutation applied (none without a name)."""
    path = Path(scheduler.__file__)
    source = path.read_text(encoding="utf-8")
    if name is not None:
        old, new = MUTATIONS[name]
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


def test_oracle_command_reports_a_raising_submit(monkeypatch, capsys):
    # A wait decision without blockers raises inside submit: a fault, not a crash.
    monkeypatch.setattr(equivalence, "Scheduler", _mutant("blockers-without-queued"))
    assert main(["oracle", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "targets: combinations=584 runs=3584 states=12096",
        "owners: combinations=84 runs=354 states=1240",
        "pass=3736 fail=202",
        "  [fcfs] c0:R(d)p0a0,c1:W(d)p0a1,c2:R(d)p0a1: submit c2: "
        "scheduler raised ValueError('a wait decision must name its blockers')",
    ]


def test_oracle_command_reports_an_engine_error_as_a_fault(monkeypatch, capsys):
    # An EngineError from the engine under test is a fault (exit 1), not a
    # usage error (exit 2).
    class Refusing(scheduler.Scheduler):
        def on_complete(self, cid, outcome):
            raise UnknownId(cid)

    monkeypatch.setattr(equivalence, "Scheduler", Refusing)
    assert main(["oracle", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "pass=0 fail=24"
    assert out[3] == "  [fcfs] c0:R(d)p0a0: complete c0: scheduler raised UnknownId('c0')"


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

    monkeypatch.setattr("commitsched.equivalence.MiniCommitment", never)
    with pytest.raises(ValueError, match=f"max_commitments must be 1 to 6, got {size}"):
        run_grid(size)


def test_bad_access_rejected():
    with pytest.raises(ValueError):
        MiniCommitment("c1", "admin", "d")
