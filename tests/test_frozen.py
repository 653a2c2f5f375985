"""The ``Frozen`` value types: equality, hashing, ``repr`` and immutability."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import commitsched
from commitsched.model import (
    Commitment,
    CommitmentKind,
    ContentAction,
    Frozen,
    LifecycleState,
    Privacy,
    Responsibility,
    Verb,
    new_commitment,
)
from commitsched.oracle import MiniCommitment
from commitsched.scenario import Command, Scenario
from commitsched.scheduler import Decision, DecisionKind, MonitoringReport, Scheduler
from commitsched.simulator import RunResult
from commitsched.trace import Trace
from commitsched.world import Assignment, Detail, Violation, WorldState
from conftest import astuple

# One example per value class and the ``repr`` a frozen dataclass gave it.
EXAMPLES = {
    ContentAction: (
        lambda: ContentAction(Verb.COLLECT, "email", owner="svcB", purpose="analytics"),
        "ContentAction(verb=<Verb.COLLECT: 'collect'>, target='email', owner='svcB', "
        "purpose='analytics', veracity=None, requester=None, payload=None)",
    ),
    Commitment: (
        lambda: new_commitment(
            "c1", CommitmentKind.SOCIAL, Responsibility.RESP2, "svcA", "fb",
            ContentAction(Verb.POST, "video", veracity=True, payload="v2"),
            explicit_priority=10, clock=3,
        ),
        "Commitment(id='c1', kind=<CommitmentKind.SOCIAL: 'social'>, "
        "responsibility=<Responsibility.RESP2: 'resp2'>, debtor='svcA', creditor='fb', "
        "content=ContentAction(verb=<Verb.POST: 'post'>, target='video', owner=None, "
        "purpose=None, veracity=True, requester=None, payload='v2'), "
        "access=<AccessClass.WRITER: 'writer'>, priority=10, arrival=3, target_owner=None)",
    ),
    Detail: (
        lambda: Detail("email", "svcB", "fb", Privacy.PRIVATE, "a@b"),
        "Detail(key='email', owner='svcB', network='fb', "
        "privacy=<Privacy.PRIVATE: 'private'>, value='a@b')",
    ),
    Assignment: (
        lambda: Assignment("a1", "svcA"),
        "Assignment(id='a1', service='svcA', status=<AssignmentStatus.ONGOING: 'ongoing'>)",
    ),
    Violation: (
        lambda: Violation(Responsibility.RESP4, "ongoing-assignments", ("a1",)),
        "Violation(responsibility=<Responsibility.RESP4: 'resp4'>, "
        "reason='ongoing-assignments', items=('a1',))",
    ),
    Decision: (
        lambda: Decision(DecisionKind.WAIT, ("c1", "c2")),
        "Decision(kind=<DecisionKind.WAIT: 'wait'>, blockers=('c1', 'c2'))",
    ),
    MonitoringReport: (
        lambda: MonitoringReport({"svcA": {LifecycleState.ACTIVE: 1}}, ("c2",)),
        "MonitoringReport(by_service={'svcA': {<LifecycleState.ACTIVE: 'active'>: 1}}, "
        "queue=('c2',))",
    ),
    Scenario: (
        lambda: Scenario((Command("network", 1, ("fb",)),), "demo.scn"),
        "Scenario(commands=(Command(verb='network', line=1, args=('fb',)),), source='demo.scn')",
    ),
    Trace: (
        lambda: Trace(("t=0 Registered svcA network=fb",), 3, True),
        "Trace(event_lines=('t=0 Registered svcA network=fb',), final_clock=3, ok=True)",
    ),
    MiniCommitment: (
        lambda: MiniCommitment("c1", "writer", "d", 10, 2, "s"),
        "MiniCommitment(id='c1', access='writer', target='d', priority=10, arrival=2, "
        "owner='s')",
    ),
}

# ``RunResult`` holds a world and a scheduler, whose ``repr`` names an address.
_WORLD, _SCHEDULER = WorldState(), Scheduler()
EXAMPLES[RunResult] = (
    lambda: RunResult(Trace((), 0, True), _WORLD, _SCHEDULER),
    f"RunResult(trace=Trace(event_lines=(), final_clock=0, ok=True), "
    f"world={_WORLD!r}, scheduler={_SCHEDULER!r})",
)

def _replaced(value, cls=None, /, **changes):
    """Copy of ``value`` as a ``cls`` (default: its own class) with ``changes`` applied.

    Built without ``__init__``, so a field may hold any value.
    """
    obj = object.__new__(cls or value.__class__)
    obj.__dict__.update({**vars(value), **changes})
    return obj


value_classes = pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)


def test_every_value_class_has_an_example():
    ours = {cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("commitsched.")}
    assert ours == set(EXAMPLES)


@value_classes
def test_repr_is_the_dataclass_text(cls):
    make, text = EXAMPLES[cls]
    assert repr(make()) == text


@value_classes
def test_fields_are_the_annotations_in_order(cls):
    value = EXAMPLES[cls][0]()
    assert cls._fields == tuple(cls.__annotations__)
    assert list(vars(value)) == list(cls._fields)
    assert cls._astuple(value) == astuple(value)


@value_classes
def test_equal_only_within_one_class(cls):
    make = EXAMPLES[cls][0]
    value, twin = make(), make()
    assert value is not twin and value == twin and not value != twin
    # Every field takes part in equality.
    for name in cls._fields:
        other = _replaced(value, **{name: object()})
        assert value != other and other != value
    # Neither the field tuple nor a class with the same name and fields is equal.
    assert value != astuple(value)
    lookalike_cls = type(cls.__name__, (Frozen,), {"__annotations__": dict.fromkeys(cls._fields)})
    lookalike = _replaced(value, lookalike_cls)
    assert repr(lookalike) == repr(value)
    assert value != lookalike and lookalike != value


@value_classes
def test_hash_is_the_hash_of_the_field_tuple(cls):
    make = EXAMPLES[cls][0]
    value, twin = make(), make()
    try:
        expected = hash(astuple(value))
    except TypeError:  # an unhashable field makes the value unhashable
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(twin) == expected
    assert len({value, twin}) == 1


@value_classes
def test_fields_can_be_neither_set_nor_deleted(cls):
    value = EXAMPLES[cls][0]()
    before = vars(value).copy()
    for name in (*cls._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == before


def test_commitment_has_no_constructor():
    """``new_commitment`` is the one builder of a commitment."""
    make, _ = EXAMPLES[Commitment]
    with pytest.raises(TypeError):
        Commitment(*astuple(make()))
    with pytest.raises(TypeError):
        Commitment(**vars(make()))
    with pytest.raises(TypeError, match="new_commitment"):
        Commitment()


def test_wait_decision_must_name_its_blockers():
    with pytest.raises(ValueError, match="a wait decision must name its blockers"):
        Decision(DecisionKind.WAIT)
    with pytest.raises(ValueError, match="a wait decision must name its blockers"):
        Decision(DecisionKind.WAIT, ())


def test_execute_decision_has_no_blockers():
    with pytest.raises(ValueError, match="an execute decision has no blockers"):
        Decision(DecisionKind.EXECUTE, ("c1",))
    assert Decision(DecisionKind.EXECUTE).blockers == ()


def test_import_loads_neither_dataclasses_nor_inspect():
    """Both are slow to import; the value types need neither."""
    code = (
        "import sys, commitsched, commitsched.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    package_root = str(Path(commitsched.__file__).resolve().parents[1])
    path = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    # ``-S``: a site customisation may import ``inspect`` itself, as one
    # conda build's ``sitecustomize`` does, before the package is imported.
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
