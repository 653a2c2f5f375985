"""The per-call paths load no enum member through its class.

On CPython 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so a load
such as ``Verb.SIGNOFF`` costs about 100 ns against 8-16 ns for a module
global, and the scheduler calls make several each. These functions compare
against members bound once at module level instead (``_SIGNOFF``).
Once-per-command code such as ``Scheduler.snapshot`` is not listed.
"""

from __future__ import annotations

import dis
import enum
import types

import pytest

from commitsched import model, scenario, scheduler, simulator, world
from commitsched.model import Verb

PER_CALL = (
    scheduler._ScopeIndex.add,
    scheduler._ScopeIndex.remove,
    scheduler._ScopeIndex._with_owner_scopes,
    scheduler._HeldIndex.conflicting,
    scheduler._HeldIndex.blocks,
    scheduler._WaitIndex.add,
    scheduler._WaitIndex.remove,
    scheduler._WaitIndex.conflicting,
    scheduler.Decision.__new__,
    scheduler.same_scope,
    scheduler.Scheduler.submit,
    scheduler.Scheduler.on_complete,
    scheduler.Scheduler.on_violation,
    scheduler.Scheduler._retire,
    model.ContentAction.__new__,
    model.new_commitment,
    model.derive_priority,
    simulator._Sim._do_submit,
    simulator._Sim._do_complete,
    simulator._Sim._process_activations,
    simulator._Sim._execute,
    scenario._parse_submit,
    world.Detail.__new__,
    world.exec_collect,
    world.exec_post,
    world.exec_tamper_guard,
    world.exec_signoff,
    world.exec_reveal,
)


def _enum_member_loads(fn) -> list[str]:
    """``Enum.MEMBER``-style loads in ``fn``, its lambdas and comprehensions."""
    found = []
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        instructions = list(dis.get_instructions(code))
        for load, then in zip(instructions, instructions[1:]):
            value = fn.__globals__.get(load.argval) if load.opname == "LOAD_GLOBAL" else None
            if isinstance(value, enum.EnumMeta) and then.opname == "LOAD_ATTR":
                found.append(f"{load.argval}.{then.argval}")
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


@pytest.mark.parametrize("fn", PER_CALL, ids=lambda fn: f"{fn.__module__}.{fn.__qualname__}")
def test_per_call_path_loads_no_enum_member_through_its_class(fn):
    assert _enum_member_loads(fn) == []


def test_the_check_sees_a_member_load_in_a_nested_function():
    def uses_the_class(verbs):
        return sorted(verbs, key=lambda v: v is Verb.POST)

    assert _enum_member_loads(uses_the_class) == ["Verb.POST"]
