"""Scenario grammar: accepted forms and located diagnostics."""

from __future__ import annotations

import inspect

import pytest

from commitsched.cli import main
from commitsched.errors import ParseError
from commitsched.model import Privacy, Verb
from commitsched.scenario import COMMANDS, Command, parse
from commitsched.scheduler import Policy
from commitsched.simulator import _HANDLERS, run


def _by_name(cmd: Command) -> dict:
    """``cmd.args`` bound to its handler's parameters, by name."""
    bound = inspect.signature(_HANDLERS[cmd.verb]).bind(None, *cmd.args)
    del bound.arguments["self"]
    return dict(bound.arguments)


def test_two_commands():
    scenario = parse("policy fcfs\nnetwork facebook\n")
    assert scenario.commands == (
        Command("policy", 1, (Policy.FCFS,)),
        Command("network", 2, ("facebook",)),
    )


def test_empty_scenario_runs_to_empty_trace():
    result = run(parse(""))
    assert result.trace.events == ()
    assert result.trace.text() == "t=0 END ok=true\n"


def test_comments_and_blanks_ignored():
    scenario = parse("# heading\n\nnetwork fb  # trailing note\n   \n")
    assert [c.verb for c in scenario.commands] == ["network"]


def test_tick_requires_positive():
    with pytest.raises(ParseError):
        parse("tick 0")
    assert parse("tick").commands[0].args == (1,)
    assert parse("tick 5").commands[0].args == (5,)


def test_submit_collect_shape():
    cmd = parse("submit c1 svcA collect email svcB analytics prio=3 if=g1").commands[0]
    assert cmd.args == ("c1", "svcA", Verb.COLLECT, "email", 3, "g1",
                        "svcB", "analytics", None, None, None)


def test_submit_post_veracity_enum():
    named = _by_name(parse("submit c1 svcA post wall true hello").commands[0])
    assert named["veracity"] is True
    assert named["payload"] == "hello"


def test_submit_signoff_target_must_match_service():
    cmd = parse("submit c1 svcA signoff svcA").commands[0]
    assert _by_name(cmd)["target"] == "svcA"


def test_submit_reveal_needs_requester():
    with pytest.raises(ParseError):
        parse("submit c1 svcA reveal email")


def test_complete_forms():
    assert parse("complete c1").commands[0].args == ("c1", False)
    assert parse("complete c1 failed").commands[0].args == ("c1", True)


def test_guard_values():
    assert parse("guard g1 true").commands[0].args == ("g1", True)


def test_detail_shape():
    cmd = parse("detail email svcA fb private addr0").commands[0]
    assert cmd.args == ("email", "svcA", "fb", Privacy.PRIVATE, "addr0")


def test_only_a_lone_dash_is_refused_as_an_id():
    # The trace's empty-queue mark is the word '-', not the character.
    assert parse("submit c-1 svcA post wall true").commands[0].args[0] == "c-1"
    assert parse("network -").commands[0].args == ("-",)
    assert parse("assignment - svcA").commands[0].args == ("-", "svcA")


# -- parsed arguments match the handlers ---------------------------------------------
# ``_Sim.step`` calls ``handler(self, *cmd.args)``: the parser and the
# handlers agree only by position, so each position is checked by name.

VALID = {
    "policy": "policy priority",
    "network": "network fb",
    "purpose": "purpose fb ads",
    "signup": "signup svcA fb accept",
    "assign": "assign svcA resp2",
    "assignment": "assignment a1 svcA",
    "finish-assignment": "finish-assignment a1 failed",
    "detail": "detail email svcA fb private addr0",
    "ttl": "ttl 3",
    "guard": "guard g1 true",
    "snapshot": "snapshot",
    "submit": "submit c1 svcA post wall true hello",
    "complete": "complete c1 failed",
    "tick": "tick 2",
}


def test_every_command_has_a_valid_line():
    assert set(VALID) == set(COMMANDS)


@pytest.mark.parametrize("word", COMMANDS)
def test_parsed_args_fill_the_handler_parameters(word):
    (cmd,) = parse(VALID[word]).commands
    params = list(inspect.signature(_HANDLERS[word]).parameters.values())[1:]  # no self
    positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional == params
    assert len(cmd.args) == len(positional)


_SUBMIT_BASE = {"cid": "c1", "service": "svcA", "priority": 7, "guard": "g",
                "owner": None, "purpose": None, "veracity": None,
                "requester": None, "payload": None}

SUBMIT_SLOTS = [
    ("submit c1 svcA collect email svcB analytics prio=7 if=g",
     {"verb": Verb.COLLECT, "target": "email", "owner": "svcB", "purpose": "analytics"}),
    ("submit c1 svcA post wall false hello prio=7 if=g",
     {"verb": Verb.POST, "target": "wall", "veracity": False, "payload": "hello"}),
    ("submit c1 svcA tamper wall junk prio=7 if=g",
     {"verb": Verb.TAMPER, "target": "wall", "payload": "junk"}),
    ("submit c1 svcA signoff svcA prio=7 if=g", {"verb": Verb.SIGNOFF, "target": "svcA"}),
    ("submit c1 svcA reveal email svcC prio=7 if=g",
     {"verb": Verb.REVEAL, "target": "email", "requester": "svcC"}),
]


@pytest.mark.parametrize(
    "text,slots", SUBMIT_SLOTS, ids=[text.split()[3] for text, _ in SUBMIT_SLOTS]
)
def test_submit_slots_land_in_their_parameters(text, slots):
    (cmd,) = parse(text).commands
    assert _by_name(cmd) == {**_SUBMIT_BASE, **slots}


# -- every diagnostic, pinned ----------------------------------------------------------
# (text, line, column, message): one probe per rejection in the grammar, for
# each enum label and integer bound, plus layout the column must survive.

DIAGNOSTICS = [
    ("policy sometimes", 1, 8, "bad policy 'sometimes' (expected fcfs|priority)"),
    ("signup svcA fb maybe", 1, 16, "bad decision 'maybe' (expected accept|reject)"),
    ("signup maybe fb maybe", 1, 17, "bad decision 'maybe' (expected accept|reject)"),
    ("assign svcA resp9", 1, 13,
     "bad responsibility 'resp9' (expected resp1|resp2|resp3|resp4|resp5)"),
    ("finish-assignment a1 done", 1, 22, "bad status 'done' (expected complete|failed)"),
    ("detail k owner net secretive v", 1, 20,
     "bad privacy 'secretive' (expected private|public)"),
    ("guard g1 yes", 1, 10, "bad guard value 'yes' (expected false|true)"),
    ("submit c1 svcA fly wall", 1, 16,
     "bad action verb 'fly' (expected collect|post|reveal|signoff|tamper)"),
    ("submit c1 svcA post wall maybe", 1, 26, "bad veracity 'maybe' (expected false|true)"),
    ("ttl soon", 1, 5, "bad ttl 'soon' (expected integer)"),
    ("ttl -1", 1, 5, "ttl must be >= 0, got -1"),
    ("tick x", 1, 6, "bad tick count 'x' (expected integer)"),
    ("tick 0", 1, 6, "tick count must be >= 1, got 0"),
    ("network fb\nfrobnicate now", 2, 1, "unknown command 'frobnicate'"),
    ("network fb\nfrobnicate now\n", 2, 1, "unknown command 'frobnicate'"),
    ("network", 1, 1, "network takes 1 argument(s), got 0"),
    ("network a b#c", 1, 1, "network takes 1 argument(s), got 2"),
    ("snapshot now", 1, 1, "snapshot takes 0 argument(s), got 1"),
    ("signup svcA facebook", 1, 1, "signup takes 3 argument(s), got 2"),
    ("complete", 1, 1, "complete takes <cid> [failed]"),
    ("complete c1 failed now", 1, 1, "complete takes <cid> [failed]"),
    ("complete c1 badly", 1, 13, "expected 'failed', got 'badly'"),
    ("tick 1 2", 1, 1, "tick takes at most one argument"),
    ("submit c1 svcA post", 1, 1,
     "submit takes <cid> <service> <verb> <target> [arg...]"),
    ("submit c1 svcA post wall true if=", 1, 31, "if= requires a guard name"),
    ("submit c1 svcA post wall true speed=9", 1, 31, "unknown option 'speed=9'"),
    ("submit c1 svcA post wall speed=9 maybe", 1, 26, "unknown option 'speed=9'"),
    ("submit c1 svcA collect email svcB", 1, 1,
     "collect takes 2 argument(s) after target, got 1"),
    ("submit c1 svcA post wall", 1, 1, "post takes 1-2 argument(s) after target, got 0"),
    ("submit c1 svcA signoff svcA extra", 1, 1,
     "signoff takes 0 argument(s) after target, got 1"),
    ("submit svcB svcA signoff svcB", 1, 26,
     "signoff target must be the service itself ('svcA')"),
    ("submit c1 svcA signoff svcB", 1, 24,
     "signoff target must be the service itself ('svcA')"),
    ("submit c1 svcA post wall true prio=x", 1, 31, "bad priority 'x' (expected integer)"),
    ("submit c1 svcA post wall true if=g prio=-1", 1, 36, "priority must be >= 0, got -1"),
    ("submit c1 svcA post wall true prio=-1", 1, 31, "priority must be >= 0, got -1"),
    ("submit c1 svcA fly wall speed=9", 1, 16,
     "bad action verb 'fly' (expected collect|post|reveal|signoff|tamper)"),
    ("  submit  c1 svcA   post wall maybe   # note", 1, 31,
     "bad veracity 'maybe' (expected false|true)"),
    ("\tguard\tg1\tyes", 1, 11, "bad guard value 'yes' (expected false|true)"),
    ("network fb\n\n  tick   0\n", 3, 10, "tick count must be >= 1, got 0"),
    ("# heading\npolicy fcfs # fine\nttl 3#4 5\nttl x\n", 4, 5,
     "bad ttl 'x' (expected integer)"),
    ("submit w,1 svcA post wall true", 1, 8,
     "bad commitment id 'w,1' (a trace lists them joined by ',' and an empty queue as '-')"),
    ("submit , svcA post wall true", 1, 8,
     "bad commitment id ',' (a trace lists them joined by ',' and an empty queue as '-')"),
    ("submit - svcA collect email svcB analytics", 1, 8,
     "bad commitment id '-' (a trace lists them joined by ',' and an empty queue as '-')"),
    ("network fb,li", 1, 9, "bad network name 'fb,li' (a trace lists them joined by ',')"),
    ("assignment a,1 svcA", 1, 12, "bad assignment id 'a,1' (a trace lists them joined by ',')"),
]


@pytest.mark.parametrize("text,line,column,message", DIAGNOSTICS)
def test_diagnostic_is_pinned(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, str(err.value)) == (
        line, column, f"line {line}, col {column}: {message}"
    )


def test_cli_check_reports_the_located_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("network fb\npolicy fcfs\n  tick   0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3, col 10: tick count must be >= 1, got 0\n"
