"""Line-based scenario grammar.

One command per line, words whitespace-separated, ``#`` starts a
comment. Commands:

    policy <fcfs|priority>
    network <name>
    purpose <network> <token>
    signup <service> <network> <accept|reject>
    assign <service> <resp1|resp2|resp3|resp4|resp5>
    assignment <id> <service>
    finish-assignment <id> <complete|failed>
    detail <key> <owner> <network> <public|private> <value>
    ttl <ticks>
    submit <cid> <service> <verb> <target> [arg...] [prio=<n>] [if=<guard>]
    guard <name> <true|false>
    complete <cid> [failed]
    tick [n]
    snapshot

Verb-specific submit arguments:

    collect <detail> <owner> <purpose>
    post    <detail> <true|false> [value]
    tamper  <detail> [value]
    signoff <service>            (must equal the submitting service)
    reveal  <detail> <requester>

Parsing validates verbs, arity and enum words up front; anything else
(unknown networks, duplicate ids, ...) surfaces at run time. A line is
read as plain words. A rejection blames one word by its index, and the
column of that word is computed only then, for the rejected line alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .errors import ParseError
from .model import Privacy, Responsibility, Verb
from .scheduler import Policy
from .world import AssignmentStatus


@dataclass(frozen=True)
class Command:
    """One validated scenario command."""

    verb: str
    line: int
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: ordered commands plus the source name."""

    commands: tuple[Command, ...]
    source: str = "<string>"


class _Rejected(Exception):
    """Raised as ``(index, message)``: the word at fault (0 = command) and why."""


def _enum(word: str, table: dict[str, Any], what: str) -> Any:
    try:
        return table[word]
    except KeyError:
        options = "|".join(sorted(table))
        raise ValueError(f"bad {what} {word!r} (expected {options})") from None


def _int(word: str, what: str, minimum: int = 0) -> int:
    try:
        value = int(word)
    except ValueError:
        raise ValueError(f"bad {what} {word!r} (expected integer)") from None
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def _exact(words: list[str], n: int) -> None:
    if len(words) != n + 1:
        raise _Rejected(0, f"{words[0]} takes {n} argument(s), got {len(words) - 1}")


def _arg(words: list[str], i: int, convert: Callable[[str], Any]) -> Any:
    """``convert(words[i])``; a rejected word is blamed by its index."""
    try:
        return convert(words[i])
    except ValueError as err:
        raise _Rejected(i, str(err)) from None


def _one_of(table: dict[str, Any], what: str) -> Callable[[str], Any]:
    return partial(_enum, table=table, what=what)


_BOOLS = {"true": True, "false": False}
_VERB = _one_of({v.value: v for v in Verb}, "action verb")
_FINISHES = {s.value: s for s in (AssignmentStatus.COMPLETE, AssignmentStatus.FAILED)}

# Fixed-arity command -> (parameter name, converter) for each argument in order.
_Spec = tuple[tuple[str, Callable[[str], Any]], ...]
_FIXED: dict[str, _Spec] = {
    "policy": (("policy", _one_of({p.value: p for p in Policy}, "policy")),),
    "network": (("name", str),),
    "purpose": (("network", str), ("token", str)),
    "signup": (
        ("service", str),
        ("network", str),
        ("accept", _one_of({"accept": True, "reject": False}, "decision")),
    ),
    "assign": (
        ("service", str),
        ("responsibility", _one_of({r.value: r for r in Responsibility}, "responsibility")),
    ),
    "assignment": (("id", str), ("service", str)),
    "finish-assignment": (("id", str), ("status", _one_of(_FINISHES, "status"))),
    "detail": (
        ("key", str),
        ("owner", str),
        ("network", str),
        ("privacy", _one_of({p.value: p for p in Privacy}, "privacy")),
        ("value", str),
    ),
    "ttl": (("ticks", partial(_int, what="ttl")),),
    "guard": (("name", str), ("value", _one_of(_BOOLS, "guard value"))),
    "snapshot": (),
}

# verb -> (least positional args after target, (name, converter) of each)
_SUBMIT_ARGS = {
    Verb.COLLECT: (2, (("owner", str), ("purpose", str))),
    Verb.POST: (1, (("veracity", _one_of(_BOOLS, "veracity")), ("payload", str))),
    Verb.TAMPER: (0, (("payload", str),)),
    Verb.SIGNOFF: (0, ()),
    Verb.REVEAL: (1, (("requester", str),)),
}
_NO_ARGS = dict.fromkeys(("owner", "purpose", "veracity", "requester", "payload"))


def parse(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text, rejecting malformed commands with locations."""
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        try:
            builder = _BUILDERS.get(words[0])
            if builder is None:
                raise _Rejected(0, f"unknown command {words[0]!r}")
            commands.append(Command(words[0], lineno, builder(words)))
        except _Rejected as err:
            index, message = err.args
            raise ParseError(lineno, _column(raw, index), message) from None
    return Scenario(tuple(commands), source)


def _column(raw: str, index: int) -> int:
    """1-based column of word ``index`` of a scenario line."""
    body = raw.split("#", 1)[0]
    return [m.start() + 1 for m in re.finditer(r"\S+", body)][index]


def _parse_fixed(words: list[str], spec: _Spec) -> dict[str, Any]:
    _exact(words, len(spec))
    return {name: _arg(words, i, convert) for i, (name, convert) in enumerate(spec, 1)}


def _parse_complete(words: list[str]) -> dict[str, Any]:
    if not 2 <= len(words) <= 3:
        raise _Rejected(0, "complete takes <cid> [failed]")
    if len(words) == 3 and words[2] != "failed":
        raise _Rejected(2, f"expected 'failed', got {words[2]!r}")
    return {"cid": words[1], "failed": len(words) == 3}


def _parse_tick(words: list[str]) -> dict[str, Any]:
    if len(words) > 2:
        raise _Rejected(0, "tick takes at most one argument")
    if len(words) == 2:
        return {"ticks": _arg(words, 1, partial(_int, what="tick count", minimum=1))}
    return {"ticks": 1}


def _parse_submit(words: list[str]) -> dict[str, Any]:
    if len(words) < 5:
        raise _Rejected(0, "submit takes <cid> <service> <verb> <target> [arg...]")
    service, target = words[2], words[4]
    verb = _arg(words, 3, _VERB)
    positional: list[int] = []  # indexes of the words after target
    priority: int | None = None
    guard: str | None = None
    for i in range(5, len(words)):
        word = words[i]
        if word.startswith("prio="):
            priority = _arg(words, i, lambda w: _int(w[5:], "priority"))
        elif word.startswith("if="):
            guard = word[3:]
            if not guard:
                raise _Rejected(i, "if= requires a guard name")
        elif "=" in word:
            raise _Rejected(i, f"unknown option {word!r}")
        else:
            positional.append(i)
    lo, args = _SUBMIT_ARGS[verb]
    if not lo <= len(positional) <= len(args):
        span = str(lo) if lo == len(args) else f"{lo}-{len(args)}"
        raise _Rejected(
            0, f"{words[3]} takes {span} argument(s) after target, got {len(positional)}"
        )
    params = {"cid": words[1], "service": service, "verb": verb, "target": target,
              "priority": priority, "guard": guard, **_NO_ARGS}
    for i, (name, convert) in zip(positional, args):
        params[name] = _arg(words, i, convert)
    if verb is Verb.SIGNOFF and target != service:
        raise _Rejected(4, f"signoff target must be the service itself ({service!r})")
    return params


_BUILDERS: dict[str, Callable[[list[str]], dict[str, Any]]] = {
    verb: partial(_parse_fixed, spec=spec) for verb, spec in _FIXED.items()
}
_BUILDERS.update(submit=_parse_submit, complete=_parse_complete, tick=_parse_tick)

COMMANDS: tuple[str, ...] = tuple(_BUILDERS)
"""Every command word the grammar accepts."""
