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

Each command parses once to ``Command(verb, line, args)``: ``args`` is a
tuple in the order of the parameters of the simulator's handler for the
verb, which is called as ``handler(sim, *args)``. A word that stays a
string is taken as it is; enum words and integers are converted. A
submit's args are ``(cid, service, verb, target, priority, guard, owner,
purpose, veracity, requester, payload)``, with ``None`` in every slot
its verb leaves unused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

from .errors import ParseError
from .model import Privacy, Responsibility, Verb
from .scheduler import Policy
from .world import AssignmentStatus


class Command(NamedTuple):
    """One validated scenario command: ``args`` are its handler's arguments in order."""

    verb: str
    line: int
    args: tuple[Any, ...] = ()


# ``Command(verb, line, args)`` without the Python-level ``__new__`` call.
_command = partial(tuple.__new__, Command)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: ordered commands plus the source name."""

    commands: tuple[Command, ...]
    source: str = "<string>"


class _Rejected(Exception):
    """Raised as ``(index, message)``: the word at fault (0 = command) and why."""


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


class _OneOf(dict):
    """An enum word's table; an unknown word raises ``ValueError`` naming the options."""

    def __init__(self, table: dict[str, Any], what: str):
        super().__init__(table)
        self.what = what

    def __missing__(self, word: str) -> Any:
        options = "|".join(sorted(self))
        raise ValueError(f"bad {self.what} {word!r} (expected {options})")


def _one_of(table: dict[str, Any], what: str) -> Callable[[str], Any]:
    """The converter of an enum word: a lookup with no Python-level call."""
    return _OneOf(table, what).__getitem__


_BOOLS = {"true": True, "false": False}
_VERB = _one_of({v.value: v for v in Verb}, "action verb")
_FINISHES = {s.value: s for s in (AssignmentStatus.COMPLETE, AssignmentStatus.FAILED)}

# Fixed-arity command -> the converter of each argument, in handler order.
# A ``str`` argument is taken as it is, with no call.
_Spec = tuple[Callable[[str], Any], ...]
_FIXED: dict[str, _Spec] = {
    "policy": (_one_of({p.value: p for p in Policy}, "policy"),),
    "network": (str,),
    "purpose": (str, str),
    "signup": (str, str, _one_of({"accept": True, "reject": False}, "decision")),
    "assign": (str, _one_of({r.value: r for r in Responsibility}, "responsibility")),
    "assignment": (str, str),
    "finish-assignment": (str, _one_of(_FINISHES, "status")),
    "detail": (str, str, str, _one_of({p.value: p for p in Privacy}, "privacy"), str),
    "ttl": (partial(_int, what="ttl"),),
    "guard": (str, _one_of(_BOOLS, "guard value")),
    "snapshot": (),
}

# Indexes of the verb slots in a submit's args, which follow
# (cid, service, verb, target, priority, guard) in handler order.
_OWNER, _PURPOSE, _VERACITY, _REQUESTER, _PAYLOAD = range(6, 11)

# verb -> (least positional args after target, (slot, converter) of each)
_SUBMIT_ARGS = {
    Verb.COLLECT: (2, ((_OWNER, str), (_PURPOSE, str))),
    Verb.POST: (1, ((_VERACITY, _one_of(_BOOLS, "veracity")), (_PAYLOAD, str))),
    Verb.TAMPER: (0, ((_PAYLOAD, str),)),
    Verb.SIGNOFF: (0, ()),
    Verb.REVEAL: (1, ((_REQUESTER, str),)),
}


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
            commands.append(_command((words[0], lineno, builder(words))))
        except _Rejected as err:
            index, message = err.args
            raise ParseError(lineno, _column(raw, index), message) from None
    return Scenario(tuple(commands), source)


def _column(raw: str, index: int) -> int:
    """1-based column of word ``index`` of a scenario line."""
    body = raw.split("#", 1)[0]
    return [m.start() + 1 for m in re.finditer(r"\S+", body)][index]


def _parse_fixed(words: list[str], spec: _Spec) -> tuple[Any, ...]:
    _exact(words, len(spec))
    args = words[1:]
    for i, convert in enumerate(spec):
        if convert is not str:
            args[i] = _arg(words, i + 1, convert)
    return tuple(args)


def _parse_complete(words: list[str]) -> tuple[str, bool]:
    if not 2 <= len(words) <= 3:
        raise _Rejected(0, "complete takes <cid> [failed]")
    if len(words) == 3 and words[2] != "failed":
        raise _Rejected(2, f"expected 'failed', got {words[2]!r}")
    return words[1], len(words) == 3


def _parse_tick(words: list[str]) -> tuple[int]:
    if len(words) > 2:
        raise _Rejected(0, "tick takes at most one argument")
    if len(words) == 2:
        return (_arg(words, 1, partial(_int, what="tick count", minimum=1)),)
    return (1,)


def _parse_submit(words: list[str]) -> tuple[Any, ...]:
    if len(words) < 5:
        raise _Rejected(0, "submit takes <cid> <service> <verb> <target> [arg...]")
    service, target = words[2], words[4]
    try:  # _arg inlined: this lookup runs once per submit
        verb = _VERB(words[3])
    except ValueError as err:
        raise _Rejected(3, str(err)) from None
    positional: list[int] = []  # indexes of the words after target
    priority: int | None = None
    guard: str | None = None
    for i in range(5, len(words)):
        word = words[i]
        if "=" not in word:
            positional.append(i)
        elif word.startswith("prio="):
            priority = _arg(words, i, lambda w: _int(w[5:], "priority"))
        elif word.startswith("if="):
            guard = word[3:]
            if not guard:
                raise _Rejected(i, "if= requires a guard name")
        else:
            raise _Rejected(i, f"unknown option {word!r}")
    lo, slots = _SUBMIT_ARGS[verb]
    if not lo <= len(positional) <= len(slots):
        span = str(lo) if lo == len(slots) else f"{lo}-{len(slots)}"
        raise _Rejected(
            0, f"{words[3]} takes {span} argument(s) after target, got {len(positional)}"
        )
    args = [words[1], service, verb, target, priority, guard, None, None, None, None, None]
    for i, (slot, convert) in zip(positional, slots):
        args[slot] = words[i] if convert is str else _arg(words, i, convert)
    # Also checked by model.new_commitment, which guards library callers;
    # this copy can name the column.
    if verb is Verb.SIGNOFF and target != service:
        raise _Rejected(4, f"signoff target must be the service itself ({service!r})")
    return tuple(args)


_BUILDERS: dict[str, Callable[[list[str]], tuple[Any, ...]]] = {
    verb: partial(_parse_fixed, spec=spec) for verb, spec in _FIXED.items()
}
_BUILDERS.update(submit=_parse_submit, complete=_parse_complete, tick=_parse_tick)

COMMANDS: tuple[str, ...] = tuple(_BUILDERS)
"""Every command word the grammar accepts."""
