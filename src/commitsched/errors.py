"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error the engine raises deliberately."""


# --- commitment model ---------------------------------------------------

class InvalidContent(EngineError):
    """Content action is malformed (missing verb-specific arguments, bad target)."""


class MismatchedResponsibility(EngineError):
    """Responsibility does not pair with the content verb."""


class DuplicateId(EngineError):
    """Commitment id was already used in this run."""


class UnknownDetail(EngineError):
    """Referenced detail key does not exist in the world."""


# --- scheduler ----------------------------------------------------------

class UnknownId(EngineError):
    """No active commitment with this id."""


class NonEmptyQueue(EngineError):
    """Policy switches are only allowed while the wait queue is empty."""


# --- world / governance -------------------------------------------------

class UnknownNetwork(EngineError):
    """Referenced network does not exist."""


class UnknownService(EngineError):
    """Service holds no membership in any network."""


class UnknownAssignment(EngineError):
    """No assignment with this id."""


class DuplicateDetail(EngineError):
    """Detail key already exists."""


class DuplicateAssignment(EngineError):
    """Assignment id already exists."""


class IllegalStatusChange(EngineError):
    """Assignment status may only move from ongoing to complete/failed."""


class OwnerNotMember(EngineError):
    """Detail owner must be a member of the detail's network."""


class AlreadyMember(EngineError):
    """Service is already registered in this network."""


# --- scenario / simulator -------------------------------------------------

class ParseError(EngineError):
    """Scenario text rejected, with line/column location."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class ScenarioRuntimeError(EngineError):
    """A command failed while executing; carries the offending line."""

    def __init__(self, line: int, command: str, message: str):
        super().__init__(f"line {line} ({command}): {message}")
        self.line = line
        self.command = command
        self.reason = message


# --- oracle ---------------------------------------------------------------

class InstanceTooLarge(EngineError):
    """Brute-force instance exceeds the enumeration bound."""
