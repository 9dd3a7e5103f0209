"""Exception types shared across the package."""

from __future__ import annotations


class MWSSError(Exception):
    """Base class for all package errors."""


class GraphInputError(MWSSError, ValueError):
    """Raised when an argument violates an operation's precondition."""


class GraphParseError(MWSSError, ValueError):
    """Raised on malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class StructuralError(MWSSError):
    """A structural contract of the solver pipeline failed.

    This signals that the input graph is outside the supported class
    (contains a claw or net, or has stability number below 4 where at
    least 4 is required).  ``witness`` carries the offending nodes, in a
    shape that depends on ``kind``; ``detail`` is the message without it.
    """

    def __init__(self, kind: str, witness: tuple, message: str = ""):
        self.kind = kind
        self.witness = tuple(witness)
        self.detail = message or f"structural contract violated ({kind})"
        super().__init__(f"{self.detail}; witness={self.witness}")


class OracleSizeError(MWSSError):
    """The brute-force oracle refused an instance above its size guard."""
