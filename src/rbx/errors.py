"""Exception types shared across the toolkit, and `require`, the one
precondition gate of the constructive builders."""

from __future__ import annotations


class ToolkitError(Exception):
    pass


class FieldError(ToolkitError, ValueError):
    """Bad field specification, or arithmetic across different fields."""


class PayloadError(ToolkitError, TypeError):
    """A checker received data of the wrong shape for the requested kind."""


class StructureError(ToolkitError, ValueError):
    """A structure failed its construction-time axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PreconditionError(ToolkitError, ValueError):
    """A constructive operation refused because a verified hypothesis failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def require(report, message):
    """The one precondition gate of the constructive builders: refuse with
    `PreconditionError(message, report)` unless `report` passed."""
    if not report.passed:
        raise PreconditionError(message, report)


class BudgetError(ToolkitError, ValueError):
    """A search space exceeds the configured candidate budget."""


class ParseError(ToolkitError, ValueError):
    """Syntax or semantic error in the text input format."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)
