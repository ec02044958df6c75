"""Exception taxonomy for the toolkit.

Validation-style errors (bad user input, a malformed circuit file included)
derive from ValidationError so the CLI can map them to exit code 1;
everything else maps to exit code 2.
"""


class QsearchError(Exception):
    """Base class for all toolkit errors.

    An error that a run over the keys of a template (a circuit is a template
    without holes, with one key) raises for one key sets circuit to that
    key's index.
    """

    circuit: int | None = None


class ValidationError(QsearchError):
    """Bad input that a caller could have checked up front."""


# circuit IR
class IndexOutOfRange(ValidationError):
    pass


class UnwrittenClassicalBit(ValidationError):
    pass


class RewrittenClassicalBit(ValidationError):
    pass


class NotLowered(ValidationError):
    """Circuit contains a gate the census cannot count; carries the index."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"instruction {index}: {message}")


class ParseError(ValidationError):
    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


# synthesis
class BadArity(ValidationError):
    pass


class BadMask(ValidationError):
    pass


class MethodArityMismatch(ValidationError):
    pass


class MissingAncilla(ValidationError):
    pass


# families
class UnsupportedPartition(ValidationError):
    pass


class BadDiffuserSize(ValidationError):
    pass


class BadWidth(ValidationError):
    pass


# simulation
class TooWide(ValidationError):
    pass


class OverBudget(ValidationError):
    """A run would need more memory than the simulator's stated budget."""


class UndefinedGateSemantics(ValidationError):
    pass


# analysis
class WidthMismatch(ValidationError):
    pass


class EmptyRunList(ValidationError):
    pass


class ZeroTheoretical(ValidationError):
    pass


class BadQ(ValidationError):
    pass


class ZeroSuccess(ValidationError):
    pass


class BadCounts(ValidationError):
    pass


# cli
class ConfigError(ValidationError):
    pass


# internal checks
class InternalError(QsearchError):
    """A check of the toolkit's own work failed; no input could have avoided it."""
