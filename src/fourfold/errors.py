"""Exception types raised by the library, and the one reader of the
budget that BudgetExceeded enforces."""

import os


class FourfoldError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FourfoldError):
    """Matrix or vector shapes are incompatible."""


class GroupMismatch(FourfoldError):
    """Operands live over different group rings."""


class InfiniteGroup(FourfoldError):
    """Operation requires a finite group."""


class UnsupportedGroup(FourfoldError):
    """Group shape outside the supported families or budget."""


class UnsupportedCharacter(FourfoldError):
    """Orientation character not admissible for the requested operation."""


class NotAComplex(FourfoldError):
    """Boundary maps fail d.d = 0; carries the offending degree."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or "d_%d . d_%d != 0" % (degree - 1, degree))


class DegreeOutOfRange(FourfoldError):
    """Requested homological degree not present in the complex."""


class BudgetExceeded(FourfoldError):
    """Work above the configured generator budget."""


class NotACycle(FourfoldError):
    """Input chain is not a cycle."""


class ContextMismatch(FourfoldError):
    """Extension classes built over different contexts cannot be combined."""


class TypeMismatch(FourfoldError):
    """Records to compare carry different groups or characters."""


class HypothesisViolated(FourfoldError):
    """Input data outside the hypotheses of the requested invariant."""


class OrderMismatch(FourfoldError):
    """Linking forms on groups of different orders."""


class InvalidLens(FourfoldError):
    """Lens space parameters must be coprime with p >= 2."""


class ParseError(FourfoldError):
    """Malformed input document."""


class FrozenField(FourfoldError, AttributeError):
    """A field of a frozen value cannot be assigned or deleted."""


def generator_budget():
    """Size cap of the bar construction, of the top boundary of a
    resolution, of the Kreck orbit search and of the lens witness
    searches; override with the FOURFOLD_BUDGET variable."""
    raw = os.environ.get("FOURFOLD_BUDGET", "100000")
    try:
        return int(raw)
    except ValueError:
        raise ParseError("FOURFOLD_BUDGET must be an integer, got %r" % raw) from None
