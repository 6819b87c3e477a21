"""Exception types raised by the library, the one reader of the budget
that BudgetExceeded enforces, and the one charge against it."""

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
    """Group shape outside the supported families."""


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
    """The one size limit of the package: the bar construction, the
    resolution build (its length, its largest norm element and its
    largest boundary), the Kreck orbit search, the lens witness walk and
    a bare matrix document read by the command line are charged against
    it.  Override with the FOURFOLD_BUDGET variable; a value that is not
    a non-negative integer is a ParseError."""
    raw = os.environ.get("FOURFOLD_BUDGET", "100000")
    try:
        budget = int(raw)
    except ValueError:
        raise ParseError("FOURFOLD_BUDGET must be an integer, got %r" % raw) from None
    if budget < 0:
        raise ParseError("FOURFOLD_BUDGET must not be negative, got %r" % raw)
    return budget


def _printable(n):
    """str(n), or "at least 10^N" for an integer with more digits than
    str() writes (sys.get_int_max_str_digits): N = floor((bits - 1) x
    0.30102) <= log10(n), a lower bound that needs no decimal digits."""
    try:
        return str(n)
    except ValueError:
        return "at least 10^%d" % ((n.bit_length() - 1) * 30102 // 100000)


def charge(need, what, *args):
    """Refuse work of size need above the budget, before it allocates:
    raise BudgetExceeded("<what % args>, budget N").  The message is
    formatted only on refusal, each argument through %s as _printable
    writes it, so a need too long to print still refuses."""
    budget = generator_budget()
    if need > budget:
        raise BudgetExceeded("%s, budget %d" % (what % tuple(map(_printable, args)), budget))
