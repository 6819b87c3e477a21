"""Exception types raised by the library, the budget that BudgetExceeded
enforces (the one parse of FOURFOLD_BUDGET, and the budget(n) scope that
sets it for a call), and the one charge against it."""

import contextlib
import contextvars
import functools
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


def budget_from_environment():
    """FOURFOLD_BUDGET read now (100000 when unset), the one parse of the
    variable: a value that is not a non-negative integer is a
    ParseError."""
    raw = os.environ.get("FOURFOLD_BUDGET", "100000")
    try:
        n = int(raw)
    except ValueError:
        raise ParseError("FOURFOLD_BUDGET must be an integer, got %r" % raw) from None
    if n < 0:
        raise ParseError("FOURFOLD_BUDGET must not be negative, got %r" % raw)
    return n


# The budget of the innermost budget() scope.  Outside every scope the
# environment's, parsed on first use and kept for the process; a failed
# parse is not kept, so it is refused again on the next use.
_BUDGET = contextvars.ContextVar("fourfold_budget", default=None)
_session_budget = functools.lru_cache(maxsize=1)(budget_from_environment)


def generator_budget():
    """The one size limit of the package: the bar construction, the
    resolution build (its length, its largest norm element and its
    largest boundary), the Kreck orbit search, the lens witness walk and
    a bare matrix document read by the command line are charged against
    it.  It is the n of the innermost budget(n) scope; outside every
    scope it is FOURFOLD_BUDGET, read once, on first use.  A memo of
    charged work takes this value as a key argument, so a hit is an
    answer that the same budget admitted."""
    n = _BUDGET.get()
    return _session_budget() if n is None else n


@contextlib.contextmanager
def budget(n):
    """Charge the calls of a with block against the budget n instead of
    FOURFOLD_BUDGET.  The command line runs each verb in the scope of the
    variable as it reads it for that call."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ParseError("a budget must be a non-negative integer, got %r" % (n,))
    token = _BUDGET.set(n)
    try:
        yield n
    finally:
        _BUDGET.reset(token)


def _too_long(n):
    """Does n have more digits than str() writes (sys.get_int_max_str_digits)?"""
    try:
        str(n)
    except ValueError:
        return True
    return False


def _printable(n):
    """str(n), or "at least 10^N" for an integer with more digits than
    str() writes (sys.get_int_max_str_digits): N = floor((bits - 1) x
    0.30102) <= log10(n), a lower bound that needs no decimal digits."""
    if _too_long(n):
        return "at least 10^%d" % ((n.bit_length() - 1) * 30102 // 100000)
    return str(n)


def charge(need, what, *args):
    """Refuse work of size need above the budget, before it allocates:
    raise BudgetExceeded("<what % args>, budget N").  The message is
    formatted only on refusal, each argument through %s as _printable
    writes it, so a need too long to print still refuses."""
    limit = generator_budget()
    if need > limit:
        raise BudgetExceeded("%s, budget %d" % (what % tuple(map(_printable, args)), limit))
