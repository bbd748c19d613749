"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError and DomainError -> 2
(usage), BudgetExceeded and PrecisionError -> 3 (resource abort),
IdentityFailure -> 1 (a mathematical check failed) and InvariantError -> 4
(an internal error).  Most failed checks are not exceptions: a report
records them and they drive exit code 1; IdentityFailure is for the
checks made inside a construction, which cannot return a report.  Any
other exception is an internal error -> 4 too.  Both internal errors are
reported as an internal_error record with the traceback on stderr.
"""


class JlcsError(Exception):
    """Base class for all package errors."""


class ValidationError(JlcsError):
    """Invalid parameters or preconditions violated by the caller."""


class BudgetExceeded(JlcsError):
    """An enumeration would evaluate more tuples than the configured budget."""


class PrecisionError(JlcsError):
    """A result would need coefficient data beyond the available precision."""


class DomainError(JlcsError):
    """An operation was applied outside its mathematical domain."""


class DecompositionError(DomainError):
    """A group element does not lie in the subgroup the character lives on."""


class IdentityFailure(JlcsError):
    """An identity of the verified mathematics failed inside a computation
    (a lemma of the paper checked on the way, not a caller error)."""


class InvariantError(JlcsError):
    """An internal invariant of the implementation broke: a bug in the
    code, never a statement about the mathematics."""
