"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError and DomainError -> 2
(usage), BudgetExceeded and PrecisionError -> 3 (resource abort).  Failed
mathematical checks are not exceptions; they are reported and drive exit
code 1.  Any other exception is an internal error -> 4, reported as an
internal_error record with the traceback on stderr.
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
