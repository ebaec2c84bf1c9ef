"""Exception hierarchy shared by all fourfold modules, and the one check of
integer arguments.

Every public function, constructor and method passes each of its integer
arguments to _int_arg before any work, so what counts as a valid integer (an
int, not a bool, a float or a numeric string, at or above a minimum where the
argument has one) is decided here alone.
"""


class FourfoldError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FourfoldError):
    """Input outside the mathematical domain of the requested operation."""


def _int_arg(name: str, value, minimum=None):
    """DomainError unless value is an int (a bool is not), >= minimum if given."""
    if value.__class__ is not int:
        raise DomainError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


class UngradedGenerator(DomainError):
    """Generator multiplicities include a degree-0 generator."""


class InternalInconsistency(FourfoldError):
    """Two independent computations of the same value disagree.

    This signals a bug (typically a sign-convention slip), never bad input.
    """


class ResourceLimit(FourfoldError):
    """A computation would exceed the configured size budget."""


class InsufficientStemsData(FourfoldError):
    """A stable-stems lookup needs an index beyond the loaded table."""

    def __init__(self, index: int, max_index: int):
        self.index = index
        self.max_index = max_index
        super().__init__(
            f"stem index {index} requested but table ends at {max_index}"
        )


class ParseError(FourfoldError):
    """Malformed stems-table document."""


class ValidationError(FourfoldError):
    """Well-formed stems-table document with invalid content."""
