"""Exception hierarchy shared by all fourfold modules."""


class FourfoldError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FourfoldError):
    """Input outside the mathematical domain of the requested operation."""


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
