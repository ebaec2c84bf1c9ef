"""Exception hierarchy shared by all fourfold modules, the one check of
integer arguments, the one reading of a decimal numeral, and the one rule
that shows a refused value.

Every public function, constructor and method passes each of its integer
arguments to _int_arg before any work, so what counts as a valid integer (an
int, not a bool, a float or a numeric string, at or above a minimum where the
argument has one) is decided here alone.  Every parser of the package's text
inputs reads a numeral with _numeral, which refuses one too long for int().
Every error that shows an input, or a number that grows with one, shows it
by that rule, _echo: its first 20 characters at most, then `...`.
"""

import reprlib
import sys


class FourfoldError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FourfoldError):
    """Input outside the mathematical domain of the requested operation."""


def _echo(value, show=repr) -> str:
    """value as an error shows it: show (repr) of a str's first 20 characters,
    else the first 20 of an int's digits (the rest dropped unconverted) or of
    reprlib's short repr (a container's first items); then `...` if cut."""
    if isinstance(value, str):
        return show(value[:20]) + ("..." if len(value) > 20 else "")
    if value.__class__ is int:
        # |value| >= 2**(bits - 1), so it has at least drop + 22 digits
        drop = max(0, (abs(value).bit_length() - 1) * 30102999 // 10**8 - 21)
        text = ("-" if value < 0 else "") + str(abs(value) // 10**drop)
    else:
        try:
            text = reprlib.repr(value)
        except ValueError:  # an item's int past the limit
            text = f"<{type(value).__name__}>"
    return text[:20] + ("..." if len(text) > 20 else "")


def _int_arg(name: str, value, minimum=None):
    """DomainError unless value is an int (a bool is not), >= minimum if given."""
    if value.__class__ is not int:
        raise DomainError(f"{name} must be an int, got {_echo(value)}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {_echo(minimum)}, got {_echo(value)}")


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
        self.index, self.max_index = index, max_index
        super().__init__(f"stem index {_echo(index)} requested but table ends at "
                         f"{_echo(max_index)}")


class ParseError(FourfoldError):
    """Malformed stems-table document."""


class ValidationError(FourfoldError):
    """Well-formed stems-table document with invalid content."""


def _numeral(name: str, text: str, error=DomainError) -> int:
    """The int a decimal numeral spells (text.isdecimal() holds).

    error "NAME has more than LIMIT digits" where its digits, leading zeros
    skipped, are more than int() converts from text
    (sys.get_int_max_str_digits()): the numeral is refused without being
    converted, so the message cannot fail printing it.
    """
    try:
        return int(text)
    except ValueError:  # the limit counts leading zeros too
        first = next((i for i, c in enumerate(text) if int(c)), len(text) - 1)
        try:
            return int(text[first:])
        except ValueError:
            raise error(f"{name} has more than {sys.get_int_max_str_digits()} digits") from None
