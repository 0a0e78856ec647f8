"""Exception types shared across the package, and the number parses that
every spec string goes through.

InputError covers everything a caller can get wrong (bad kinds, out-of-window
elements, malformed JSON); the CLI maps it to exit code 2.  BudgetError marks
searches abandoned because an explicit resource cap was hit, never a wrong
answer.
"""

from fractions import Fraction


class InputError(ValueError):
    """Invalid user input: bad kind, arity mismatch, out-of-window query, ..."""


class BudgetError(RuntimeError):
    """A search exceeded its configured instance/memory budget."""


class UnverifiedPairError(InputError):
    """A pair handed to a property check failed its embeddability precondition."""


class UnionEmbeddingError(InputError):
    """Union-split was asked about a pair that does not embed over the union."""


def parse_int(text: str, what: str) -> int:
    """int(text), with a malformed numeral reported as bad input."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} needs an integer, got {text!r}") from None


def parse_ints(text: str, what: str) -> list[int]:
    """The comma-separated integers in text (empty items skipped)."""
    return [parse_int(x, what) for x in text.split(",") if x]


def parse_fraction(text: str, what: str) -> Fraction:
    """Fraction(text), with a malformed rational reported as bad input."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} needs a rational number, got {text!r}") from None
