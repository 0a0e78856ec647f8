"""Exception types shared across the package, and the integer parse that
every spec string goes through.

InputError covers everything a caller can get wrong (bad kinds, out-of-window
elements, malformed JSON); the CLI maps it to exit code 2.  BudgetError marks
searches abandoned because an explicit resource cap was hit, never a wrong
answer.
"""


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
