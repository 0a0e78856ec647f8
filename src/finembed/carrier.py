"""Finite windows of concrete semigroups and sets living inside them.

A Window is a closed truncation of a semigroup carrier: products that land
outside the window come back as None instead of wrapping, so every
downstream search can treat "left the window" as "candidate rejected".
Elements are payloads: ints on the numeric kinds, strings on words, a
table's own values.  Four kinds are supported:

  additive-naturals        values 0..W under +
  multiplicative-naturals  values 1..W under *
  free-words               nonempty words of length <= L over a finite
                           alphabet, under concatenation (no identity)
  table                    an explicit finite operation table

Canonical element order is ascending value for numeric carriers and
length-then-lexicographic for words; encodings are indices into that order.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, parse_int

ADDITIVE = "additive-naturals"
MULTIPLICATIVE = "multiplicative-naturals"
FREE_WORDS = "free-words"
TABLE = "table"

# Hard cap on window size so word windows cannot blow up the encoding space.
MAX_WINDOW_SIZE = 1 << 20
_TOO_LARGE = (f"bound-too-large: window would hold more than "
              f"{MAX_WINDOW_SIZE} elements")

# Deepest nesting of predicates and family terms, so that each one parses
# and evaluates within the interpreter's recursion limit.
MAX_NESTING = 64

Payload = int | str


class Window:
    """Immutable finite truncation of a semigroup carrier.

    Do not instantiate directly; use make_window / make_table_window.
    """

    def __init__(self, kind: str, bound: int, alphabet: tuple[str, ...] | None,
                 payloads: Sequence[Payload] | None,
                 table: Sequence[Sequence[int | None]] | None):
        self.kind = kind
        self.bound = bound
        self.alphabet = alphabet
        self._payloads = list(payloads) if payloads is not None else None
        self._table = table
        if kind == ADDITIVE:
            self.size = bound + 1
        elif kind == MULTIPLICATIVE:
            self.size = bound
        elif kind == FREE_WORDS:
            assert alphabet is not None
            a = len(alphabet)
            if a > 1 and bound > 20:  # 2^22 - 2 words or more, past the cap
                raise InputError(_TOO_LARGE)
            self.size = (a ** (bound + 1) - a) // (a - 1) if a > 1 else bound
            # _starts[n - 1]: the encoding of the first word of length n, the
            # number of shorter words
            self._starts = (range(bound) if a == 1 else [
                (a ** n - a) // (a - 1) for n in range(1, bound + 1)])
        else:
            assert self._payloads is not None
            self.size = len(self._payloads)
        if self.size > MAX_WINDOW_SIZE:
            raise InputError(_TOO_LARGE)
        self._letter_index = {c: i for i, c in enumerate(alphabet or ())}
        self._enc_of: dict[Payload, int] | None = None
        if self._payloads is not None:
            self._enc_of = {p: i for i, p in enumerate(self._payloads)}
        self.identity_enc = self._find_identity()
        # The key that sorts payloads in encoding order; None on the numeric
        # kinds, where value order already is encoding order.
        self.sort_key = (None if kind in (ADDITIVE, MULTIPLICATIVE)
                         else self.encoding)

    # -- canonical order -------------------------------------------------

    def payload(self, enc: int) -> Payload:
        """Value at canonical position enc (int for numeric, str for words)."""
        if not 0 <= enc < self.size:
            raise InputError(f"element-out-of-window: encoding {enc}")
        if self.kind == ADDITIVE:
            return enc
        if self.kind == MULTIPLICATIVE:
            return enc + 1
        if self.kind == FREE_WORDS:
            return self._word_of_enc(enc)
        return self._payloads[enc]  # type: ignore[index]

    def encoding(self, value: Payload) -> int:
        if self.kind == ADDITIVE:
            if isinstance(value, int) and 0 <= value <= self.bound:
                return value
        elif self.kind == MULTIPLICATIVE:
            if isinstance(value, int) and 1 <= value <= self.bound:
                return value - 1
        elif self.kind == FREE_WORDS:
            if isinstance(value, str):
                return self._enc_of_word(value)
        else:
            assert self._enc_of is not None
            if value in self._enc_of:
                return self._enc_of[value]
        raise InputError(f"element-out-of-window: {value!r}")

    def contains_value(self, value: Payload) -> bool:
        try:
            self.encoding(value)
        except InputError:
            return False
        return True

    def parse(self, text: str) -> Payload:
        """The payload text names: a numeral's int on the numeric kinds, the
        text itself otherwise.  Whether it lies in the window is encoding's
        check."""
        if self.kind not in (ADDITIVE, MULTIPLICATIVE):
            return text
        try:
            return int(text)
        except ValueError as exc:
            raise InputError(f"unparseable numeral {text!r}") from exc

    def payloads(self) -> Iterator[Payload]:
        return map(self.payload, range(self.size))

    # -- words -----------------------------------------------------------

    def split_word(self, enc: int) -> tuple[int, int]:
        """(n, rank): the length of the word at encoding enc and its
        letters read as base-a digits, its rank among the words of length n."""
        n = bisect_right(self._starts, enc)
        return n, enc - self._starts[n - 1]

    def join_word(self, n: int, rank: int) -> int:
        """The encoding of the word of length n and rank rank."""
        return self._starts[n - 1] + rank

    def _word_of_enc(self, enc: int) -> str:
        (n, rank), letters = self.split_word(enc), self.alphabet
        a = len(letters)  # type: ignore[arg-type]
        return "".join(letters[rank // a ** i % a]  # type: ignore[index]
                       for i in range(n - 1, -1, -1))

    def _enc_of_word(self, word: str) -> int:
        if not word or len(word) > self.bound:
            raise InputError(f"element-out-of-window: {word!r}")
        rank, a, index = 0, len(self.alphabet), self._letter_index  # type: ignore[arg-type]
        for ch in word:
            if ch not in index:
                raise InputError(f"letter {ch!r} not in alphabet")
            rank = rank * a + index[ch]
        return self.join_word(len(word), rank)

    # -- the operation ---------------------------------------------------

    def op_payload(self, x: Payload, y: Payload) -> Payload | None:
        """x*y at payload level; None encodes overflow."""
        if self.kind == ADDITIVE:
            z = x + y  # type: ignore[operator]
            return z if z <= self.bound else None
        if self.kind == MULTIPLICATIVE:
            z = x * y  # type: ignore[operator]
            return z if z <= self.bound else None
        if self.kind == FREE_WORDS:
            z = x + y  # type: ignore[operator]
            return z if len(z) <= self.bound else None
        enc = self._table[self.encoding(x)][self.encoding(y)]  # type: ignore[index]
        return None if enc is None else self.payload(enc)

    def op_enc(self, i: int, j: int) -> int | None:
        if self.kind == TABLE:
            if not (0 <= i < self.size and 0 <= j < self.size):
                raise InputError("element-out-of-window")
            return self._table[i][j]  # type: ignore[index]
        z = self.op_payload(self.payload(i), self.payload(j))
        return None if z is None else self.encoding(z)

    def _find_identity(self) -> int | None:
        if self.kind == ADDITIVE:
            return 0
        if self.kind == MULTIPLICATIVE:
            return 0  # payload 1
        if self.kind == FREE_WORDS:
            return None
        for e in range(self.size):
            if all(self._table[e][x] == x and self._table[x][e] == x  # type: ignore[index]
                   for x in range(self.size)):
                return e
        return None

    def compatible(self, other: "Window") -> bool:
        return (self.kind == other.kind and self.bound == other.bound
                and self.alphabet == other.alphabet
                and self._table == other._table
                and self._payloads == other._payloads)

    def __repr__(self) -> str:
        extra = f", alphabet={''.join(self.alphabet)}" if self.alphabet else ""
        return f"Window({self.kind}, bound={self.bound}{extra}, size={self.size})"


def make_window(kind: str, bound: int,
                alphabet: Iterable[str] | None = None) -> Window:
    """Build a window of one of the named kinds.

    bound is the inclusive value cap for numeric carriers and the maximum
    word length for free-words.
    """
    if kind not in (ADDITIVE, MULTIPLICATIVE, FREE_WORDS):
        raise InputError(f"invalid-kind: {kind!r}")
    if bound < 1:
        raise InputError("bound must be >= 1")
    letters: tuple[str, ...] | None = None
    if kind == FREE_WORDS:
        letters = tuple(alphabet or ())
        if not letters:
            raise InputError("empty-alphabet: free-words needs letters")
        if any(len(c) != 1 for c in letters) or len(set(letters)) != len(letters):
            raise InputError("alphabet must be distinct single characters")
    elif alphabet:
        raise InputError(f"alphabet only applies to {FREE_WORDS}")
    return Window(kind, bound, letters, None, None)


def make_table_window(payloads: Sequence[Payload],
                      op: Callable[[Payload, Payload], Payload | None]) -> Window:
    """Window over an explicit element list with a user-supplied operation.

    op returns the product payload, or None for overflow.  Associativity is
    checked on construction (check_associative).
    """
    if not payloads:
        raise InputError("table window needs at least one element")
    if len(set(payloads)) != len(payloads):
        raise InputError("duplicate payloads in table window")
    enc_of = {p: i for i, p in enumerate(payloads)}
    n = len(payloads)
    table: list[list[int | None]] = []
    for x in payloads:
        row: list[int | None] = []
        for y in payloads:
            z = op(x, y)
            if z is None:
                row.append(None)
            elif z in enc_of:
                row.append(enc_of[z])
            else:
                raise InputError(f"operation escapes the table: {x!r}*{y!r}={z!r}")
        table.append(row)
    win = Window(TABLE, n, None, payloads, table)
    if not check_associative(win):
        raise InputError("operation table is not associative on the window")
    return win


def check_associative(window: Window) -> bool:
    """(x*y)*z == x*(y*z) whenever all intermediate products stay in-window.

    Exhaustive for windows of <= 64 elements; above that, 20000 random
    triples from a fixed seed.
    """
    n = window.size

    def ok(i: int, j: int, k: int) -> bool:
        ij = window.op_enc(i, j)
        jk = window.op_enc(j, k)
        if ij is None or jk is None:
            return True
        left = window.op_enc(ij, k)
        right = window.op_enc(i, jk)
        if left is None or right is None:
            return True
        return left == right

    if n <= 64:
        return all(ok(i, j, k)
                   for i in range(n) for j in range(n) for k in range(n))
    rng = random.Random(0)
    return all(ok(rng.randrange(n), rng.randrange(n), rng.randrange(n))
               for _ in range(20000))


def op_apply(window: Window, x: Payload, y: Payload) -> Payload | None:
    """x*y for two payloads of the window; None if it leaves the window."""
    z = window.op_enc(window.encoding(x), window.encoding(y))
    return None if z is None else window.payload(z)


class GroundSet:
    """A subset of a window: one byte per encoding, 1 for a member.

    Explicit sets are filled on construction; predicate sets fill a prefix
    of the encodings on demand and memoize it.  Builtin predicates carry a
    vector form (see parse_predicate), which numeric windows call once, at
    the first read, for the whole window; any other predicate is evaluated
    one element at a time, and only up to the encoding asked for.

    Membership queries outside the window raise InputError rather than
    answering False.  Instances are immutable from the caller's view; the
    predicate cache only ever grows monotonically, so concurrent readers see
    consistent answers.
    """

    def __init__(self, window: Window, *, members: bytearray | None = None,
                 predicate: Callable[[Payload], bool] | None = None,
                 label: str = ""):
        if (members is None) == (predicate is None):
            raise InputError("exactly one of members/predicate required")
        self.window = window
        self.label = label
        self._mem = members if members is not None else bytearray(window.size)
        self._arr = np.frombuffer(self._mem, dtype=np.uint8)
        self._pred = predicate
        self._vector = (getattr(predicate, "vector", None)
                        if window.kind in (ADDITIVE, MULTIPLICATIVE) else None)
        self._known_upto = window.size if members is not None else 0
        self.explicit = members is not None
        self._bitset: tuple[bytes, int] | None = None

    @classmethod
    def from_values(cls, window: Window, values: Iterable[Payload],
                    label: str = "") -> "GroundSet":
        return cls.from_encodings(window, map(window.encoding, values), label)

    @classmethod
    def from_encodings(cls, window: Window, encs: Iterable[int],
                       label: str = "") -> "GroundSet":
        """The set of the elements at the encodings encs, each in range."""
        mem = bytearray(window.size)
        for e in encs:
            mem[e] = 1
        return cls(window, members=mem, label=label)

    @classmethod
    def from_predicate(cls, window: Window, pred: Callable[[Payload], bool],
                       label: str = "") -> "GroundSet":
        return cls(window, predicate=pred, label=label)

    @classmethod
    def full(cls, window: Window, label: str = "window") -> "GroundSet":
        return cls(window, members=bytearray(b"\x01") * window.size,
                   label=label)

    @classmethod
    def empty(cls, window: Window, label: str = "empty") -> "GroundSet":
        return cls(window, members=bytearray(window.size), label=label)

    def _fill_to(self, enc: int) -> None:
        """Make encodings 0..enc known.  A vector predicate fills the whole
        window in one call; any other predicate stops at enc."""
        self._extend(enc if self._vector is None else self.window.size - 1)

    def _extend(self, upto: int) -> None:
        if self._vector is not None:
            first, size = self.window.payload(0), self.window.size
            self._arr[:] = self._vector(first + size)[first:]
        else:
            mem, pred, payload = self._mem, self._pred, self.window.payload
            for enc in range(self._known_upto, upto + 1):
                if pred(payload(enc)):  # type: ignore[misc]
                    mem[enc] = 1
        self._known_upto = upto + 1

    def contains_enc(self, enc: int) -> bool:
        if not 0 <= enc < self.window.size:
            raise InputError(f"membership query outside window: encoding {enc}")
        if enc >= self._known_upto:
            self._fill_to(enc)
        return self._mem[enc] == 1

    def contains_value(self, value: Payload) -> bool:
        return self.contains_enc(self.window.encoding(value))

    def __contains__(self, value: Payload) -> bool:
        return self.contains_value(value)

    def iter_enc(self) -> Iterator[int]:
        """Member encodings in ascending order, filling only as far as the
        iteration gets."""
        mem, size = self._mem, self.window.size
        enc = 0
        while enc < size:
            if enc >= self._known_upto:
                self._fill_to(enc)
            hit = mem.find(1, enc, self._known_upto)
            if hit < 0:
                enc = self._known_upto
            else:
                yield hit
                enc = hit + 1

    def values(self) -> Iterator[Payload]:
        return map(self.window.payload, self.iter_enc())

    def array(self) -> np.ndarray:
        """Membership over all encodings as a read-only uint8 array, 1 for a
        member; a zero-copy view (forces full evaluation)."""
        if self._known_upto < self.window.size:
            self._extend(self.window.size - 1)
        view = self._arr.view()
        view.flags.writeable = False
        return view

    def bitset(self) -> tuple[bytes, int]:
        """Membership as np.packbits bytes in little bit order and as the int
        with bit e set for each member encoding e.  Forces full evaluation,
        after which the set never changes, so it is computed once."""
        if self._bitset is None:
            buf = np.packbits(self.array(), bitorder="little").tobytes()
            self._bitset = buf, int.from_bytes(buf, "little")
        return self._bitset

    def count(self) -> int:
        return int(np.count_nonzero(self.array()))

    def union(self, other: "GroundSet", label: str = "") -> "GroundSet":
        self._require_same_window(other)
        return GroundSet(self.window,
                         members=bytearray(self.array() | other.array()),
                         label=label or f"union({self.label},{other.label})")

    def intersect(self, other: "GroundSet", label: str = "") -> "GroundSet":
        self._require_same_window(other)
        return GroundSet(self.window,
                         members=bytearray(self.array() & other.array()),
                         label=label or f"intersect({self.label},{other.label})")

    def _require_same_window(self, other: "GroundSet") -> None:
        if not self.window.compatible(other.window):
            raise InputError("ground sets live in incompatible windows")

    def __repr__(self) -> str:
        tag = "explicit" if self.explicit else "predicate"
        return f"GroundSet({self.label or tag}, window={self.window!r})"


# -- named builtin predicates for the JSON set format ----------------------

def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v < 4:
        return True
    if v % 2 == 0:
        return False
    for d in range(3, math.isqrt(v) + 1, 2):
        if v % d == 0:
            return False
    return True


def _is_square(v: int) -> bool:
    return v >= 0 and math.isqrt(v) ** 2 == v


# Vector forms of the builtin predicates: vector(hi) is the same test over
# the payloads 0..hi-1 as a boolean array, written by slices whose
# Python-int bounds numpy clips, so huge constants just work.

def _marked(members: Callable) -> Callable[[int], np.ndarray]:
    """The vector form with the members of 0..hi-1 at members(hi)."""
    def vector(hi: int) -> np.ndarray:
        out = np.zeros(hi, dtype=bool)
        out[members(hi)] = True
        return out
    return vector


def _primes_vector(hi: int) -> np.ndarray:
    """Sieve of 0..hi-1 on the odd payloads: 2 and the odd payloads from 3,
    less the odd multiples of each odd prime p <= isqrt(hi - 1) from p*p."""
    out = np.zeros(hi, dtype=bool)
    out[3::2] = True
    out[2:3] = True
    for p in range(3, hi and math.isqrt(hi - 1) + 1, 2):
        if out[p]:
            out[p * p::2 * p] = False
    return out


def _with_vector(test: Callable[[Payload], bool],
                 vector: Callable[[int], np.ndarray]
                 ) -> Callable[[Payload], bool]:
    test.vector = vector  # type: ignore[attr-defined]
    return test


def _atomic_predicate(name: str, args: list[str]) -> Callable[[Payload], bool]:
    if name == "evens":
        return _with_vector(lambda v: isinstance(v, int) and v % 2 == 0,
                            _marked(lambda hi: slice(0, None, 2)))
    if name == "odds":
        return _with_vector(lambda v: isinstance(v, int) and v % 2 == 1,
                            _marked(lambda hi: slice(1, None, 2)))
    if name == "squares":
        return _with_vector(lambda v: isinstance(v, int) and _is_square(v),
                            _marked(lambda hi: np.arange(
                                hi and math.isqrt(hi - 1) + 1) ** 2))
    if name == "primes":
        return _with_vector(lambda v: isinstance(v, int) and _is_prime(v),
                            _primes_vector)
    if name == "multiples":
        if len(args) != 1:
            raise InputError("multiples:<m> takes one argument")
        m = parse_int(args[0], "multiples:<m>")
        if m < 1:
            raise InputError("multiples modulus must be >= 1")
        return _with_vector(lambda v: isinstance(v, int) and v % m == 0,
                            _marked(lambda hi: slice(0, None, m)))
    if name == "interval":
        if len(args) != 2:
            raise InputError("interval:<lo>:<hi> takes two arguments")
        a, b = (parse_int(x, "interval:<lo>:<hi>") for x in args)
        return _with_vector(lambda v: isinstance(v, int) and a <= v <= b,
                            _marked(lambda hi: slice(max(a, 0),
                                                     max(b + 1, 0))))
    if name == "all":
        return _with_vector(lambda v: True,
                            lambda hi: np.ones(hi, dtype=bool))
    raise InputError(f"unknown builtin predicate {name!r}")


def _split_top(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_predicate(spec: str) -> Callable[[Payload], bool]:
    """Parse the builtin predicate language of the JSON set format.

    Atoms: evens odds squares primes all multiples:<m> interval:<lo>:<hi>.
    Combinators: union(p,q,...) and intersect(p,q,...), nestable up to
    MAX_NESTING deep.  The returned test also carries, as `vector`, the
    same test over the numeric payloads 0..hi-1: vector(hi), bool.
    """
    if spec.count("(") > MAX_NESTING:  # else it cannot nest that deep
        depth = max(accumulate((ch == "(") - (ch == ")") for ch in spec))
        if depth > MAX_NESTING:
            raise InputError(f"predicate-too-deep: {depth} > {MAX_NESTING} levels")
    spec = spec.strip()
    for comb, fold, vfold in (("union", any, np.logical_or),
                              ("intersect", all, np.logical_and)):
        if spec.startswith(comb + "(") and spec.endswith(")"):
            inner = spec[len(comb) + 1:-1]
            subs = [parse_predicate(p) for p in _split_top(inner)]
            if not subs:
                raise InputError(f"{comb}() needs at least one operand")
            return _with_vector(
                lambda v, subs=subs, fold=fold: fold(p(v) for p in subs),
                lambda hi, subs=subs, vfold=vfold: reduce(
                    vfold, [p.vector(hi) for p in subs]))
    head, *args = spec.split(":")
    return _atomic_predicate(head.strip(), [a.strip() for a in args])
