"""Free-group word algebra and boundary machinery.

Words over an indexed alphabet are stored as tuples of signed integers:
letter +i is the i-th generator, -i its inverse.  Boundary points are
eventually periodic infinite words X·A^inf kept in a canonical
(minimal head, rotated primitive period) form so that point equality is
plain field comparison.

The free-group kernel is one junction join.  A word in a hot loop is kept
as a pair (w, w^-1); joining two reduced pairs cancels the common prefix of
the left inverse and the right word (`_common_prefix`, found with C-level
slice comparisons) and concatenates the rest (`_join`).  `_subst` runs the
join over a substitution x_k -> (image, inverse), and is the one engine
behind the x-action of `artin` and the y-action of `combing`.  The pairs
may be tuples or `array('h')` words; the join keeps their type.

Letters are validated once, where they enter the package: `ReducedWord(...)`
is the one public constructor and checks every letter (an integer, nonzero,
within the rank) and every adjacent pair (no cancellation).  The parsers,
`reduce` and the CLI go through it.  A word the kernel builds from valid
words (`concat`, `invert`, `power`, `wing_core`, `prefix`,
`BoundaryPoint.make`, the Artin and combing images) is reduced and in rank
by construction, so it is wrapped by the private `_word` without a rescan:
on long walks the rescans of joined words cost more than the joins.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index, neg
from typing import Iterable, Sequence, Union

INFINITE = math.inf


class RankError(ValueError):
    """Letter outside the declared alphabet, or mixed ranks."""


class VerificationError(RuntimeError):
    """A proved invariant or a lemma's guaranteed search failed: a fault of
    the program, never of its input."""


def _inv(letters: Sequence[int]) -> list[int]:
    return [-l for l in reversed(letters)]


Seq = Sequence[int]  # a tuple or an array('h') word

_PROBE = 8  # prefixes up to this length are compared letter by letter


def _common_prefix(a: Seq, b: Seq) -> int:
    """Length of the longest common prefix of a and b.

    Probed letter by letter up to _PROBE, then found by galloping and
    bisection on slice comparisons, so a long prefix costs O(log) Python
    steps and C-level compares.
    """
    m = min(len(a), len(b))
    k = 0
    while k < m and k < _PROBE and a[k] == b[k]:
        k += 1
    if k == _PROBE and k < m:
        lo, hi = k, m + 1  # a[:lo] == b[:lo]; the prefix of length hi fails
        while lo < m:
            t = min(2 * lo, m)
            if a[lo:t] != b[lo:t]:
                hi = t
                break
            lo = t
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if a[lo:mid] == b[lo:mid]:
                lo = mid
            else:
                hi = mid
        k = lo
    return k


def _join(x: Seq, xi: Seq, y: Seq, yi: Seq) -> tuple[Seq, Seq]:
    """(x y, (x y)^-1), reduced, for reduced x, y with inverses xi, yi.

    The letters cancelled at the junction are the common prefix of x^-1
    and y.
    """
    if not xi or not y or xi[0] != y[0]:
        return x + y, yi + xi
    k = _common_prefix(xi, y)
    return x[:len(x) - k] + y[k:], yi[:len(yi) - k] + xi[k:]


def _pairs(images: Iterable[tuple[int, ...]]
           ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(image, inverse) pairs of reduced tuple words, for `_subst`."""
    return [(w, tuple(map(neg, reversed(w)))) for w in images]


def _subst(pairs: Sequence[tuple[Seq, Seq]], word: Seq) -> tuple[Seq, Seq]:
    """(w, w^-1) for the image w of a word under x_k -> pairs[k - 1].

    Each pair is a reduced image with its inverse; letter -k takes pair k
    swapped.  The result has the pairs' type.  The accumulator takes the
    first nonempty image by reference, so images must never be mutated.
    """
    w = wi = pairs[0][0][:0] if pairs else ()
    for l in word:
        if l > 0:
            y, yi = pairs[l - 1]
        else:
            yi, y = pairs[-l - 1]
        if not w:
            w, wi = y, yi
        elif not y or wi[0] != y[0]:
            w, wi = w + y, yi + wi
        else:
            k = _common_prefix(wi, y)
            w, wi = w[:len(w) - k] + y[k:], yi[:len(yi) - k] + wi[k:]
    return w, wi


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word; the universal currency of free-group work.

    The constructor is the public, checked path: it stores the letters as a
    tuple of ints (any integer type is accepted, anything else raises
    RankError) and rejects a letter outside the rank or a cancelling pair.
    Words built inside the package from valid words skip the check through
    `_word`.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        try:
            letters = tuple(map(index, self.letters))
        except TypeError:
            raise RankError(
                f"letters must be integers, got {self.letters!r:.60}") from None
        object.__setattr__(self, "letters", letters)
        for l in letters:
            if l == 0 or abs(l) > self.rank:
                raise RankError(f"letter {l} outside rank {self.rank}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError("word is not reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters


def _word(letters: tuple[int, ...], rank: int) -> ReducedWord:
    """A ReducedWord without the check, for a tuple of ints that is reduced
    and within the rank by construction.  Never exported."""
    w = object.__new__(ReducedWord)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


def reduce(letters: Iterable[int], rank: int) -> ReducedWord:
    """The unique reduced representative of a raw letter sequence."""
    buf: list[int] = []
    for l in letters:
        if buf and buf[-1] == -l:
            buf.pop()
        else:
            buf.append(l)
    return ReducedWord(tuple(buf), rank)


def _check_rank(u: ReducedWord, v: "ReducedWord | BoundaryPoint") -> None:
    if u.rank != v.rank:
        raise RankError(f"rank mismatch: {u.rank} vs {v.rank}")


def concat(u: ReducedWord, v: ReducedWord) -> ReducedWord:
    _check_rank(u, v)
    # cancellation happens only at the junction of two reduced words
    a, b = u.letters, v.letters
    m = min(len(a), len(b))
    k = 0
    while k < m and a[-1 - k] == -b[k]:
        k += 1
    return _word(a[:len(a) - k] + b[k:], u.rank)


def invert(u: ReducedWord) -> ReducedWord:
    return _word(tuple(map(neg, reversed(u.letters))), u.rank)


def power(u: ReducedWord, q: int) -> ReducedWord:
    """u^q, built as X.A^q.X^-1 from u = X.A.X^-1 in one word.

    The core A is cyclically reduced, so A^q is reduced and the wing X
    joins it without cancellation.
    """
    if q == 0 or u.is_empty():
        return _word((), u.rank)
    wc = wing_core(u)
    x = wc.wing.letters
    core = wc.core.letters if q > 0 else invert(wc.core).letters
    return _word(x + core * abs(q) + invert(wc.wing).letters, u.rank)


@dataclass(frozen=True)
class WingCore:
    wing: ReducedWord
    core: ReducedWord


def wing_core(a: ReducedWord) -> WingCore:
    """Unique decomposition a = X·A·X^-1 with A cyclically reduced."""
    if a.is_empty():
        raise ValueError("wing_core of the empty word")
    w, n = a.letters, len(a)
    i = 0  # wing length
    while n - 2 * i >= 2 and w[i] == -w[n - 1 - i]:
        i += 1
    return WingCore(_word(w[:i], a.rank), _word(w[i:n - i], a.rank))


def _primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


@dataclass(frozen=True)
class BoundaryPoint:
    """An eventually periodic boundary point head·period^inf, canonical.

    Build points with `make`.  The constructor only checks, in constant
    time, what makes head·period^k reduced for every k, which `prefix`
    relies on: one rank, a nonempty cyclically reduced period, and no
    cancellation between head and period.
    """

    head: ReducedWord
    period: ReducedWord

    def __post_init__(self):
        h, p = self.head.letters, self.period.letters
        if (self.head.rank != self.period.rank or not p or p[0] == -p[-1]
                or (h and h[-1] == -p[0])):
            raise ValueError("boundary point head·period^inf is not reduced")

    @property
    def rank(self) -> int:
        return self.period.rank

    @staticmethod
    def make(head: ReducedWord, period: ReducedWord) -> "BoundaryPoint":
        """Canonicalize: primitive period, absorb head/period cancellation,
        then peel the head to minimal length (rotating the period)."""
        if period.is_empty():
            raise ValueError("period must be nonempty")
        if period.letters[0] == -period.letters[-1]:
            raise ValueError("period must be cyclically reduced")
        if head.rank != period.rank:  # the head's letters must fit the rank
            head = ReducedWord(head.letters, period.rank)
        p = list(_primitive_root(period.letters))
        h = list(head.letters)
        # cancellation of head tail against period start: unroll
        while h and h[-1] == -p[0]:
            h.pop()
            p = p[1:] + p[:1]  # rotate left: drop consumed letter
        # minimal head: absorb matching tail letters into the period
        while h and h[-1] == p[-1]:
            p = p[-1:] + p[:-1]  # rotate right
            h.pop()
        return BoundaryPoint(_word(tuple(h), period.rank),
                             _word(tuple(p), period.rank))


def pow_infinity(a: ReducedWord, sign: int) -> BoundaryPoint:
    """The boundary limit of a^i (sign=+1) or a^-i (sign=-1)."""
    if a.is_empty():
        raise ValueError("pow_infinity of the empty word")
    wc = wing_core(a)
    core = wc.core if sign > 0 else invert(wc.core)
    return BoundaryPoint.make(wc.wing, core)


def _unroll(p: BoundaryPoint, k: int) -> tuple[int, ...]:
    h, per = p.head.letters, p.period.letters
    if k <= len(h):
        return h[:k]
    reps = (k - len(h) + len(per) - 1) // len(per)
    return (h + per * reps)[:k]


def prefix(w: "ReducedWord | BoundaryPoint", k: int) -> ReducedWord:
    if k < 0:
        raise ValueError("negative prefix length")
    if isinstance(w, ReducedWord):
        if k > len(w):
            raise ValueError("prefix longer than finite word")
        return _word(w.letters[:k], w.rank)
    return _word(_unroll(w, k), w.rank)


Point = Union[ReducedWord, BoundaryPoint]


def gromov(x: Point, y: Point):
    """Gromov product: longest common prefix length; (V|V) = |V| for finite V;
    INFINITE for equal boundary points."""
    _check_rank(x if isinstance(x, ReducedWord) else x.period, y)
    fx, fy = isinstance(x, ReducedWord), isinstance(y, ReducedWord)
    if fx and fy:
        if x.letters == y.letters:
            return len(x)
        return _common_prefix(x.letters, y.letters)
    if fx or fy:
        w, p = (x, y) if fx else (y, x)
        return _common_prefix(w.letters, _unroll(p, len(w)))
    if x == y:
        return INFINITE
    # distinct eventually periodic words differ within a Fine-Wilf window
    depth = len(x.head) + len(y.head) + 2 * (len(x.period) + len(y.period)) + 2
    g = _common_prefix(_unroll(x, depth), _unroll(y, depth))
    if g >= depth:
        raise RuntimeError(
            "distinct canonical points agreeing beyond the Fine-Wilf bound")
    return g


def rho(x: Point, y: Point) -> Fraction:
    g = gromov(x, y)
    if g == INFINITE:
        return Fraction(0)
    if isinstance(x, ReducedWord) and isinstance(y, ReducedWord) and x.letters == y.letters:
        return Fraction(0)
    return Fraction(1, g + 1)


def left_translate(a: ReducedWord, w: BoundaryPoint) -> BoundaryPoint:
    _check_rank(a, w)
    h = concat(a, w.head)
    return BoundaryPoint.make(h, w.period)


# ---------------------------------------------------------------------------
# shared free-word text grammar: 'x' nat or 'y' nat, optional '^' exponent
# ---------------------------------------------------------------------------

_FREE_TOKEN = re.compile(r"^([xy])(\d+)(?:\^(-?\d+))?$")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position


def parse_free(text: str, rank: int | None = None) -> ReducedWord:
    """Parse a free word; exponents expand before reduction."""
    letters: list[int] = []
    base_seen: str | None = None
    toks = text.split()
    if toks == ["e"]:
        toks = []
    for pos, tok in enumerate(toks):
        m = _FREE_TOKEN.match(tok)
        if not m:
            raise ParseError(f"bad free-word token {tok!r}", pos)
        base, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        if base_seen is None:
            base_seen = base
        elif base != base_seen:
            raise ParseError("mixed x/y alphabets", pos)
        if idx < 1:
            raise ParseError("generator indices are 1-based", pos)
        letters.extend([idx if exp > 0 else -idx] * abs(exp))
    r = rank if rank is not None else max((abs(l) for l in letters), default=1)
    return reduce(letters, r)


def print_free(w: ReducedWord, base: str = "y") -> str:
    if w.is_empty():
        return "e"
    return " ".join(f"{base}{abs(l)}" + ("^-1" if l < 0 else "") for l in w.letters)
