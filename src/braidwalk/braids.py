"""Braid words, pure generators, permutations, and Schreier rewriting.

Braid words store signed Artin-generator indices: letter +i is sigma_i,
-i its inverse.  Pure words store ((j, i), sign) letters for the standard
pure generators s_ji, 1 <= i < j <= n.

Reidemeister-Schreier rewriting over the n! cosets of P_n in B_n is a
finite transducer.  A coset is the tuple of its permutation's one-line
images, the tuple `perm` returns, and `_schreier(coset, letter)` is its one
transition, for a sigma-letter or an s-letter alike; it is cached, so the
transversal (`_transversal`), the conjugation walk (`conjugate_pure`) and the
certified table (`_conj_table`) run only to fill a cache miss.
`sigma_to_pure` and the combing engine (`combing.MIStepper`) both walk it.

Convention note (calibrated once, frozen here): a pure generator expands to

    s_ji  =  sigma_{j-1} ... sigma_{i+1} . sigma_i^-2 . sigma_{i+1}^-1 ... sigma_{j-1}^-1

i.e. a positive conjugator around a *negative* double crossing.  This is the
unique expansion under which the combing golden tables, the Artin-image
golden table, and the central-element identities are all simultaneously
consistent; see the calibration tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .words import ParseError, VerificationError, _inv

PureLetter = tuple[tuple[int, int], int]  # ((j, i), sign)


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 strands")
        for l in self.letters:
            if l == 0 or abs(l) >= self.n:
                raise ValueError(f"sigma index {l} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(_inv(self.letters)))


@dataclass(frozen=True)
class PureWord:
    """A word in the pure generators s_ji of P_n."""

    n: int
    letters: tuple[PureLetter, ...]

    def __post_init__(self):
        for (j, i), sg in self.letters:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"s_{j}.{i} out of range for n={self.n}")
            if sg not in (1, -1):
                raise ValueError("sign must be +-1")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "PureWord") -> "PureWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return PureWord(self.n, self.letters + other.letters)

    def inverse(self) -> "PureWord":
        return PureWord(self.n, tuple((p, -s) for p, s in reversed(self.letters)))


def _expand_letters(j: int, i: int, sign: int = 1) -> list[int]:
    """The sigma-letters of s_ji^sign; length 2(j-i)."""
    pre = list(range(j - 1, i, -1))
    w = pre + [-i, -i] + [-k for k in reversed(pre)]
    return w if sign > 0 else _inv(w)


def to_braid(w: PureWord) -> BraidWord:
    out: list[int] = []
    for (j, i), sg in w.letters:
        out += _expand_letters(j, i, sg)
    return BraidWord(w.n, tuple(out))


def free_reduce_pure(w: PureWord) -> PureWord:
    buf: list[PureLetter] = []
    for l in w.letters:
        if buf and buf[-1][0] == l[0] and buf[-1][1] == -l[1]:
            buf.pop()
        else:
            buf.append(l)
    return PureWord(w.n, tuple(buf))


# ---------------------------------------------------------------------------
# cosets: a coset of P_n in B_n is its permutation's one-line images, and
# positions evolve left-to-right, so the image of a start position under
# perm(u.v) is perm(v)(perm(u)(x))
# ---------------------------------------------------------------------------

def _apply_sigma(images: tuple[int, ...], i: int) -> tuple[int, ...]:
    # appending sigma_i^+-1 swaps the values i, i+1 in the image list
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(v, v) for v in images)


def perm(w: BraidWord) -> tuple[int, ...]:
    """The coset of w: the one-line images that `_schreier` walks.

    Swapping the values i, i+1 of the images swaps the entries i, i+1 of
    their inverse, so each letter is one swap in one list.
    """
    where = list(range(1, w.n + 1))  # where[v - 1]: the position of v
    for l in w.letters:
        i = abs(l)
        where[i - 1], where[i] = where[i], where[i - 1]
    return tuple(sorted(range(1, w.n + 1), key=lambda v: where[v - 1]))


def is_pure(w: BraidWord) -> bool:
    return perm(w) == tuple(range(1, w.n + 1))


@lru_cache(maxsize=None)
def _transversal(coset: tuple[int, ...]) -> BraidWord:
    """The fixed positive transversal word of a coset: bubble-sort
    decomposition.  Its length is the inversion count, and perm of it is
    the coset again."""
    one_line = list(coset)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for k in range(len(one_line) - 1):
            if one_line[k] > one_line[k + 1]:
                one_line[k], one_line[k + 1] = one_line[k + 1], one_line[k]
                swaps.append(k + 1)
                changed = True
    return BraidWord(len(coset), tuple(swaps))


# ---------------------------------------------------------------------------
# sigma . s . sigma^-1 as a short s-word, derived by a search certified
# against the Artin images (never hard-coded)
# ---------------------------------------------------------------------------

def _all_pure_letters(n: int) -> list[PureLetter]:
    return [((j, i), sg) for j in range(2, n + 1) for i in range(1, j)
            for sg in (1, -1)]


@lru_cache(maxsize=None)
def _conj_table(n: int) -> dict[tuple[PureLetter, int], tuple[PureLetter, ...]]:
    """(s, sigma) -> an s-word equal to sigma . s . sigma^-1 in B_n: the core
    letter t that the permutation action pins, or a . t . a^-1 for one pure
    letter a, whichever comes first with equal Artin images."""
    from .artin import _images  # deferred: artin imports this module

    table: dict[tuple[PureLetter, int], tuple[PureLetter, ...]] = {}
    letters = _all_pure_letters(n)
    for (pair, sg) in letters:
        for sig in [l * e for l in range(1, n) for e in (1, -1)]:
            target = _images([sig] + _expand_letters(*pair, sg) + [-sig], n)
            # the permutation action pins the only possible core letter t
            p, q = pair
            sw = {abs(sig): abs(sig) + 1, abs(sig) + 1: abs(sig)}
            tp = tuple(sorted((sw.get(p, p), sw.get(q, q)), reverse=True))
            t: PureLetter = ((tp[0], tp[1]), sg)
            found = None
            cands = [[t]] + [[a, t, (a[0], -a[1])] for a in letters]
            for cand in cands:
                sigma = [l for (j, i), e in cand
                         for l in _expand_letters(j, i, e)]
                if _images(sigma, n) == target:
                    found = tuple(cand)
                    break
            if found is None:
                raise VerificationError(
                    f"conjugation search failed for sigma_{sig} on "
                    f"s{pair}^{sg}")
            table[((pair, sg), sig)] = found
    return table


def conjugate_pure(word: BraidWord, s_letters: tuple[PureLetter, ...]) -> tuple[PureLetter, ...]:
    """word . (s-letters) . word^-1 rewritten in s-letters via `_conj_table`.

    Conjugation by a product iterates innermost-first: the last letter of
    `word` acts first.
    """
    cur = list(s_letters)
    for sig in reversed(word.letters):
        nxt: list[PureLetter] = []
        for l in cur:
            nxt.extend(_conj_table(word.n)[(l, sig)])
        cur = nxt
    return tuple(free_reduce_pure(PureWord(word.n, tuple(cur))).letters)


@lru_cache(maxsize=None)
def _schreier(coset: tuple[int, ...], letter: "int | PureLetter"
              ) -> tuple[tuple[int, ...], tuple[PureLetter, ...]]:
    """One Schreier rewriting step from a coset (its permutation's one-line
    images): returns (new coset, emitted s-letters).

    A sigma-letter moves the coset.  Ascents emit nothing; descents emit a
    transversal-conjugated s_{i+1,i}^{+-1} (sign flipped relative to the
    crossing because the expansion convention has sigma_i^2 =
    s_{i+1,i}^{-1}).  Swapping the values i, i+1 changes the inversion
    count by exactly one: it rises iff i stands left of i+1.  An s-letter
    keeps the coset and emits its conjugate by the transversal.  The cache
    holds at most n! (n-1)(n+2) entries per n.
    """
    if isinstance(letter, tuple):
        return coset, conjugate_pure(_transversal(coset), (letter,))
    i = abs(letter)
    new = _apply_sigma(coset, i)
    if (letter > 0) == (coset.index(i) < coset.index(i + 1)):
        return new, ()
    if letter > 0:
        return new, conjugate_pure(_transversal(new), (((i + 1, i), -1),))
    return new, conjugate_pure(_transversal(coset), (((i + 1, i), 1),))


def sigma_to_pure(gamma: BraidWord) -> PureWord:
    """Schreier rewriting of a pure sigma-word into the s-generators."""
    identity = coset = tuple(range(1, gamma.n + 1))
    out: list[PureLetter] = []
    for l in gamma.letters:
        coset, emitted = _schreier(coset, l)
        out.extend(emitted)
    if coset != identity:
        raise ValueError("sigma_to_pure requires a pure braid word")
    return free_reduce_pure(PureWord(gamma.n, tuple(out)))


# ---------------------------------------------------------------------------
# text grammar: 'b' nat (sigma) | 's' nat '.' nat, optional '^' exponent
# ---------------------------------------------------------------------------

_BRAID_TOKEN = re.compile(r"^(?:b(\d+)|s(\d+)\.(\d+))(?:\^(-?\d+))?$")


def parse_braid_tokens(text: str) -> list[tuple[str, int, int, int]]:
    """Tokens as ('b', i, 0, sign) or ('s', j, i, sign), exponents expanded."""
    out: list[tuple[str, int, int, int]] = []
    toks = text.split()
    if toks == ["e"]:
        toks = []
    for pos, tok in enumerate(toks):
        m = _BRAID_TOKEN.match(tok)
        if not m:
            raise ParseError(f"bad braid token {tok!r}", pos)
        exp = int(m.group(4) or 1)
        if m.group(1) is not None:
            i = int(m.group(1))
            if i < 1:
                raise ParseError("sigma indices are 1-based", pos)
            out.extend([("b", i, 0, 1 if exp > 0 else -1)] * abs(exp))
        else:
            j, i = int(m.group(2)), int(m.group(3))
            if not 1 <= i < j:
                raise ParseError(f"s-token needs j > i >= 1, got s{j}.{i}", pos)
            out.extend([("s", j, i, 1 if exp > 0 else -1)] * abs(exp))
    return out


def parse_letters(text: str) -> list["int | PureLetter"]:
    """Tokens as the letters `MIStepper.step` takes: b-tokens as signed
    sigma indices, s-tokens as ((j, i), sign), exponents expanded."""
    return [a * sg if kind == "b" else ((a, b), sg)
            for kind, a, b, sg in parse_braid_tokens(text)]


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse to a sigma-word; s-tokens are expanded."""
    letters: list[int] = []
    for kind, a, b, sg in parse_braid_tokens(text):
        if kind == "b":
            letters.append(a * sg)
        else:
            letters += _expand_letters(a, b, sg)
    return BraidWord(n, tuple(letters))


def print_braid(w: BraidWord) -> str:
    if not w.letters:
        return "e"
    return " ".join(f"b{abs(l)}" + ("^-1" if l < 0 else "") for l in w.letters)
