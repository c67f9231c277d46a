"""Braid words, pure generators, permutations, and Schreier rewriting.

Braid words store signed Artin-generator indices: letter +i is sigma_i,
-i its inverse.  Pure words store ((j, i), sign) letters for the standard
pure generators s_ji, 1 <= i < j <= n.

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

from .words import ParseError, _inv, _red_append

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
class PureGenerator:
    j: int
    i: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got s_{self.j}{self.i}")


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
    pre = list(range(j - 1, i, -1))
    w = pre + [-i, -i] + [-k for k in reversed(pre)]
    return w if sign > 0 else _inv(w)


def expand(g: PureGenerator, n: int, sign: int = 1) -> BraidWord:
    """The sigma-word of s_ji^sign; length 2(j-i)."""
    if g.j > n:
        raise ValueError(f"s_{g.j}.{g.i} needs n >= {g.j}")
    return BraidWord(n, tuple(_expand_letters(g.j, g.i, sign)))


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
# permutations: positions evolve left-to-right, so the image of a start
# position under perm(u.v) is perm(v)(perm(u)(x))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]  # images[x-1] = image of x, values 1..n

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("not a bijection on 1..n")

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    @property
    def n(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(self.images[k] == k + 1 for k in range(len(self.images)))

    def inversions(self) -> int:
        im = self.images
        return sum(1 for a in range(len(im)) for b in range(a + 1, len(im))
                   if im[a] > im[b])


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """First p, then q."""
    return Permutation(tuple(q(p(x)) for x in range(1, p.n + 1)))


def _apply_sigma(images: tuple[int, ...], i: int) -> tuple[int, ...]:
    # appending sigma_i^+-1 swaps the values i, i+1 in the image list
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(v, v) for v in images)


def perm(w: BraidWord) -> Permutation:
    images = tuple(range(1, w.n + 1))
    for l in w.letters:
        images = _apply_sigma(images, abs(l))
    return Permutation(images)


def is_pure(w: BraidWord) -> bool:
    return perm(w).is_identity()


def positive_lift(p: Permutation) -> BraidWord:
    """The fixed positive transversal word: bubble-sort decomposition.

    Length equals the inversion count of p, and perm round-trips.
    """
    one_line = list(p.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for k in range(len(one_line) - 1):
            if one_line[k] > one_line[k + 1]:
                one_line[k], one_line[k + 1] = one_line[k + 1], one_line[k]
                swaps.append(k + 1)
                changed = True
    return BraidWord(p.n, tuple(swaps))


def coset_decompose(beta: BraidWord) -> tuple[BraidWord, BraidWord]:
    """beta = gamma . pi with gamma pure and pi the canonical transversal."""
    pi = positive_lift(perm(beta))
    gamma = free_reduce_braid(beta * pi.inverse())
    return gamma, pi


def free_reduce_braid(w: BraidWord) -> BraidWord:
    return BraidWord(w.n, tuple(_red_append([], w.letters)))


# ---------------------------------------------------------------------------
# conj_rule: sigma . s . sigma^-1 as a short s-word, derived by bounded
# search certified against the Artin equality oracle (never hard-coded)
# ---------------------------------------------------------------------------

def _all_pure_letters(n: int) -> list[PureLetter]:
    return [((j, i), sg) for j in range(2, n + 1) for i in range(1, j)
            for sg in (1, -1)]


@lru_cache(maxsize=None)
def _conj_table(n: int) -> dict[tuple[PureLetter, int], tuple[PureLetter, ...]]:
    from .artin import _images  # deferred: artin depends on expand above

    def pure_sigma(ls):
        out = []
        for (j, i), sg in ls:
            out += _expand_letters(j, i, sg)
        return out

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
                if _images(pure_sigma(cand), n) == target:
                    found = tuple(cand)
                    break
            if found is None:  # certified fallback: full length <= 3 search
                for a in letters:
                    for b in letters:
                        for c in letters:
                            cand = [a, b, c]
                            if _images(pure_sigma(cand), n) == target:
                                found = tuple(cand)
                                break
                        if found:
                            break
                    if found:
                        break
            if found is None:
                raise AssertionError(
                    f"conj_rule search failed for sigma_{sig} on s{pair}^{sg}")
            table[((pair, sg), sig)] = found
    return table


def conj_rule(s: PureLetter, sigma: int, n: int) -> PureWord:
    """The s-word (length <= 3) equal to sigma . s . sigma^-1 in B_n."""
    return PureWord(n, _conj_table(n)[(s, sigma)])


def conjugate_pure(word: BraidWord, s_letters: tuple[PureLetter, ...]) -> tuple[PureLetter, ...]:
    """word . (s-letters) . word^-1 rewritten in s-letters via conj_rule.

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


def _schreier_step(trans: Permutation, letter: int
                   ) -> tuple[Permutation, tuple[PureLetter, ...]]:
    """One Schreier rewriting step: returns (new transversal perm, emitted
    s-letters).  Ascents emit nothing; descents emit a transversal-conjugated
    s_{i+1,i}^{+-1} (sign flipped relative to the crossing because the
    expansion convention has sigma_i^2 = expand(s_{i+1,i})^{-1}).  Swapping
    the values i, i+1 changes the inversion count by exactly one: it rises
    iff i stands left of i+1."""
    i = abs(letter)
    new = Permutation(_apply_sigma(trans.images, i))
    rises = trans.images.index(i) < trans.images.index(i + 1)
    if (letter > 0) == rises:
        return new, ()
    if letter > 0:
        return new, conjugate_pure(positive_lift(new), (((i + 1, i), -1),))
    return new, conjugate_pure(positive_lift(trans), (((i + 1, i), 1),))


def sigma_to_pure(gamma: BraidWord) -> PureWord:
    """Schreier rewriting of a pure sigma-word into the s-generators."""
    trans = identity_perm(gamma.n)
    out: list[PureLetter] = []
    for l in gamma.letters:
        trans, emitted = _schreier_step(trans, l)
        out.extend(emitted)
    if not trans.is_identity():
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


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse to a sigma-word; s-tokens are expanded."""
    letters: list[int] = []
    for kind, a, b, sg in parse_braid_tokens(text):
        if kind == "b":
            letters.append(a * sg)
        else:
            letters += _expand_letters(a, b, sg)
    return BraidWord(n, tuple(letters))


def parse_pure(text: str, n: int) -> PureWord:
    letters: list[PureLetter] = []
    for pos, (kind, a, b, sg) in enumerate(parse_braid_tokens(text)):
        if kind != "s":
            raise ParseError("expected a pure s-word, found sigma token", pos)
        letters.append(((a, b), sg))
    return PureWord(n, tuple(letters))


def print_pure(w: PureWord) -> str:
    if not w.letters:
        return "e"
    return " ".join(f"s{j}.{i}" + ("^-1" if sg < 0 else "")
                    for (j, i), sg in w.letters)


def print_braid(w: BraidWord) -> str:
    if not w.letters:
        return "e"
    return " ".join(f"b{abs(l)}" + ("^-1" if l < 0 else "") for l in w.letters)
