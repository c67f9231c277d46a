"""Combing of the pure braid group: the normal form V_{n-1}...V_1 . pi.

Each level of the semidirect series P_m = F_{m-1} x| P_{m-1} writes a pure
word as a free top part x (over y_j := s_{mj}) times a lower remainder
alpha, whose own combing yields the parts below.  `MIStepper` is the one
combing engine: it reads the letters left to right and keeps every level
at once, so `mi_pure` and `mi_braid` feed it a whole word.  A top-row
letter is carried into its free part through the conjugation action of
the lower-row letters read before it.  That action of P_{m-1} on F_{m-1}
is realized through the rank-(m-1) braid action on the y-alphabet (frozen
calibrated form; derived by certified search):

    sigma_i   : y_i -> y_{i+1},            y_{i+1} -> y_{i+1} y_i y_{i+1}^-1
    sigma_i^-1: y_i -> y_i^-1 y_{i+1} y_i, y_{i+1} -> y_i

composed left-to-right, like the x-alphabet representation.  This variant
differs from the x-action in artin.py, and each is anchored by its own
reference table, but the two share one engine: relabelling
y_k <-> x_{m+1-k} and sigma_i <-> sigma_{m-i} (signs kept) turns this
action into the x-action, so `_pure_conj_images` is `artin._images` under
that relabelling.

Combing runs on the free-group kernel of `words`: every image and every
free part is a pair (w, w^-1) of `array('h')` words, the conjugation action
is applied with `words._subst`, and top-row letters are appended to the
free part with `words._join`.  Words become tuples only when a form is
built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .artin import _generator_pairs, _images
from .braids import (BraidWord, Permutation, PureLetter, PureWord,
                     _expand_letters, _schreier_step, conjugate_pure,
                     coset_decompose, identity_perm, parse_braid_tokens,
                     positive_lift, print_braid, sigma_to_pure)
from .words import ParseError, ReducedWord, _join, _subst, _word

DEFAULT_LENGTH_GUARD = 10 ** 6


class LengthGuardError(RuntimeError):
    """Combing exceeded the configured total-letter budget."""


Pair = tuple[array, array]  # a reduced word and its inverse


def _apply_pure_conj(images: list[Pair], j: int, i: int, sg: int,
                     m: int) -> list[Pair]:
    """Update rho images by one s_ji^sg, sharing untouched entries."""
    g = _pure_conj_images(j, i, sg, m)
    return [images[k] if g[k] == (k + 1,) else _subst(images, g[k])
            for k in range(m)]


@lru_cache(maxsize=None)
def _pure_conj_images(j: int, i: int, sg: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Images of y_1..y_m under conjugation by s_ji^sg (j <= m): the
    x-action of `_images` on the relabelled word, relabelled back."""
    mirrored = [m - l if l > 0 else -m - l for l in _expand_letters(j, i, sg)]
    xs = _images(mirrored, m)
    return tuple(tuple(m + 1 - l if l > 0 else -m - 1 - l for l in xs[m - k])
                 for k in range(1, m + 1))


def rho_action(alpha: PureWord, f: ReducedWord) -> ReducedWord:
    """The reduced word for alpha . f . alpha^-1 in F_m, m = alpha.n."""
    m = alpha.n
    if f.rank != m:
        raise ValueError("rank mismatch")
    ims = list(_generator_pairs(m))
    for (j, i), sg in alpha.letters:
        ims = _apply_pure_conj(ims, j, i, sg, m)
    return _word(tuple(_subst(ims, f.letters)[0]), m)


@dataclass(frozen=True)
class MIForm:
    """parts[0] = V_{n-1}, ..., parts[n-2] = V_1; V_m over {s_{(m+1)j}}."""

    n: int
    parts: tuple[ReducedWord, ...]
    coset: BraidWord

    def __post_init__(self):
        if len(self.parts) != self.n - 1:
            raise ValueError("need n-1 parts")
        for lvl, p in enumerate(self.parts):
            if p.rank != self.n - 1 - lvl:
                raise ValueError(f"part {lvl} has wrong rank {p.rank}")


def identity_form(n: int) -> MIForm:
    return MIForm(n, tuple(ReducedWord((), n - 1 - k) for k in range(n - 1)),
                  BraidWord(n, ()))


def flatten(form: MIForm) -> BraidWord:
    out: list[int] = []
    for lvl, part in enumerate(form.parts):
        row = form.n - lvl
        for l in part.letters:
            out += _expand_letters(row, abs(l), 1 if l > 0 else -1)
    out += list(form.coset.letters)
    return BraidWord(form.n, tuple(out))


def central_element(n: int) -> PureWord:
    """The P_{n-1}-central element of the top free factor, as an s-word.

    Under the frozen expansion convention the commuting element carrying the
    positive sigma-palindrome sigma_{n-1}..sigma_1 sigma_1..sigma_{n-1} is
    s_{n1}^-1 s_{n2}^-1 ... s_{n(n-1)}^-1.
    """
    if n < 3:
        raise ValueError("central_element needs n >= 3")
    return PureWord(n, tuple(((n, k), -1) for k in range(1, n)))


# ---------------------------------------------------------------------------
# the combing engine: MIStepper, and mi_pure / mi_braid on top of it
# ---------------------------------------------------------------------------

class MIStepper:
    """Incremental combing along right multiplication by generator letters.

    One level per rank r = n..2: the free part x_r (signed y-letters over
    rank r-1) and the images of y_1..y_{r-1} under the conjugation action
    of everything that has passed down to lower levels so far.  Both are
    kept as (word, inverse) pairs of arrays and are replaced, never
    mutated, so untouched images are shared between levels and steps.
    """

    def __init__(self, n: int, length_guard: int = DEFAULT_LENGTH_GUARD):
        self.n = n
        self.length_guard = length_guard
        self.coset_perm: Permutation = identity_perm(n)
        empty = array("h")
        self.xs: list[Pair] = [(empty, empty)] * (n - 1)  # index 0: rank n
        self.images: list[list[Pair]] = [
            list(_generator_pairs(r - 1)) for r in range(n, 1, -1)]

    def _push_pure(self, letters: Iterable[PureLetter]) -> None:
        for (j, i), sg in letters:
            lvl = self.n - j
            for r_lvl in range(lvl):  # levels of rank > j: alpha update
                m = self.n - 1 - r_lvl
                self.images[r_lvl] = _apply_pure_conj(
                    self.images[r_lvl], j, i, sg, m)
            x, xi = self.xs[lvl]
            y, yi = self.images[lvl][i - 1]
            self.xs[lvl] = (_join(x, xi, y, yi) if sg > 0
                            else _join(x, xi, yi, y))
        # the guard bounds the letters of the normal form
        if sum(len(x) for x, _ in self.xs) > self.length_guard:
            raise LengthGuardError(
                f"combing exceeded {self.length_guard} letters")

    def step(self, letter: "int | PureLetter") -> None:
        """Multiply on the right by sigma_i^+-1 (int) or s_ji^+-1 (PureLetter).

        Raises ValueError for a letter outside B_n.
        """
        if isinstance(letter, int):
            if not 1 <= abs(letter) < self.n:
                raise ValueError(
                    f"sigma index {letter} out of range for n={self.n}")
            self.coset_perm, emitted = _schreier_step(self.coset_perm, letter)
            self._push_pure(emitted)
        else:
            (j, i), sg = letter
            if not 1 <= i < j <= self.n:
                raise ValueError(f"s{j}.{i} out of range for n={self.n}")
            if sg not in (1, -1):
                raise ValueError("sign must be +-1")
            if self.coset_perm.is_identity():
                self._push_pure([letter])
            else:
                pi = positive_lift(self.coset_perm)
                self._push_pure(conjugate_pure(pi, (letter,)))

    def form(self) -> MIForm:
        parts = tuple(_word(tuple(x), self.n - 1 - lvl)
                      for lvl, (x, _) in enumerate(self.xs))
        return MIForm(self.n, parts, positive_lift(self.coset_perm))


def mi_pure(gamma: PureWord,
            length_guard: int = DEFAULT_LENGTH_GUARD) -> MIForm:
    """One MIStepper pass over gamma; the guard bounds the final form."""
    stepper = MIStepper(gamma.n, length_guard)
    stepper._push_pure(gamma.letters)
    return stepper.form()


def mi_braid(beta: BraidWord,
             length_guard: int = DEFAULT_LENGTH_GUARD) -> MIForm:
    gamma, pi = coset_decompose(beta)
    form = mi_pure(sigma_to_pure(gamma), length_guard)
    return MIForm(beta.n, form.parts, pi)


# ---------------------------------------------------------------------------
# text form: parts joined by ' | ', then ' ; ' and the coset sigma-word
# ---------------------------------------------------------------------------

def print_mi(form: MIForm) -> str:
    cols = []
    for lvl, part in enumerate(form.parts):
        row = form.n - lvl
        if part.is_empty():
            cols.append("e")
        else:
            cols.append(" ".join(
                f"s{row}.{abs(l)}" + ("^-1" if l < 0 else "")
                for l in part.letters))
    coset = print_braid(form.coset)
    return " | ".join(cols) + " ; " + coset


def parse_mi(text: str, n: int) -> MIForm:
    try:
        body, coset_text = text.rsplit(" ; ", 1)
    except ValueError:
        raise ParseError("missing ' ; ' coset separator", 0)
    cols = body.split(" | ")
    if len(cols) != n - 1:
        raise ParseError(f"expected {n - 1} parts, got {len(cols)}", 0)
    parts = []
    for lvl, col in enumerate(cols):
        row = n - lvl
        letters: list[int] = []
        for pos, (kind, j, i, sg) in enumerate(parse_braid_tokens(col)):
            if kind != "s" or j != row:
                raise ParseError(f"part {lvl} admits only s{row}.* tokens", pos)
            letters.append(i * sg)
        parts.append(ReducedWord(tuple(letters), row - 1))
    coset_letters: list[int] = []
    for pos, (kind, i, _, sg) in enumerate(parse_braid_tokens(coset_text)):
        if kind != "b":
            raise ParseError("coset must be a sigma-word", pos)
        coset_letters.append(i * sg)
    return MIForm(n, tuple(parts), BraidWord(n, tuple(coset_letters)))


def flat_tokens(form: MIForm) -> list[str]:
    """Serialization used for lcp diagnostics: part tokens with explicit
    separators, so part-boundary shifts register as divergence."""
    toks: list[str] = []
    for lvl, part in enumerate(form.parts):
        row = form.n - lvl
        toks += [f"s{row}.{abs(l)}" + ("^-1" if l < 0 else "")
                 for l in part.letters]
        toks.append("|")
    toks[-1] = ";"
    toks += [f"b{abs(l)}" + ("^-1" if l < 0 else "")
             for l in form.coset.letters]
    return toks
