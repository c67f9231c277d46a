"""The Artin representation B_n -> Aut(F_n) and the braid equality oracle.

Calibrated generator action (frozen; see the calibration tests):

    sigma_i   : x_i -> x_i x_{i+1} x_i^-1,  x_{i+1} -> x_i
    sigma_i^-1: x_i -> x_{i+1},             x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

composed incrementally left-to-right, so that the images of u.v are the
images of v substituted into the images of u — i.e. Phi(uv) = Phi(u) o Phi(v).
This is the unique member of the standard convention set that reproduces the
reference gamma(x_4) values.

The exact images are built by `_images`, which keeps every image next to its
inverse as signed 16-bit arrays and joins them with `words._join`.
`braid_equal` puts cheap stages in front of it: the induced permutation, the
exponent sum, and `_fingerprint`, the same action evaluated in two seeded
representations F_n -> SL_2(F_p), p = 2^61 - 1.
Nothing here uses the combing code, so the oracle stays independent of it.
"""

from __future__ import annotations

import hashlib
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .braids import BraidWord, PureWord, is_pure, perm, to_braid
from .words import (ReducedWord, VerificationError, _join, _pairs, _subst,
                    _word)

UNDEFINED = None

DEFAULT_IMAGE_BUDGET = 200_000


class ImageBudgetError(RuntimeError):
    """An Artin image computation exceeded its total-letter budget."""


@lru_cache(maxsize=None)
def _generator_pairs(n: int) -> tuple[tuple[array, array], ...]:
    return tuple((array("h", (k,)), array("h", (-k,)))
                 for k in range(1, n + 1))


def _images(sigma_letters: Sequence[int], n: int,
            budget: "int | None" = None) -> tuple[tuple[int, ...], ...]:
    """Images of x_1..x_n under the composed automorphism of the word.

    Each generator touches only two images, so only those are rebuilt; the
    rest are shared by reference (image arrays are never mutated in place).
    With a budget, raises ImageBudgetError once the total letter count of
    the images passes it (image sizes can grow exponentially in word length).
    """
    ims = list(_generator_pairs(n))
    total = n
    for l in sigma_letters:
        i = abs(l)
        a, ai = ims[i - 1]
        b, bi = ims[i]
        if l > 0:  # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
            ims[i - 1] = _join(*_join(a, ai, b, bi), ai, a)
            ims[i] = (a, ai)
        else:  # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
            ims[i - 1] = (b, bi)
            ims[i] = _join(*_join(bi, b, a, ai), b, bi)
        if budget is not None:
            total += (len(ims[i - 1][0]) + len(ims[i][0])
                      - len(a) - len(b))
            if total > budget:
                raise ImageBudgetError(
                    f"image letters exceeded budget {budget}")
    return tuple(tuple(w) for w, _ in ims)


# ---------------------------------------------------------------------------
# SL_2(F_p) fingerprint of the action
# ---------------------------------------------------------------------------

_P = (1 << 61) - 1  # a Mersenne prime
_FP_SEEDS = (1, 2)


@lru_cache(maxsize=None)
def _fp_generators(n: int, seed: int) -> tuple[tuple[int, int, int, int], ...]:
    """Seeded images of x_1..x_n in SL_2(F_p), as (a, b, c, d) row-major.

    Each is [[1, b], [0, 1]] [[1, 0], [c, 1]] [[1, d], [0, 1]] with b, c, d
    drawn by hashing (n, seed, generator), so every process agrees.
    """
    gens = []
    for k in range(1, n + 1):
        b, c, d = (int.from_bytes(hashlib.blake2b(
            f"braidwalk-sl2:{n}:{seed}:{k}:{j}".encode(),
            digest_size=16).digest(), "big") % _P for j in range(3))
        bc = (1 + b * c) % _P
        gens.append((bc, (bc * d + b) % _P, c, (c * d + 1) % _P))
    return tuple(gens)


def _fingerprint(sigma_letters: Sequence[int], n: int,
                 seed: int) -> tuple[tuple[int, int, int, int], ...]:
    """The images of x_1..x_n under the word, evaluated in SL_2(F_p) in the
    representation that `seed` picks.

    The update mirrors `_images` letter for letter: for sigma_i,
    M_i <- M_i M_{i+1} M_i^-1 and M_{i+1} <- M_i; for sigma_i^-1,
    M_i <- M_{i+1} and M_{i+1} <- M_{i+1}^-1 M_i M_{i+1}.  Inverses are
    adjugates, since every matrix has determinant 1.  Equal braids give equal
    fingerprints; see `braid_equal` for the bound the other way.
    """
    p = _P
    ms = list(_fp_generators(n, seed))
    for l in sigma_letters:
        if l > 0:
            i = l - 1
            a, b, c, d = A = ms[i]
            e, f, g, h = ms[i + 1]
            p0, p1 = a * e + b * g, a * f + b * h  # A B, reduced below
            p2, p3 = c * e + d * g, c * f + d * h
            ms[i] = ((p0 * d - p1 * c) % p, (p1 * a - p0 * b) % p,
                     (p2 * d - p3 * c) % p, (p3 * a - p2 * b) % p)
            ms[i + 1] = A
        else:
            i = -l - 1
            a, b, c, d = ms[i]
            e, f, g, h = B = ms[i + 1]
            q0, q1 = h * a - f * c, h * b - f * d  # B^-1 A, reduced below
            q2, q3 = e * c - g * a, e * d - g * b
            ms[i + 1] = ((q0 * e + q1 * g) % p, (q0 * f + q1 * h) % p,
                         (q2 * e + q3 * g) % p, (q2 * f + q3 * h) % p)
            ms[i] = B
    return tuple(ms)


def _sigma_word(w: "BraidWord | PureWord") -> BraidWord:
    return to_braid(w) if isinstance(w, PureWord) else w


def apply_braid(w: "BraidWord | PureWord", t: ReducedWord) -> ReducedWord:
    if t.rank != w.n:
        raise ValueError("rank mismatch")
    pairs = _pairs(_images(_sigma_word(w).letters, w.n))
    return _word(_subst(pairs, t.letters)[0], w.n)


def braid_equal(u: "BraidWord | PureWord", v: "BraidWord | PureWord",
                image_budget: "int | None" = DEFAULT_IMAGE_BUDGET) -> bool:
    """Equality in B_n, decided by the (faithful) Artin representation.

    Stages, in order:

    1. the induced permutations;
    2. the exponent sums;
    3. the SL_2(F_p) fingerprint (`_fingerprint`), seed by seed;
    4. the exact Artin images, compared within image_budget total letters
       (image_budget=None compares them regardless of size);
    5. past the budget, the fingerprint's "equal" is the verdict.

    Each of stages 1-3 is a homomorphic invariant, so "not equal" is always
    a proof.  If the images differ, let L be the combined reduced length of
    two images of one x_k that differ, A and B.  With b, c, d uniform in
    F_p, one seed misses the difference with probability at most 2L/p:
    every letter's matrix has entry degrees [[2, 3], [1, 2]] in b, c, d, so
    the lower-left entry of the evaluated word A B^-1 is a polynomial of
    degree below 2L.  It is not the zero polynomial: otherwise the word map
    would take upper-triangular values on all of SL_2^n and so, by
    conjugation, values in the centre {1, -1}; its image is connected, so
    it would be an identity on SL_2, which no nontrivial word is (Borel
    1983).  Schwartz-Zippel gives the bound.  The two seeds are independent,
    so "equal" past the budget is a Monte Carlo verdict, wrong with
    probability at most (2L/p)^2.
    """
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    n = u.n
    bu, bv = _sigma_word(u), _sigma_word(v)
    if perm(bu) != perm(bv):
        return False
    lu, lv = bu.letters, bv.letters
    if sum(1 if l > 0 else -1 for l in lu) != sum(1 if l > 0 else -1
                                                  for l in lv):
        return False
    for seed in _FP_SEEDS:
        if _fingerprint(lu, n, seed) != _fingerprint(lv, n, seed):
            return False
    try:
        return _images(lu, n, image_budget) == _images(lv, n, image_budget)
    except ImageBudgetError:
        return True


def a_word(gamma: "BraidWord | PureWord", i: int) -> ReducedWord:
    """A_i(gamma): the conjugator in gamma(x_i) = A_i x_i A_i^-1."""
    n = gamma.n
    if not 1 <= i <= n:
        raise ValueError(f"x-index {i} out of range for n={n}")
    if isinstance(gamma, BraidWord) and not is_pure(gamma):
        raise ValueError("a_word requires a pure braid")
    w = _images(_sigma_word(gamma).letters, n)[i - 1]
    m, r = divmod(len(w), 2)
    if r != 1 or w[m] != i or w[:m] != tuple(-l for l in reversed(w[m + 1:])):
        raise VerificationError(
            f"gamma(x_{i}) lost the A x_i A^-1 shape: {w}")
    return _word(w[:m], n)


def occurrence_ratio(gamma: "BraidWord | PureWord", i: int, p: int, q: int,
                     count_signs: str = "both") -> Optional[Fraction]:
    """#x_p / #x_q in A_i(gamma); UNDEFINED (None) when the denominator is 0.

    count_signs: 'both' counts x_r and x_r^-1; 'positive' / 'negative'
    count a single sign only.
    """
    word = a_word(gamma, i).letters

    def count(r: int) -> int:
        if count_signs == "both":
            return sum(1 for l in word if abs(l) == r)
        if count_signs == "positive":
            return sum(1 for l in word if l == r)
        if count_signs == "negative":
            return sum(1 for l in word if l == -r)
        raise ValueError(f"unknown sign policy {count_signs!r}")

    num, den = count(p), count(q)
    if den == 0:
        return UNDEFINED
    return Fraction(num, den)
