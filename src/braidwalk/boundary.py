"""Executable contraction lemmas on the free-group boundary.

Measures are finite atomic measures on eventually periodic boundary points;
every lemma in scope specializes soundly to this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .words import (BoundaryPoint, ReducedWord, _pairs, _subst, concat,
                    invert, left_translate, pow_infinity, power, prefix,
                    print_free, rho, wing_core)


def _reduced_words(rank: int, length: int) -> Iterator[tuple[int, ...]]:
    """All reduced words of exactly the given length."""
    alphabet = [l for g in range(1, rank + 1) for l in (g, -g)]
    stack: list[tuple[int, ...]] = [()]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
            continue
        for l in alphabet:
            if not w or w[-1] != -l:
                stack.append(w + (l,))
    return


def ball_cover_check(a: ReducedWord, k: int) -> bool:
    """Machine check of the two-set cover  a.B_{1/k}(a^-inf) u B_{1/k}(a^+inf).

    Enumerates all cylinders of depth D = |a| + k - 1: membership in
    B_{1/k}(a^{+inf}) is decided by the (k-1)-prefix, and translation by
    a^-1 cancels at most |a| letters, so the translated (k-1)-prefix is
    determined by the first |a| + k - 1 letters either way.
    """
    if len(a) < 2 * k:
        raise ValueError(f"ball_cover_check needs |a| >= 2k, got |a|={len(a)}")
    depth = max(k - 1, len(a) + k - 1)
    plus = prefix(pow_infinity(a, +1), k - 1).letters
    minus = prefix(pow_infinity(a, -1), k - 1).letters
    a_inv = invert(a).letters
    m = len(a_inv)
    cut = k - 1
    for w in _reduced_words(a.rank, depth):
        if w[:cut] == plus:
            continue
        p = 0  # junction cancellation of a^-1 . w
        while p < m and a_inv[m - 1 - p] == -w[p]:
            p += 1
        if (a_inv[:m - p] + w[p:])[:cut] == minus:
            continue
        return False
    return True


def find_large_wing(a: ReducedWord, b: ReducedWord, k: int) -> ReducedWord:
    """First element of (a, b, a^{20k} b a^{-20k}, b^{20k} a b^{-20k}) whose
    wing has length >= k; existence is the content of the lemma."""
    if concat(a, b).letters == concat(b, a).letters:
        raise ValueError("find_large_wing requires non-commuting inputs")
    candidates = [
        a, b,
        concat(concat(power(a, 20 * k), b), power(a, -20 * k)),
        concat(concat(power(b, 20 * k), a), power(b, -20 * k)),
    ]
    for h in candidates:
        if not h.is_empty() and len(wing_core(h).wing) >= k:
            return h
    raise AssertionError("no large-wing candidate found; lemma violated")


def contracting_family(a: ReducedWord, k: int) -> list[ReducedWord]:
    """{a, a^2, ..., a^k}, the totally (1/k)-contracting collection."""
    if a.is_empty() or len(wing_core(a).wing) < k:
        raise ValueError(f"contracting_family needs wing length >= {k}")
    return [power(a, m) for m in range(1, k + 1)]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A finite atomic probability measure on boundary points."""

    atoms: tuple[tuple[BoundaryPoint, Fraction], ...]

    def __post_init__(self):
        pts = [p for p, _ in self.atoms]
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate atoms")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive")
        if sum((w for _, w in self.atoms), Fraction(0)) != 1:
            raise ValueError("weights must sum to 1")

    def translate(self, g: ReducedWord) -> "EmpiricalMeasure":
        merged: dict[BoundaryPoint, Fraction] = {}
        for p, w in self.atoms:
            q = left_translate(g, p)
            merged[q] = merged.get(q, Fraction(0)) + w
        return EmpiricalMeasure(tuple(merged.items()))

    def ball_mass(self, center: BoundaryPoint, eps: Fraction) -> Fraction:
        return sum((w for p, w in self.atoms if rho(p, center) <= eps),
                   Fraction(0))


@dataclass(frozen=True)
class ContractionWitness:
    element: ReducedWord
    center: BoundaryPoint
    epsilon: Fraction
    mass: Fraction  # the certified g.lambda(B_eps(center)) >= 1 - eps


def is_eps_contracting(g: ReducedWord, lam: EmpiricalMeasure,
                       eps: Fraction) -> Optional[ContractionWitness]:
    """A ball of radius eps holding mass >= 1 - eps of g.lambda, or None.

    Candidate centers range over the support of g.lambda: for a finitely
    supported measure every ball's trace on the support is realized by a
    support-centered ball, so this search is exhaustive.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    pushed = lam.translate(g)
    for center, _ in pushed.atoms:
        mass = pushed.ball_mass(center, eps)
        if mass >= 1 - eps:
            return ContractionWitness(g, center, eps, mass)
    return None


def q_collection_witness(a: ReducedWord, b: ReducedWord, k: int,
                         lam: EmpiricalMeasure) -> ContractionWitness:
    """A (1/k)-contracting witness from the generated collection, without
    materializing it: a large-wing h from short products of a, b, then a
    witness among {h, ..., h^k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    h = find_large_wing(a, b, k)
    for g in contracting_family(h, k):
        w = is_eps_contracting(g, lam, Fraction(1, k))
        if w is not None:
            return w
    raise AssertionError("no contracting witness found; lemma violated")


# ---------------------------------------------------------------------------
# convolution constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvolutionHit:
    s: int
    mass: Fraction
    c_prime: Fraction
    c_double_prime: Fraction


def min_convolution_hit(mu: Sequence[tuple[object, Fraction]], g: object,
                        s_max: int) -> Optional[ConvolutionHit]:
    """Smallest s <= s_max with mu^{*s}(g) > 0, with the mass and the
    constants C' = 1/mass, C'' = 1/(1 + C').

    Elements are braid words (equality by the Artin oracle) or reduced free
    words (equality by reduction); mu atoms must all be one kind.
    """
    from .artin import _images
    from .braids import BraidWord

    # Products are tracked by key only.  A braid's key is its tuple of Artin
    # images, so the key of x.y is composed from the keys of x and y through
    # Phi(xy)(x_k) = Phi(x)(Phi(y)(x_k)); a free word's key is its letters.
    def key(el):
        if isinstance(el, BraidWord):
            return _images(el.letters, el.n)
        if isinstance(el, ReducedWord):
            return el.letters
        raise TypeError(f"unsupported element type {type(el).__name__}")

    target = key(g)
    atoms = [(el, key(el), wt) for el, wt in mu]
    # s = 0 is the point mass at the identity; the search starts at s = 1
    current: dict[object, Fraction] = {None: Fraction(1)}
    for s in range(1, s_max + 1):
        nxt: dict[object, Fraction] = {}
        for kr, mass in current.items():
            pairs = None  # kr's images with their inverses, built once
            for el, ke, wt in atoms:
                if kr is None:
                    kk = ke
                elif isinstance(el, BraidWord):
                    if pairs is None:
                        pairs = _pairs(kr)
                    kk = tuple(_subst(pairs, w)[0] for w in ke)
                else:
                    kk = concat(ReducedWord(kr, el.rank), el).letters
                nxt[kk] = nxt.get(kk, 0) + mass * wt
        current = nxt
        hit = current.get(target)
        if hit is not None and hit > 0:
            cp = 1 / hit
            return ConvolutionHit(s, hit, cp, 1 / (1 + cp))
    return None


# ---------------------------------------------------------------------------
# JSON record rendering for the CLI
# ---------------------------------------------------------------------------

def point_text(p: BoundaryPoint) -> str:
    return f"{print_free(p.head)} . ({print_free(p.period)})^inf"


def witness_record(lemma: str, inputs: dict, verdict: bool,
                   witness: Optional[ContractionWitness]) -> dict:
    rec = {"lemma": lemma, "inputs": inputs, "verdict": verdict,
           "witness": None}
    if witness is not None:
        rec["witness"] = {
            "element": print_free(witness.element),
            "center": point_text(witness.center),
            "epsilon": str(witness.epsilon),
            "mass": str(witness.mass),
        }
    return rec
