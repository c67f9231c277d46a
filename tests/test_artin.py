"""The Artin representation: composition law, purity shape, equality oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.artin import (DEFAULT_IMAGE_BUDGET, ImageBudgetError,
                             UNDEFINED, _FP_SEEDS, _fingerprint, _images,
                             a_word, apply_braid, braid_equal,
                             occurrence_ratio)
from braidwalk.braids import (BraidWord, PureWord, _transversal, perm,
                              to_braid)
from braidwalk.words import ReducedWord, concat, invert, reduce

N = 4


def braid_words(max_size=8):
    letter = st.integers(1, N - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: BraidWord(N, tuple(ls)))


def free_words(max_size=6):
    letter = st.integers(1, N).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size).map(lambda ls: reduce(ls, N))


def test_generator_images_are_the_calibrated_ones():
    def image(letter, k):
        return apply_braid(BraidWord(N, (letter,)),
                           ReducedWord((k,), N)).letters

    assert image(1, 1) == (1, 2, -1)   # x1 -> x1 x2 x1^-1
    assert image(1, 2) == (1,)         # x2 -> x1
    assert image(-1, 1) == (2,)
    assert image(-1, 2) == (-2, 1, 2)


@given(braid_words(5), braid_words(5), free_words())
@settings(max_examples=60)
def test_composition_law(u, v, t):
    # Phi(uv) = Phi(u) o Phi(v)
    assert apply_braid(u * v, t) == apply_braid(u, apply_braid(v, t))


@given(braid_words())
def test_automorphism_invertible(u):
    x = ReducedWord((2,), N)
    assert apply_braid(u.inverse(), apply_braid(u, x)) == x


@given(braid_words())
def test_braid_equal_is_invariant_under_free_insertion(u):
    padded = BraidWord(N, u.letters + (2, -2))
    assert braid_equal(u, padded)


@given(braid_words(5), braid_words(5))
def test_braid_equal_separates_permutations(u, v):
    if perm(u) != perm(v):
        assert not braid_equal(u, v)


def test_braid_relations_hold():
    assert braid_equal(BraidWord(N, (1, 2, 1)), BraidWord(N, (2, 1, 2)))
    assert braid_equal(BraidWord(N, (1, 3)), BraidWord(N, (3, 1)))
    assert not braid_equal(BraidWord(N, (1,)), BraidWord(N, (2,)))
    assert not braid_equal(BraidWord(N, (1, 1)), BraidWord(N, ()))


@given(braid_words(6))
@settings(max_examples=40)
def test_braid_equal_fallback_agrees_with_direct(u):
    # a tiny budget makes the fingerprint's verdict the answer
    v = BraidWord(N, u.letters + (3, 1, -1, -3))
    assert braid_equal(u, v, image_budget=1) == braid_equal(u, v,
                                                            image_budget=None)


def test_image_budget_raises():
    hard = BraidWord(N, (1, 2, 3) * 40)
    with pytest.raises(ImageBudgetError):
        _images(hard.letters, N, budget=50)
    assert DEFAULT_IMAGE_BUDGET > 0


def test_a_word_shape_and_conjugation():
    g = PureWord(N, (((4, 1), 1), ((3, 2), -1)))
    for i in range(1, N + 1):
        a = a_word(g, i)
        x = ReducedWord((i,), N)
        assert apply_braid(g, x) == concat(concat(a, x), invert(a))


def test_a_word_rejects_non_pure():
    with pytest.raises(ValueError):
        a_word(BraidWord(N, (1,)), 1)


@pytest.mark.parametrize("i", [0, -1, N + 1, 9])
def test_a_word_rejects_index_out_of_range(i):
    with pytest.raises(ValueError, match="out of range"):
        a_word(PureWord(N, (((4, 1), 1),)), i)


def test_occurrence_ratio():
    g = PureWord(N, (((4, 1), 1), ((3, 2), -1), ((4, 2), 1)))
    a = a_word(g, 4).letters

    def count(r):
        return sum(1 for l in a if abs(l) == r)

    if count(2) > 0:
        assert occurrence_ratio(g, 4, 1, 2) == Fraction(count(1), count(2))
    # sign policies count a single sign in both numerator and denominator
    for policy, pick in (("positive", lambda r: sum(1 for l in a if l == r)),
                         ("negative", lambda r: sum(1 for l in a if l == -r))):
        got = occurrence_ratio(g, 4, 1, 2, policy)
        d = pick(2)
        assert got == (UNDEFINED if d == 0 else Fraction(pick(1), d))
    # denominator 0 yields the UNDEFINED sentinel
    missing = next((r for r in range(1, N + 1) if count(r) == 0), None)
    if missing is not None:
        assert occurrence_ratio(g, 4, 1, missing) is UNDEFINED


@given(braid_words(10))
@settings(max_examples=40)
def test_pure_words_fix_nothing_but_conjugate(u):
    gamma = u * _transversal(perm(u)).inverse()
    for i in range(1, N + 1):
        im = apply_braid(gamma, ReducedWord((i,), N)).letters
        assert len(im) % 2 == 1
        assert im[len(im) // 2] == i


# ---------------------------------------------------------------------------
# the image engine and the fingerprint against independent references
# ---------------------------------------------------------------------------

def naive_images(letters, n):
    """Substitute the generator images into the current ones and reduce."""
    ims = [[k] for k in range(1, n + 1)]
    for l in letters:
        i = abs(l)
        gen = ({i: [i, i + 1, -i], i + 1: [i]} if l > 0
               else {i: [i + 1], i + 1: [-(i + 1), i, i + 1]})
        new = []
        for k in range(1, n + 1):
            buf = []
            for t in gen.get(k, [k]):
                for x in (ims[t - 1] if t > 0
                          else [-y for y in reversed(ims[-t - 1])]):
                    if buf and buf[-1] == -x:
                        buf.pop()
                    else:
                        buf.append(x)
            new.append(buf)
        ims = new
    return tuple(tuple(w) for w in ims)


def sigma_words(n, max_size):
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size)


@st.composite
def ranked_sigma_words(draw, max_size=30):
    n = draw(st.integers(3, 5))
    return n, draw(sigma_words(n, max_size))


@given(ranked_sigma_words())
@settings(max_examples=80, deadline=None)
def test_images_match_naive_substitution(case):
    n, letters = case
    assert _images(letters, n) == naive_images(letters, n)


def _relator(n, i, j):
    """A braid relator r (r = 1 in B_n) built from the generators i, j."""
    if abs(i - j) >= 2:
        return [i, j, -i, -j]
    i = min(i, n - 2)
    return [i, i + 1, i, -(i + 1), -i, -(i + 1)]


@st.composite
def word_pairs(draw):
    n, u = draw(ranked_sigma_words(12))
    if draw(st.booleans()):
        v = draw(sigma_words(n, 12))
    else:  # insert a braid relator (or a free cancellation) into u
        i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        rel = [i, -i] if i == j else _relator(n, i, j)
        cut = draw(st.integers(0, len(u)))
        v = u[:cut] + rel + u[cut:]
    return n, u, v


@given(word_pairs())
@settings(max_examples=150, deadline=None)
def test_fingerprint_agrees_with_exact_images(case):
    n, u, v = case
    same = _images(u, n) == _images(v, n)
    for seed in _FP_SEEDS:
        assert (_fingerprint(u, n, seed) == _fingerprint(v, n, seed)) == same


PURE_GENS = [(j, i) for j in range(2, N + 1) for i in range(1, j)]


@given(st.lists(st.tuples(st.sampled_from(PURE_GENS),
                          st.sampled_from([1, -1])), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_every_single_letter_change_is_rejected(letters):
    # pure generators of one sign share the permutation (identity) and the
    # exponent sum, so only the fingerprint or the images can tell them apart
    word = to_braid(PureWord(N, tuple(letters)))
    for pos, (gen, sg) in enumerate(letters):
        for other in PURE_GENS:
            if other == gen:
                continue
            changed = list(letters)
            changed[pos] = (other, sg)
            bad = to_braid(PureWord(N, tuple(changed)))
            for seed in _FP_SEEDS:
                assert (_fingerprint(bad.letters, N, seed)
                        != _fingerprint(word.letters, N, seed))
            assert not braid_equal(bad, word)


def test_braid_equal_never_calls_combing(monkeypatch):
    import braidwalk.combing

    def boom(*args, **kwargs):
        raise AssertionError("braid_equal must not use combing")

    monkeypatch.setattr(braidwalk.combing, "mi_braid", boom)
    u = BraidWord(N, (1, 2, 3) * 8)
    equal = BraidWord(N, (1, 2, 1, -2, -1, -2) + u.letters + (3, -3))
    assert braid_equal(u, equal, image_budget=1)
    # a nontrivial pure tail: same permutation, same exponent sum
    bad = BraidWord(N, u.letters + (1, 1, -2, -2))
    assert not braid_equal(u, bad, image_budget=1)
