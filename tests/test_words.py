"""Free-word algebra, boundary points, and the metric rho."""

from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidwalk.words import (BoundaryPoint, INFINITE, ParseError, RankError,
                             ReducedWord, _common_prefix, _join, _subst,
                             concat, gromov, invert, left_translate,
                             parse_free, pow_infinity, power, prefix,
                             print_free, reduce, rho, wing_core)

RANK = 3


def letters(min_size=0, max_size=12):
    letter = st.integers(1, RANK).flatmap(
        lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, min_size=min_size, max_size=max_size)


def words(min_size=0, max_size=12):
    return letters(min_size, max_size).map(lambda ls: reduce(ls, RANK))


def nontrivial_words(max_size=12):
    return words(1, max_size).filter(lambda w: not w.is_empty())


# ---------------------------------------------------------------------------
# reduction and the group operations
# ---------------------------------------------------------------------------

def test_reduce_cancels_inverse_pairs():
    assert reduce([1, 2, -2, -1, 3], RANK).letters == (3,)
    assert reduce([1, -1], RANK).letters == ()


def test_reduced_word_rejects_unreduced_letters():
    with pytest.raises(ValueError):
        ReducedWord((1, -1), RANK)
    with pytest.raises(RankError):
        ReducedWord((4,), RANK)


def test_reduced_word_stores_a_tuple_of_ints():
    w = ReducedWord([1, 2], RANK)
    assert type(w.letters) is tuple
    assert w == ReducedWord((1, 2), RANK)
    assert hash(w) == hash(ReducedWord((1, 2), RANK))
    assert concat(w, ReducedWord([-2, 3], RANK)).letters == (1, 3)
    v = ReducedWord(np.array([1, -2, 3], dtype=np.int16), RANK)
    assert v.letters == (1, -2, 3)
    assert all(type(l) is int for l in v.letters)
    assert v == ReducedWord((1, -2, 3), RANK)
    with pytest.raises(RankError):
        ReducedWord(np.array([1, RANK + 1]), RANK)


@pytest.mark.parametrize("bad", [(1.0, 2), (1, 2.5), ("1",), (None,)])
def test_reduced_word_rejects_non_integer_letters(bad):
    with pytest.raises(RankError, match="^letters must be integers"):
        ReducedWord(bad, RANK)


@pytest.mark.parametrize("bad", [0, RANK + 1, -(RANK + 1)])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_reduced_word_rank_error_names_the_letter(bad, where):
    w = [1, 2, 1, 2, 1]
    w[where] = bad
    with pytest.raises(RankError, match=f"^letter {bad} outside rank {RANK}$"):
        ReducedWord(tuple(w), RANK)


@pytest.mark.parametrize("w", [(2, -2, 1, 3), (1, 3, -3, 2), (1, 2, 3, -3)])
def test_reduced_word_rejects_a_cancelling_pair_anywhere(w):
    with pytest.raises(ValueError, match="^word is not reduced$") as exc:
        ReducedWord(w, RANK)
    assert not isinstance(exc.value, RankError)


@given(letters())
def test_reduce_is_idempotent(ls):
    w = reduce(ls, RANK)
    assert reduce(w.letters, RANK) == w


@given(words(), words(), words())
def test_concat_is_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(words())
def test_inverse_cancels(u):
    assert concat(u, invert(u)).is_empty()
    assert concat(invert(u), u).is_empty()


# ---------------------------------------------------------------------------
# the junction-join kernel
# ---------------------------------------------------------------------------

def _zip_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


_EDGES = sorted({7, 8, 9} | {2 ** k + d for k in range(3, 8) for d in (-1, 0, 1)})


@pytest.mark.parametrize("length", _EDGES)
def test_common_prefix_at_probe_and_gallop_edges(length):
    base = tuple((k % RANK) + 1 for k in range(300))
    for k in range(length + 1):
        other = base[:k] + (-1,) + base[k + 1:]
        a, b = base[:length], other[:length]
        assert _common_prefix(a, b) == _zip_prefix(a, b) == k
        assert _common_prefix(array("h", a), array("h", b)) == k
        assert _common_prefix(a, b[:k]) == k  # one side is a prefix


@given(letters(0, 40), letters(0, 40))
def test_common_prefix_matches_zip_loop(a, b):
    a, b = tuple(a), tuple(b)
    assert _common_prefix(a, b) == _zip_prefix(a, b)
    assert _common_prefix(a, a + b) == len(a)


def _naive_subst(images, word):
    buf = []
    for l in word:
        im = images[l - 1] if l > 0 else [-x for x in reversed(images[-l - 1])]
        for x in im:
            if buf and buf[-1] == -x:
                buf.pop()
            else:
                buf.append(x)
    return tuple(buf)


def _pair(w, kind):
    inv = tuple(-l for l in reversed(w))
    return (w, inv) if kind is tuple else (array("h", w), array("h", inv))


@given(st.lists(words(0, 20), min_size=RANK, max_size=RANK), letters(0, 20),
       st.sampled_from([tuple, array]))
def test_subst_matches_naive_substitution(images, word, kind):
    images = [u.letters for u in images]
    w, wi = _subst([_pair(u, kind) for u in images], word)
    assert isinstance(w, kind) and isinstance(wi, kind)
    assert tuple(w) == _naive_subst(images, word)
    assert tuple(wi) == tuple(-l for l in reversed(tuple(w)))


@given(words(), words())
def test_join_is_concat(u, v):
    w, wi = _join(*_pair(u.letters, tuple), *_pair(v.letters, tuple))
    assert w == concat(u, v).letters
    assert wi == invert(concat(u, v)).letters


@given(words(), st.integers(-40, 40))
def test_power_matches_repeated_concat(u, q):
    base = u if q >= 0 else invert(u)
    out = ReducedWord((), RANK)
    for _ in range(abs(q)):
        out = concat(out, base)
    assert power(u, q) == out


@given(nontrivial_words(), words())
def test_conjugate_cores_have_equal_length(a, b):
    conj = concat(concat(b, a), invert(b))
    if conj.is_empty():
        return
    assert len(wing_core(conj).core) == len(wing_core(a).core)


@given(nontrivial_words())
def test_wing_core_reassembles(a):
    wc = wing_core(a)
    assert concat(concat(wc.wing, wc.core), invert(wc.wing)) == a
    # the core is cyclically reduced
    if not wc.core.is_empty():
        assert wc.core.letters[0] != -wc.core.letters[-1]


# ---------------------------------------------------------------------------
# boundary points
# ---------------------------------------------------------------------------

def test_boundary_point_canonical_form_absorbs_head():
    # x1 x2 . (x2^-1 x1^-1 ... ) style head-period cancellation
    p = BoundaryPoint.make(reduce([1, 2], RANK), reduce([-2, 3], RANK))
    q = BoundaryPoint.make(reduce([1], RANK), reduce([3, -2], RANK))
    assert p == q


def test_boundary_point_requires_cyclically_reduced_period():
    with pytest.raises(ValueError, match="^period must be cyclically reduced$"):
        BoundaryPoint.make(reduce([], RANK), reduce([1, 2, -1], RANK))
    with pytest.raises(RankError):  # a head letter outside the period's rank
        BoundaryPoint.make(reduce([RANK + 1], RANK + 1), reduce([1], RANK))
    # the plain constructor rejects what would make head.period^k unreduced
    for head, period in (([], [1, 2, -1]), ([-1], [1, 2]), ([], [])):
        with pytest.raises(ValueError, match="is not reduced$"):
            BoundaryPoint(reduce(head, RANK), reduce(period, RANK))
    with pytest.raises(ValueError, match="is not reduced$"):
        BoundaryPoint(reduce([1], RANK + 1), reduce([2], RANK))


@given(nontrivial_words(6), st.integers(1, 4))
def test_pow_infinity_power_invariance(a, q):
    assert pow_infinity(a, +1) == pow_infinity(power(a, q), +1)
    assert pow_infinity(a, -1) == pow_infinity(power(a, q), -1)


@given(nontrivial_words(6), st.integers(0, 12))
def test_prefix_of_pow_infinity_matches_big_power(a, k):
    big = power(a, k + len(a))
    assert prefix(pow_infinity(a, +1), k) == prefix(big, min(k, len(big)))


# ---------------------------------------------------------------------------
# gromov product and rho
# ---------------------------------------------------------------------------

@given(words(), words())
def test_gromov_symmetric(u, v):
    assert gromov(u, v) == gromov(v, u)


@given(words())
def test_gromov_self_is_length(u):
    assert gromov(u, u) == len(u)
    assert rho(u, u) == 0


@given(nontrivial_words(6))
def test_gromov_infinite_on_equal_points(a):
    p = pow_infinity(a, +1)
    assert gromov(p, p) == INFINITE
    assert rho(p, p) == 0


@given(words(), words(), words())
def test_gromov_ultrametric_triple(u, v, w):
    assert gromov(u, w) >= min(gromov(u, v), gromov(v, w))


@given(nontrivial_words())
def test_lemma_f5(a):
    wing = wing_core(a).wing
    assert rho(pow_infinity(a, +1), pow_infinity(a, -1)) == \
        Fraction(1, len(wing) + 1)
    assert gromov(a, pow_infinity(a, +1)) > Fraction(len(a), 2)
    assert rho(a, pow_infinity(a, +1)) < Fraction(2, len(a))


@given(words(5), words(5), nontrivial_words(4))
def test_left_translate_action_law(u, v, a):
    p = pow_infinity(a, +1)
    assert left_translate(concat(u, v), p) == \
        left_translate(u, left_translate(v, p))


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

def test_parse_print_roundtrip():
    w = reduce([1, 1, -2, 3], RANK)
    assert parse_free(print_free(w), RANK) == w
    assert parse_free("e").is_empty()
    assert parse_free("x2^-3").letters == (-2, -2, -2)


def test_parse_rejects_a_letter_above_the_rank():
    with pytest.raises(RankError, match="^letter 3 outside rank 2$"):
        parse_free("x1 x3", 2)


def test_parse_rejects_mixed_alphabets():
    with pytest.raises(ParseError) as err:
        parse_free("x1 y2")
    assert err.value.position == 1


def test_parse_rejects_bad_token():
    with pytest.raises(ParseError) as err:
        parse_free("x1 z3")
    assert err.value.position == 1
