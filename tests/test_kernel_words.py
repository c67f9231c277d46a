"""Words the kernel builds without the public check (`words._word`) pass
it anyway: each is a reduced tuple of ints within its rank, equal to an
independent reduction (`brute.free_reduce`) of the letters it stands for."""

from hypothesis import given, settings, strategies as st

from brute import free_reduce
from braidwalk.artin import a_word, apply_braid
from braidwalk.braids import BraidWord, PureWord
from braidwalk.combing import MIStepper, rho_action
from braidwalk.words import (BoundaryPoint, ReducedWord, concat, invert,
                             power, prefix, reduce, wing_core)


def inverse(letters):
    return tuple(-l for l in reversed(letters))


def assert_valid(w, raw=None):
    """w is a reduced tuple of ints within its rank, equal (and hash equal)
    to the word the public constructor builds from its letters, and equal
    to the independent reduction of `raw` when given."""
    assert type(w.letters) is tuple
    assert all(type(l) is int for l in w.letters)
    public = ReducedWord(w.letters, w.rank)
    assert w == public and hash(w) == hash(public)
    assert free_reduce(w.letters) == w.letters
    if raw is not None:
        assert w.letters == free_reduce(raw)


def words(rank, max_size=12):
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size).map(lambda ls: reduce(ls, rank))


def word_pairs(max_size=12):
    return st.integers(1, 4).flatmap(
        lambda r: st.tuples(words(r, max_size), words(r, max_size)))


@given(word_pairs(), st.integers(-6, 6), st.integers(0, 30))
@settings(max_examples=150)
def test_word_kernel_outputs_are_valid(case, q, k):
    u, v = case
    assert_valid(concat(u, v), u.letters + v.letters)
    assert_valid(invert(u), inverse(u.letters))
    raw = (u.letters if q > 0 else inverse(u.letters)) * abs(q)
    assert_valid(power(u, q), raw)
    assert_valid(prefix(u, min(k, len(u))), u.letters[:k])
    if not u.is_empty():
        wc = wing_core(u)
        assert_valid(wc.wing)
        assert_valid(wc.core)
        assert free_reduce(wc.wing.letters + wc.core.letters
                           + inverse(wc.wing.letters)) == u.letters


@given(word_pairs(8), st.integers(0, 30))
@settings(max_examples=150)
def test_boundary_point_outputs_are_valid(case, k):
    head, period = case
    if period.is_empty():
        period = ReducedWord((1,), period.rank)
    core = wing_core(period).core  # cyclically reduced
    pt = BoundaryPoint.make(head, core)
    assert_valid(pt.head)
    assert_valid(pt.period)
    reps = k + 2 * len(head) + 1  # the head cancels fewer letters than this
    raw = free_reduce(head.letters + core.letters * reps)
    assert_valid(prefix(pt, k), raw[:k])


def pure_words(n, max_size):
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    letter = st.tuples(st.sampled_from(pairs), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: PureWord(n, tuple(ls)))


@given(st.integers(2, 4).flatmap(
    lambda m: st.tuples(pure_words(m, 6), words(m, 6))))
@settings(max_examples=60, deadline=None)
def test_rho_action_outputs_are_valid(case):
    alpha, f = case
    m = f.rank
    ys = {l: rho_action(alpha, ReducedWord((l,), m))
          for g in range(1, m + 1) for l in (g, -g)}
    for y in ys.values():
        assert_valid(y)
    raw = tuple(x for l in f.letters for x in ys[l].letters)
    assert_valid(rho_action(alpha, f), raw)


def sigma_letters(n, max_size):
    return st.lists(st.integers(1, n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=max_size)


@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(sigma_letters(n, 10), words(n, 8))))
@settings(max_examples=60, deadline=None)
def test_artin_outputs_are_valid(case):
    letters, t = case
    n = t.rank
    beta = BraidWord(n, tuple(letters))
    xs = {l: apply_braid(beta, ReducedWord((l,), n))
          for g in range(1, n + 1) for l in (g, -g)}
    for x in xs.values():
        assert_valid(x)
    raw = tuple(x for l in t.letters for x in xs[l].letters)
    assert_valid(apply_braid(beta, t), raw)
    gamma = PureWord(n, tuple(((j, i), s) for j in range(2, n + 1)
                              for i in range(1, j) for s in (1, -1)))
    for i in range(1, n + 1):
        assert_valid(a_word(gamma * gamma, i))


@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), sigma_letters(n, 16))))
@settings(max_examples=60, deadline=None)
def test_stepper_form_parts_are_valid(case):
    n, letters = case
    stepper = MIStepper(n)
    for l in letters:
        stepper.step(l)
        for part in stepper.form().parts:
            assert_valid(part)

