"""Braid words, permutations, Schreier rewriting, and conjugation tables."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.artin import braid_equal
from braidwalk.braids import (BraidWord, PureWord, _all_pure_letters,
                              _conj_table, _expand_letters, _schreier,
                              _transversal, is_pure, parse_braid, perm,
                              print_braid, sigma_to_pure, to_braid)
from braidwalk.words import ParseError
from brute import compose_images, inversions

N = 4


def braid_words(max_size=8, n=N):
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: BraidWord(n, tuple(ls)))


def pure_words(max_size=6, n=N):
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    letter = st.tuples(st.sampled_from(pairs), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: PureWord(n, tuple(ls)))


# ---------------------------------------------------------------------------
# words, permutations, transversal
# ---------------------------------------------------------------------------

def test_braid_word_validates_indices():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


@given(braid_words(), braid_words())
def test_perm_is_a_homomorphism(u, v):
    assert perm(u * v) == compose_images(perm(u), perm(v))


@given(braid_words())
def test_inverse_gives_inverse_permutation(u):
    assert is_pure(u * u.inverse())


@given(braid_words())
def test_positive_lift_roundtrip(u):
    p = perm(u)
    lift = _transversal(p)
    assert perm(lift) == p
    assert len(lift) == inversions(p)
    assert all(l > 0 for l in lift.letters)


def pure_part(u):
    """gamma = u . pi^-1, pure, for the transversal pi of u's coset."""
    return u * _transversal(perm(u)).inverse()


@given(braid_words())
def test_coset_decompose(u):
    gamma, pi = pure_part(u), _transversal(perm(u))
    assert is_pure(gamma)
    assert braid_equal(gamma * pi, u)


# ---------------------------------------------------------------------------
# pure generators
# ---------------------------------------------------------------------------

def test_expand_is_pure_and_has_declared_length():
    for j in range(2, N + 1):
        for i in range(1, j):
            w = BraidWord(N, tuple(_expand_letters(j, i)))
            assert len(w) == 2 * (j - i)
            assert is_pure(w)


def test_expand_inverse_is_word_inverse():
    assert (BraidWord(N, tuple(_expand_letters(4, 2, -1)))
            == BraidWord(N, tuple(_expand_letters(4, 2, 1))).inverse())


@given(pure_words(), pure_words())
def test_to_braid_is_multiplicative(u, v):
    assert to_braid(u * v) == to_braid(u) * to_braid(v)


# ---------------------------------------------------------------------------
# conjugation tables: always derived, never hard-coded
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_conj_rule_certified_against_oracle(n):
    for (s, sig), entry in _conj_table(n).items():
        assert len(entry) <= 3
        (j, i), sg = s
        lhs = BraidWord(n, (sig,) + tuple(_expand_letters(j, i, sg)) + (-sig,))
        assert braid_equal(to_braid(PureWord(n, entry)), lhs)


@pytest.mark.parametrize("n", range(2, 9))
def test_conj_table_entries_are_core_or_conjugated_core(n):
    # the core t is s_pq with p, q swapped by |sigma|; no entry needs more
    # than one conjugating letter a around it
    letters = set(_all_pure_letters(n))
    table = _conj_table(n)
    assert len(table) == len(letters) * 2 * (n - 1)
    for (((p, q), sg), sig), entry in table.items():
        sw = {abs(sig): abs(sig) + 1, abs(sig) + 1: abs(sig)}
        hi, lo = sorted((sw.get(p, p), sw.get(q, q)), reverse=True)
        t = ((hi, lo), sg)
        if len(entry) == 3:
            a, core, a_inv = entry
            assert a in letters and a_inv == (a[0], -a[1])
        else:
            (core,) = entry
        assert core == t


# ---------------------------------------------------------------------------
# Schreier rewriting
# ---------------------------------------------------------------------------

@given(braid_words(max_size=10))
@settings(max_examples=60)
def test_sigma_to_pure_roundtrip(u):
    gamma = pure_part(u)
    s_word = sigma_to_pure(gamma)
    assert braid_equal(to_braid(s_word), gamma)


def test_sigma_to_pure_rejects_non_pure():
    with pytest.raises(ValueError):
        sigma_to_pure(BraidWord(N, (1,)))


def test_sigma_squared_is_inverse_pure_generator():
    # the frozen expansion has sigma_i^2 = s_{i+1,i}^-1
    assert sigma_to_pure(BraidWord(N, (1, 1))).letters == (((2, 1), -1),)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_schreier_transitions_against_oracle(n):
    # every transition of the coset transducer, checked by the Artin action:
    # lift(c) . l = emitted . lift(c') for a sigma-letter l, and
    # lift(c) . s = emitted . lift(c) for an s-letter s
    sigmas = [l * e for l in range(1, n) for e in (1, -1)]
    for images in permutations(range(1, n + 1)):
        lift = _transversal(images)
        for letter in sigmas + _all_pure_letters(n):
            new, emitted = _schreier(images, letter)
            if isinstance(letter, int):
                step = BraidWord(n, (letter,))
                assert new == perm(lift * step)
            else:
                step = to_braid(PureWord(n, (letter,)))
                assert new == images
            rhs = to_braid(PureWord(n, emitted)) * _transversal(new)
            assert braid_equal(lift * step, rhs)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

def test_parse_print_roundtrip():
    w = parse_braid("b1 b2^-2 s3.1", N)
    assert w == BraidWord(N, (1, -2, -2) + tuple(_expand_letters(3, 1, 1)))
    assert parse_braid(print_braid(w), N) == w  # words stay literal


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_braid("b1 q2", N)
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        parse_braid("b1 s2.1 s2.2", N)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_braid("s1.2", N)  # needs j > i


def test_identity_perm_and_free_reduce():
    assert perm(BraidWord(N, ())) == (1, 2, 3, 4)
    assert is_pure(BraidWord(N, (1, -1, 2, -2)))
