"""Contraction lemmas on the boundary, executable at desk scale."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.boundary import (ContractionWitness, EmpiricalMeasure,
                                _cover_search, ball_cover_check,
                                contracting_family, find_large_wing,
                                is_eps_contracting, min_convolution_hit,
                                point_text, q_collection_witness,
                                witness_record)
from braidwalk.braids import BraidWord
from braidwalk.words import (BoundaryPoint, ReducedWord, concat, invert,
                             pow_infinity, power, prefix, reduce, wing_core)
from brute import cover_by_enumeration, reduced_words

RANK = 2


def words(min_size=1, max_size=6, rank=RANK):
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, min_size=min_size, max_size=max_size).map(
        lambda ls: reduce(ls, rank)).filter(lambda w: not w.is_empty())


def simple_measure(rank=RANK):
    """Uniform on the four points g^{+inf} for single letters g."""
    atoms = []
    for i in range(1, rank + 1):
        for s in (1, -1):
            atoms.append((pow_infinity(ReducedWord((i * s,), rank), 1),
                          Fraction(1, 2 * rank)))
    return EmpiricalMeasure(tuple(atoms))


# ---------------------------------------------------------------------------
# LF.1: ball cover
# ---------------------------------------------------------------------------

@given(words(2, 6), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_ball_cover_random(a, k):
    if len(a) < 2 * k:
        with pytest.raises(ValueError):
            ball_cover_check(a, k)
    else:
        assert ball_cover_check(a, k)


def test_reduced_word_enumerator():
    assert sorted(reduced_words(2, 1)) == [(-2,), (-1,), (1,), (2,)]
    assert len(list(reduced_words(2, 3))) == 4 * 3 * 3


def _random_reduced(rng, rank, length):
    w: list[int] = []
    while len(w) < length:
        l = rng.randrange(1, rank + 1) * rng.choice([1, -1])
        if not w or w[-1] != -l:
            w.append(l)
    return tuple(w)


def test_cover_search_matches_enumeration():
    # random (a^-1, plus, minus): some from a's own rays, some perturbed,
    # some unrelated, so that both verdicts occur often
    rng = random.Random(7)
    verdicts = []
    for _ in range(1500):
        rank = rng.choice([1, 2, 2, 3])
        m, c = rng.randrange(0, 6), rng.randrange(0, 4)
        if rank == 3:
            m, c = min(m, 3), min(c, 2)
        a_inv = _random_reduced(rng, rank, m)
        plus = _random_reduced(rng, rank, c)
        minus = _random_reduced(rng, rank, c)
        if m and rng.random() < 0.6:
            a = invert(ReducedWord(a_inv, rank))
            if rng.random() < 0.7:
                plus = prefix(pow_infinity(a, +1), c).letters
            if rng.random() < 0.7:
                minus = prefix(pow_infinity(a, -1), c).letters
        want = cover_by_enumeration(a_inv, plus, minus, rank)
        assert _cover_search(a_inv, plus, minus, rank) == want, \
            (a_inv, plus, minus, rank)
        verdicts.append(want)
    assert 300 < verdicts.count(False) < 1200


def test_ball_cover_rejects_nonpositive_k():
    a = reduce([1, 2], RANK)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ball_cover_check(a, k)


def test_ball_cover_large_k_is_fast():
    rng = random.Random(3)
    a = ReducedWord(_random_reduced(rng, RANK, 100), RANK)
    t0 = time.perf_counter()
    assert ball_cover_check(a, 50)
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# LF.3: large wings
# ---------------------------------------------------------------------------

@given(words(), words(), st.integers(1, 2))
@settings(max_examples=60)
def test_find_large_wing(a, b, k):
    if concat(a, b).letters == concat(b, a).letters:
        with pytest.raises(ValueError):
            find_large_wing(a, b, k)
        return
    h = find_large_wing(a, b, k)
    assert len(wing_core(h).wing) >= k


# ---------------------------------------------------------------------------
# LF.2: contracting families
# ---------------------------------------------------------------------------

def test_wing_and_family_reject_nonpositive_k():
    a, b = reduce([1], RANK), reduce([2], RANK)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            find_large_wing(a, b, k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            contracting_family(reduce([1, 2, -1], RANK), k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            q_collection_witness(a, b, k, simple_measure())


def test_contracting_family_needs_wing():
    a = reduce([1, 2, -1], RANK)  # wing length 1
    assert contracting_family(a, 1) == [a]
    with pytest.raises(ValueError):
        contracting_family(a, 2)


@given(words(), st.integers(2, 3))
@settings(max_examples=40)
def test_contracting_family_members_witness(a, k):
    if len(wing_core(a).wing) < k:
        return
    lam = simple_measure()
    found = False
    for g in contracting_family(a, k):
        w = is_eps_contracting(g, lam, Fraction(1, k))
        if w is not None:
            assert w.mass >= 1 - Fraction(1, k)
            found = True
    assert found


def test_q_collection_witness():
    a = reduce([1, 2, 1, -2, -1], RANK)
    b = reduce([2, 2], RANK)
    w = q_collection_witness(a, b, 2, simple_measure())
    assert isinstance(w, ContractionWitness)
    assert w.epsilon == Fraction(1, 2)
    assert w.mass >= Fraction(1, 2)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_measure_validation():
    p = pow_infinity(reduce([1], RANK), 1)
    with pytest.raises(ValueError):
        EmpiricalMeasure(((p, Fraction(1, 2)),))  # does not sum to 1
    with pytest.raises(ValueError):
        EmpiricalMeasure(((p, Fraction(1, 2)), (p, Fraction(1, 2))))


def test_translate_moves_atoms():
    x, y = reduce([1], RANK), reduce([2], RANK)
    lam = EmpiricalMeasure((
        (pow_infinity(x, 1), Fraction(1, 2)),
        (pow_infinity(y, 1), Fraction(1, 2)),
    ))
    pushed = lam.translate(invert(x))
    # translation is injective on the boundary: same atom count and weights
    assert len(pushed.atoms) == 2
    assert {p for p, _ in pushed.atoms} == {
        pow_infinity(x, 1),  # x^-1 . x^inf = x^inf
        BoundaryPoint.make(invert(x), y)}


@given(words(), st.integers(1, 4))
@settings(max_examples=40)
def test_ball_mass_monotone_in_radius(g, k):
    lam = simple_measure()
    pushed = lam.translate(g)
    c = pushed.atoms[0][0]
    assert pushed.ball_mass(c, Fraction(1, k)) >= \
        pushed.ball_mass(c, Fraction(1, k + 1))


# ---------------------------------------------------------------------------
# convolution constants
# ---------------------------------------------------------------------------

def test_min_convolution_hit_on_braids():
    mu = [(BraidWord(2, (1,)), Fraction(1, 2)),
          (BraidWord(2, (-1,)), Fraction(1, 2))]
    hit = min_convolution_hit(mu, BraidWord(2, (1, 1)), 10)
    assert (hit.s, hit.mass, hit.c_prime) == (2, Fraction(1, 4), 4)
    assert hit.c_double_prime == Fraction(1, 5)
    hit_e = min_convolution_hit(mu, BraidWord(2, ()), 10)
    assert (hit_e.s, hit_e.mass, hit_e.c_prime) == (2, Fraction(1, 2), 2)
    assert min_convolution_hit(mu, BraidWord(2, (1,) * 11), 10) is None


def test_min_convolution_hit_on_braids_matches_brute_force():
    # the first hit and its mass, against a count over all words of length s
    from itertools import product

    from braidwalk.artin import braid_equal
    atoms = [BraidWord(3, (l,)) for l in (1, -1, 2, -2)]
    mu = [(a, Fraction(1, 4)) for a in atoms]
    for target in ((1, 2), (1, 2, 1), (2, -1, 2), (1, -2)):
        g = BraidWord(3, target)
        hit = min_convolution_hit(mu, g, 3)
        for s in range(1, 4):
            mass = sum(Fraction(1, 4 ** s) for w in product(atoms, repeat=s)
                       if braid_equal(BraidWord(3, sum((a.letters for a in w),
                                                       ())), g))
            if mass:
                break
        assert (hit.s, hit.mass) == (s, mass)


def test_min_convolution_hit_on_free_words():
    x = reduce([1], RANK)
    mu = [(x, Fraction(1, 2)), (invert(x), Fraction(1, 2))]
    hit = min_convolution_hit(mu, power(x, 3), 10)
    assert hit.s == 3
    assert hit.mass == Fraction(1, 8)


def test_min_convolution_matches_brute_force():
    x, y = reduce([1], RANK), reduce([2], RANK)
    mu = [(x, Fraction(1, 2)), (y, Fraction(1, 2))]
    g = concat(x, y)
    hit = min_convolution_hit(mu, g, 6)
    # brute force over all length-2 products
    mass = sum(Fraction(1, 4) for a in (x, y) for b in (x, y)
               if concat(a, b) == g)
    assert (hit.s, hit.mass) == (2, mass)


def _convolution_by_enumeration(mu, equal, s_max):
    """First s with mu^{*s}(g) > 0 and that mass, from all s-fold draws."""
    for s in range(1, s_max + 1):
        mass = Fraction(0)
        for draw in product(mu, repeat=s):
            wt = Fraction(1)
            for _, w in draw:
                wt *= w
            if equal([el for el, _ in draw]):
                mass += wt
        if mass:
            return s, mass
    return None


def test_min_convolution_hit_nonuniform_weights_free_words():
    x, y = reduce([1], RANK), reduce([2], RANK)
    mu = [(x, Fraction(1, 2)), (invert(x), Fraction(1, 3)),
          (y, Fraction(1, 6))]
    rng = random.Random(5)
    for _ in range(12):
        g = reduce([rng.choice([1, -1, 2]) for _ in range(rng.randrange(4))],
                   RANK)

        def equal(els):
            out = ReducedWord((), RANK)
            for el in els:
                out = concat(out, el)
            return out == g
        want = _convolution_by_enumeration(mu, equal, 4)
        hit = min_convolution_hit(mu, g, 4)
        if want is None:
            assert hit is None
        else:
            assert (hit.s, hit.mass) == want
            assert hit.c_prime == 1 / want[1]
            assert hit.c_double_prime == 1 / (1 + 1 / want[1])


def test_min_convolution_hit_nonuniform_weights_braids():
    from braidwalk.artin import braid_equal
    mu = [(BraidWord(3, (1,)), Fraction(1, 2)),
          (BraidWord(3, (-2,)), Fraction(1, 3)),
          (BraidWord(3, (2, 1)), Fraction(1, 6))]
    for target in ((1, 2, 1), (2, 1, -2), (1, 1), (-2, 1), (2,)):
        g = BraidWord(3, target)

        def equal(els):
            return braid_equal(
                BraidWord(3, sum((el.letters for el in els), ())), g)
        want = _convolution_by_enumeration(mu, equal, 3)
        hit = min_convolution_hit(mu, g, 3)
        assert (None if hit is None else (hit.s, hit.mass)) == want


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_witness_record_serializable():
    import json
    a = reduce([1, 2, 1, -2, -1], RANK)
    w = q_collection_witness(a, reduce([2, 2], RANK), 2, simple_measure())
    rec = witness_record("q-collection", {"k": 2}, True, w)
    assert json.loads(json.dumps(rec))["verdict"] is True
    assert "^inf" in point_text(w.center)
