"""Seeded walk sampling: determinism, distributions, JSON round trips."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.walks import (GeneratorDistribution, WalkConfig, _thresholds,
                             distribution_from_json, distribution_to_json,
                             load_distribution, sample_paths, uniform_s,
                             uniform_sigma)
from braidwalk.words import ParseError


def fraction_sample(config, index):
    """Reference sampler: each draw d picks the first atom whose cumulative
    weight c has d / 2^64 < c, compared as exact Fractions."""
    rng = np.random.Generator(np.random.Philox(key=[config.seed, index]))
    draws = rng.integers(0, 2 ** 64, size=config.steps, dtype=np.uint64)
    cum, acc = [], Fraction(0)
    for tok, w in config.distribution.atoms:
        acc += w
        cum.append((acc, tok))
    out = []
    for d in draws:
        u = Fraction(int(d), 2 ** 64)
        out.append(next((tok for c, tok in cum if u < c), cum[-1][1]))
    return tuple(out)


@st.composite
def distributions(draw):
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["uniform-s", "uniform-sigma", "custom"]))
    if kind == "uniform-s":
        return n, uniform_s(n)
    if kind == "uniform-sigma":
        return n, uniform_sigma(n)
    toks = [t for t, _ in uniform_sigma(n).atoms]
    ws = draw(st.lists(st.integers(1, 10 ** 6), min_size=1,
                       max_size=len(toks)))
    total = sum(ws)
    return n, GeneratorDistribution("custom", tuple(
        (t, Fraction(w, total)) for t, w in zip(toks, ws)))


@given(distributions(), st.integers(1, 30), st.integers(1, 3),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_sampling_matches_fraction_reference(nd, steps, paths, seed):
    n, dist = nd
    cfg = WalkConfig(n, steps, paths, seed, dist)
    assert [p.letters for p in sample_paths(cfg)] == [
        fraction_sample(cfg, k) for k in range(paths)]


@given(distributions())
def test_thresholds_are_exact_at_the_boundary(nd):
    _, dist = nd
    cuts, toks = _thresholds(dist)
    acc = Fraction(0)
    for (tok, w), cut, t in zip(dist.atoms, cuts, toks):
        acc += w
        assert t == tok
        assert Fraction(cut - 1, 2 ** 64) < acc <= Fraction(cut, 2 ** 64)


def test_uniform_s_atoms():
    d = uniform_s(4)
    assert len(d.atoms) == 12
    assert sum(w for _, w in d.atoms) == 1
    assert d.is_pure()


def test_uniform_sigma_atoms():
    d = uniform_sigma(4)
    assert len(d.atoms) == 6
    assert not d.is_pure()


def test_distribution_validation():
    with pytest.raises(ValueError):
        GeneratorDistribution("custom", (("b1", Fraction(1, 2)),))
    with pytest.raises(ValueError):
        GeneratorDistribution("custom", (("b1", Fraction(1, 2)),
                                         ("s2.1", Fraction(1, 2))))


def test_sampling_is_deterministic_and_order_free():
    cfg = WalkConfig(4, 25, 6, 123, uniform_s(4), (10, 25))
    a = sample_paths(cfg)
    b = sample_paths(cfg)
    assert a == b
    # path content depends only on (seed, index), not on the batch size
    cfg_small = WalkConfig(4, 25, 3, 123, uniform_s(4), (10, 25))
    assert sample_paths(cfg_small) == a[:3]


def test_different_seeds_differ():
    cfg1 = WalkConfig(4, 30, 2, 1, uniform_s(4))
    cfg2 = WalkConfig(4, 30, 2, 2, uniform_s(4))
    assert sample_paths(cfg1) != sample_paths(cfg2)


def test_sampled_tokens_are_atoms_with_sane_frequencies():
    cfg = WalkConfig(4, 400, 3, 5, uniform_sigma(4))
    toks = [t for p in sample_paths(cfg) for t in p.letters]
    support = {t for t, _ in uniform_sigma(4).atoms}
    assert set(toks) <= support
    # all six atoms appear in 1200 draws, each within a loose band
    for t in support:
        assert 100 <= toks.count(t) <= 320


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(4, 0, 1, 0, uniform_s(4))
    with pytest.raises(ValueError):
        WalkConfig(4, 10, 1, 0, uniform_s(4), (11,))
    with pytest.raises(ValueError):
        WalkConfig(4, 10, 1, 0, uniform_s(4), (5, 3))
    with pytest.raises(ValueError, match="paths"):
        WalkConfig(4, 10, 0, 0, uniform_s(4))


def test_distribution_json_roundtrip():
    d = uniform_s(3)
    assert distribution_from_json(distribution_to_json(d)) == d
    text = '{"kind": "custom", "atoms": [' \
           '{"token": "b1", "weight": "2/3"}, ' \
           '{"token": "b2^-1", "weight": "1/3"}]}'
    d2 = load_distribution(text)
    assert d2.atoms[0] == ("b1", Fraction(2, 3))


def test_load_distribution_errors():
    with pytest.raises(ParseError):
        load_distribution("{not json")
    with pytest.raises(ParseError):
        load_distribution('{"atoms": [{"token": "b1"}]}')
