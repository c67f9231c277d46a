"""Acceptance criteria, one test per criterion.

Each test prints exactly one `criterion NN <name>: PASS|FAIL` line (run
pytest with -s to see them inline; they also appear in captured output).
Random corpora are seeded with counter-based streams, so every run checks
the same words.
"""

import statistics
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from braidwalk.artin import apply_braid, braid_equal
from braidwalk.boundary import (ball_cover_check, find_large_wing,
                                min_convolution_hit)
from braidwalk.braids import (BraidWord, PureWord, _conj_table,
                              _expand_letters, parse_braid, perm,
                              sigma_to_pure, to_braid)
from braidwalk.combing import MIStepper, central_element, mi_braid, mi_pure, \
    flatten, print_mi
from braidwalk.experiments import theorem2_run
from braidwalk.walks import WalkConfig, uniform_sigma, uniform_s
from braidwalk.words import (ReducedWord, concat, gromov, pow_infinity,
                             reduce, rho, wing_core)
from braidwalk import reference
from brute import reduced_words

N = 4
WALK_SEED = 11  # fixed seed of the trend experiments (criteria 10-12)


def _report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _rng(stream):
    return np.random.Generator(np.random.Philox(key=[2024, stream]))


# ---------------------------------------------------------------------------
# shared corpora (computed once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pure_corpus():
    """1000 seeded random pure words in P_4 of s-length <= 25."""
    rng = _rng(0)
    gens = [((j, i), s) for j in range(2, N + 1) for i in range(1, j)
            for s in (1, -1)]
    out = []
    for _ in range(1000):
        length = int(rng.integers(0, 26))
        letters = tuple(gens[int(rng.integers(0, len(gens)))]
                        for _ in range(length))
        out.append(PureWord(N, letters))
    return out


@pytest.fixture(scope="module")
def trend_report():
    cfg = WalkConfig(4, 40, 100, WALK_SEED, uniform_s(4), (10, 20, 30, 40))
    return theorem2_run(cfg)


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------

def test_criterion_01_golden_mi_table():
    t0 = time.time()
    stepper = MIStepper(N)
    forms = [print_mi(stepper.form())]
    for letter in reference.REFERENCE_WALK:
        stepper.step(letter)
        forms.append(print_mi(stepper.form()))
    ok = all(forms[t] == want
             for t, want in enumerate(reference.REFERENCE_FORMS))
    for t, pref in ((8, reference.REFERENCE_PREFIX_8),
                    (9, reference.REFERENCE_PREFIX_9)):
        toks = [x for x in forms[t].replace(" | ", " ").replace(" ; ", " ")
                .split() if x != "e"]
        ok &= toks[:14] == pref
    ok &= time.time() - t0 < 1.0
    _report(1, "golden normal-form table", ok)


def test_criterion_02_golden_artin_table():
    t0 = time.time()
    x4 = ReducedWord((4,), N)
    ok = True
    for t, want in ((0, (4,)), (1, (4,)), (2, reference.ARTIN_G2_X4),
                    (3, reference.ARTIN_G3_X4), (4, reference.ARTIN_G3_X4)):
        g = PureWord(N, tuple(reference.REFERENCE_WALK[:t]))
        ok &= apply_braid(g, x4).letters == want
    ok &= time.time() - t0 < 1.0
    _report(2, "golden Artin-image table", ok)


# ---------------------------------------------------------------------------
# combing
# ---------------------------------------------------------------------------

def test_criterion_03_combing_soundness(pure_corpus):
    t0 = time.time()
    ok = all(braid_equal(flatten(mi_pure(g)), to_braid(g))
             for g in pure_corpus)
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _report(3, f"combing soundness oracle ({elapsed:.0f}s)", ok)


def test_criterion_04_idempotence(pure_corpus):
    ok = True
    for g in pure_corpus:
        form = mi_pure(g)
        again = mi_braid(flatten(form))
        ok &= again.n == form.n and again.parts == form.parts \
            and again.coset == form.coset
    _report(4, "normal-form idempotence", ok)


def test_criterion_05_centrality():
    ok = True
    for n in (4, 5):
        u = to_braid(central_element(n))
        for j in range(2, n):
            for i in range(1, j):
                s = to_braid(PureWord(n, (((j, i), 1),)))
                ok &= braid_equal(u * s, s * u)
    _report(5, "central element commutes with the lower subgroup", ok)


# ---------------------------------------------------------------------------
# boundary lemmas
# ---------------------------------------------------------------------------

def test_criterion_06_lemma_f5_suite():
    rng = _rng(6)
    ok = True
    done = 0
    while done < 200:
        length = int(rng.integers(1, 41))
        a = reduce([int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
                    for _ in range(length)], 3)
        if a.is_empty():
            continue
        done += 1
        wing = wing_core(a).wing
        ok &= rho(pow_infinity(a, 1), pow_infinity(a, -1)) == \
            Fraction(1, len(wing) + 1)
        ok &= gromov(a, pow_infinity(a, 1)) > Fraction(len(a), 2)
        ok &= rho(a, pow_infinity(a, 1)) < Fraction(2, len(a))
    _report(6, "distance-to-limit lemma suite", ok)


def test_criterion_07_ball_cover_exhaustive():
    t0 = time.time()
    ok = True
    for k in (1, 2, 3):
        for length in range(2 * k, 7):
            for w in reduced_words(2, length):
                ok &= ball_cover_check(ReducedWord(w, 2), k)
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(7, f"two-ball cover exhaustive ({elapsed:.0f}s)", ok)


def test_criterion_08_large_wing_randomized():
    rng = _rng(8)
    ok = True
    done = 0
    while done < 500:
        def rand_word():
            length = int(rng.integers(1, 7))
            return reduce([int(rng.integers(1, 4))
                           * (1 if rng.integers(0, 2) else -1)
                           for _ in range(length)], 3)
        a, b = rand_word(), rand_word()
        if a.is_empty() or b.is_empty():
            continue
        if concat(a, b).letters == concat(b, a).letters:
            continue
        done += 1
        for k in (1, 2):
            ok &= len(wing_core(find_large_wing(a, b, k)).wing) >= k
    _report(8, "large-wing candidates", ok)


# ---------------------------------------------------------------------------
# Schreier rewriting
# ---------------------------------------------------------------------------

def test_criterion_09_schreier_roundtrip_and_conj_tables():
    rng = _rng(9)
    ok = True
    done = 0
    while done < 500:
        length = int(rng.integers(2, 17))
        letters = tuple(int(rng.integers(1, N))
                        * (1 if rng.integers(0, 2) else -1)
                        for _ in range(length))
        w = BraidWord(N, letters)
        if not perm(w).is_identity():
            continue
        done += 1
        ok &= braid_equal(to_braid(sigma_to_pure(w)), w)
    for n in (2, 3, 4, 5):
        for ((pair, sg), sig), entry in _conj_table(n).items():
            ok &= len(entry) <= 3
            lhs = (sig,) + tuple(_expand_letters(*pair, sg)) + (-sig,)
            rhs = []
            for p, s in entry:
                rhs += _expand_letters(*p, s)
            ok &= braid_equal(BraidWord(n, lhs), BraidWord(n, tuple(rhs)))
    _report(9, "Schreier round trip and certified conjugation tables", ok)


# ---------------------------------------------------------------------------
# walk trends (one shared run, seed fixed)
# ---------------------------------------------------------------------------

def test_criterion_10_stabilization_trend(trend_report):
    rep = trend_report
    by_path = defaultdict(list)
    for r in rep.records:
        by_path[r["path_id"]].append(r)
    good = 0
    for recs in by_path.values():
        recs.sort(key=lambda r: r["step"])
        seq = [r["lcp_final"] for r in recs]
        if all(a <= b for a, b in zip(seq, seq[1:])) and seq[1] >= 1:
            good += 1
    # guard-hitting paths are absent from by_path and count as failures
    ok = good >= 95 and len(by_path) + len(rep.failures) == 100
    _report(10, f"stabilization trend ({good}/100 paths)", ok)


def test_criterion_11_growth_trend(trend_report):
    rep = trend_report
    med = {t: statistics.median(r["mi_len"] for r in rep.records
                                if r["step"] == t)
           for t in (10, 20, 30, 40)}
    ok = med[10] < med[20] < med[30] < med[40]
    ok &= med[40] >= 1.5 * med[20]
    _report(11, "normal-form growth trend", ok)


def test_criterion_12_top_part_convergence(trend_report):
    rep = trend_report
    med = {t: statistics.median(float(r["x_gromov"]) for r in rep.records
                                if r["step"] == t)
           for t in (10, 20, 30, 40)}
    ok = med[10] <= med[20] <= med[30] <= med[40]
    ok &= rep.thm2_ok
    _report(12, "top-part Gromov convergence and inequality", ok)


# ---------------------------------------------------------------------------
# convolution constants
# ---------------------------------------------------------------------------

def test_criterion_13_min_convolution_hit():
    dist = uniform_sigma(2)
    mu = [(parse_braid(t, 2), w) for t, w in dist.atoms]
    h1 = min_convolution_hit(mu, BraidWord(2, (1, 1)), 10)
    h2 = min_convolution_hit(mu, BraidWord(2, ()), 10)
    ok = (h1.s, h1.mass, h1.c_prime) == (2, Fraction(1, 4), 4)
    ok &= (h2.s, h2.mass, h2.c_prime) == (2, Fraction(1, 2), 2)
    # brute-force cross-check of the sigma^2 mass over all length-2 draws
    atoms = [el for el, _ in mu]
    brute = sum(Fraction(1, 4) for a in atoms for b in atoms
                if braid_equal(a * b, BraidWord(2, (1, 1))))
    ok &= brute == h1.mass
    _report(13, "minimal convolution hit constants", ok)
