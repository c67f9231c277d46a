"""Tests of the Burau checker.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_burau.py -q
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from burau import Burau, pure_sigma  # noqa: E402
from braidwalk import reference  # noqa: E402


def _parse_form(text: str, n: int):
    """Parts (signed y-letters) and coset letters of a printed normal form."""
    body, coset = text.rsplit(" ; ", 1)
    parts = []
    for col in body.split(" | "):
        letters = []
        for tok in col.split():
            if tok == "e":
                continue
            base, _, exp = tok.partition("^")
            letters.append(int(base.split(".")[1]) * (-1 if exp else 1))
        parts.append(letters)
    assert len(parts) == n - 1
    cos = [] if coset == "e" else [
        int(t[1:].split("^")[0]) * (-1 if "^" in t else 1)
        for t in coset.split()]
    return parts, cos


def test_braid_relations_and_inverses():
    for n in (3, 4, 5):
        b = Burau(n)
        e = b.key([])
        for i in range(1, n):
            assert b.key([i, -i]) == e
            assert b.key([-i, i]) == e
            assert b.key([i]) != e
            assert b.key([i, i]) != e
        for i in range(1, n - 1):
            assert b.key([i, i + 1, i]) == b.key([i + 1, i, i + 1])
            assert b.key([-i, -(i + 1), -i]) == b.key([-(i + 1), -i, -(i + 1)])
        for i in range(1, n):
            for j in range(i + 2, n):
                assert b.key([i, j]) == b.key([j, i])
                assert b.key([i, -j]) == b.key([-j, i])


def test_pure_generators_invert_and_commute_with_delta_squared():
    n = 4
    b = Burau(n)
    full_twist = [i for _ in range(n) for i in range(1, n)]
    for j in range(2, n + 1):
        for i in range(1, j):
            s = pure_sigma(j, i, 1)
            assert b.key(s + pure_sigma(j, i, -1)) == b.key([])
            assert b.key(s + full_twist) == b.key(full_twist + s)


def test_reference_forms_agree_with_reference_walk():
    n = 4
    b = Burau(n)
    walk = [(j, i, sg) for (j, i), sg in reference.REFERENCE_WALK]
    for t, text in enumerate(reference.REFERENCE_FORMS):
        parts, coset = _parse_form(text, n)
        assert b.form_key(parts, coset) == b.pure_key(walk[:t]), t
        if t:
            assert b.form_key(parts, coset) != b.pure_key(walk[:t - 1]), t


def test_single_letter_perturbations_are_caught():
    n = 4
    b = Burau(n)
    rng = random.Random(7)
    caught = 0
    for text in reference.REFERENCE_FORMS[1:]:
        parts, coset = _parse_form(text, n)
        want = b.form_key(parts, coset)
        for lvl, part in enumerate(parts):
            row = n - lvl
            for pos, l in enumerate(part):
                for other in range(1, row):
                    if other == abs(l):
                        continue
                    bad = [list(p) for p in parts]
                    bad[lvl][pos] = other * (1 if l > 0 else -1)
                    assert b.form_key(bad, coset) != want
                    caught += 1
    assert caught > 0
    for _ in range(200):
        word = [rng.choice([1, -1]) * rng.randrange(1, n)
                for _ in range(rng.randrange(1, 30))]
        pos = rng.randrange(len(word))
        bad = list(word)
        bad[pos] = -bad[pos]
        assert b.key(bad) != b.key(word)
