"""Combing: one level of the normal form, the full form, incremental steps.

`mi_pure` and `mi_braid` run on `MIStepper`, so the independent checks
here are `braid_equal` on flattened forms and the low-row recursion."""

import pytest
from hypothesis import given, settings, strategies as st

from braidwalk.artin import braid_equal
from braidwalk.braids import (BraidWord, PureWord, _expand_letters,
                              _transversal, is_pure, parse_braid,
                              parse_letters, perm, sigma_to_pure, to_braid)
from braidwalk.combing import (LengthGuardError, MIForm, MIStepper,
                               _pure_conj_images,
                               central_element, flatten, mi_braid, mi_pure,
                               parse_mi, print_mi, rho_action)
from braidwalk.words import ParseError, reduce
from brute import flat_tokens

N = 4


def pure_words(max_size=8, n=N):
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    letter = st.tuples(st.sampled_from(pairs), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: PureWord(n, tuple(ls)))


def braid_words(max_size=8):
    letter = st.integers(1, N - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size).map(
        lambda ls: BraidWord(N, tuple(ls)))


def identity_form(n):
    """The normal form of the empty word: every part empty, no coset."""
    return MIForm(n, tuple(reduce((), n - 1 - k) for k in range(n - 1)),
                  BraidWord(n, ()))


# ---------------------------------------------------------------------------
# one level: gamma = x . alpha, x = V_{N-1} over the top row, alpha the
# low-row subword of gamma
# ---------------------------------------------------------------------------

def _lift(alpha):
    """Embed a rank-m pure word into B_N on the first m strands."""
    return BraidWord(N, to_braid(alpha).letters)


def _low_rows(gamma):
    return PureWord(N - 1, tuple(l for l in gamma.letters if l[0][0] < N))


@given(pure_words(6))
@settings(max_examples=50)
def test_split_reassembles(gamma):
    x = mi_pure(gamma).parts[0]
    x_braid = to_braid(PureWord(
        N, tuple(((N, abs(l)), 1 if l > 0 else -1) for l in x.letters)))
    assert braid_equal(x_braid * _lift(_low_rows(gamma)), to_braid(gamma))


@given(pure_words(6))
@settings(max_examples=50)
def test_split_alpha_is_the_low_row_subword(gamma):
    # the parts below the top are the combing of the low-row subword
    assert mi_pure(gamma).parts[1:] == mi_pure(_low_rows(gamma)).parts


# ---------------------------------------------------------------------------
# rho action: conjugation realized on the y-alphabet
# ---------------------------------------------------------------------------

@given(pure_words(4, n=3), st.lists(
    st.integers(1, 3).flatmap(lambda i: st.sampled_from([i, -i])),
    max_size=4))
@settings(max_examples=50)
def test_rho_action_is_conjugation(alpha, f_letters):
    f = reduce(f_letters, 3)
    out = rho_action(alpha, f)

    def y_braid(w):
        return to_braid(PureWord(
            4, tuple(((4, abs(l)), 1 if l > 0 else -1) for l in w.letters)))

    lhs = _lift(alpha) * y_braid(f) * _lift(alpha).inverse()
    assert braid_equal(lhs, y_braid(out))


def naive_conj_images(sigma_letters, m):
    """The frozen y-action, one letter at a time, on plain lists."""
    def red(w):
        buf = []
        for l in w:
            if buf and buf[-1] == -l:
                buf.pop()
            else:
                buf.append(l)
        return buf

    def inv(w):
        return [-l for l in reversed(w)]

    ims = [[k] for k in range(1, m + 1)]
    for l in sigma_letters:
        a, b = ims[abs(l) - 1], ims[abs(l)]
        if l > 0:  # y_i -> y_{i+1}, y_{i+1} -> y_{i+1} y_i y_{i+1}^-1
            ims[l - 1], ims[l] = b, red(b + a + inv(b))
        else:  # y_i -> y_i^-1 y_{i+1} y_i, y_{i+1} -> y_i
            ims[-l - 1], ims[-l] = red(inv(a) + b + a), a
    return tuple(tuple(w) for w in ims)


@pytest.mark.parametrize("m", range(2, 7))
def test_pure_conj_images_match_naive_y_action(m):
    for j in range(2, m + 1):
        for i in range(1, j):
            for sg in (1, -1):
                sigma = _expand_letters(j, i, sg)
                assert (_pure_conj_images(j, i, sg, m)
                        == naive_conj_images(sigma, m))


# ---------------------------------------------------------------------------
# full normal form
# ---------------------------------------------------------------------------

@given(pure_words(8))
@settings(max_examples=50, deadline=None)
def test_mi_pure_soundness_and_idempotence(gamma):
    form = mi_pure(gamma)
    assert braid_equal(flatten(form), to_braid(gamma))
    assert mi_braid(flatten(form)) == form


@given(braid_words(8))
@settings(max_examples=50, deadline=None)
def test_mi_braid_soundness(beta):
    form = mi_braid(beta)
    assert braid_equal(flatten(form), beta)
    assert is_pure(flatten(MIForm(N, form.parts, BraidWord(N, ()))))


@given(braid_words(10))
@settings(max_examples=40, deadline=None)
def test_incremental_equals_batch(beta):
    stepper = MIStepper(N)
    for l in beta.letters:
        stepper.step(l)
        form = stepper.form()
    if beta.letters:
        assert form == mi_braid(beta)
    else:
        assert stepper.form() == identity_form(N)


@st.composite
def ranked_braid_words(draw):
    n = draw(st.integers(2, 6))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=30))))


@given(ranked_braid_words())
@settings(max_examples=80, deadline=None)
def test_mi_braid_equals_decompose_then_rewrite(beta):
    # a second route to the form: split off the transversal, rewrite the
    # pure sigma-word into s-letters and comb those
    lift = _transversal(perm(beta))
    form = mi_pure(sigma_to_pure(beta * lift.inverse()))
    assert mi_braid(beta) == MIForm(beta.n, form.parts, lift)


def _braid_triples(v):
    """Sites k where v[k:k+3] is x y x with |x|, |y| adjacent, one sign."""
    return [k for k in range(len(v) - 2)
            if v[k] == v[k + 2] and abs(abs(v[k]) - abs(v[k + 1])) == 1
            and (v[k] > 0) == (v[k + 1] > 0)]


@st.composite
def relation_moves(draw):
    """(n, u, v): a sigma-word u in B_3..B_5 and a word v that the group
    presentation turns into u, reached by 1-4 moves: insert a free pair,
    insert a braid relator, insert a far-commutation relator, or rewrite
    x y x as y x y."""
    n = draw(st.integers(3, 5))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    u = draw(st.lists(letter, max_size=12))
    v = list(u)
    for _ in range(draw(st.integers(1, 4))):
        move = draw(st.sampled_from(["free", "braid", "far", "rewrite"]))
        i = draw(st.integers(1, n - 1))
        e = draw(st.sampled_from([1, -1]))
        far = [j for j in range(1, n) if abs(i - j) >= 2]
        if move == "far" and far:
            j = draw(st.sampled_from(far))
            rel = [e * i, e * j, -e * i, -e * j]
        elif move == "braid":
            a, b = min(i, n - 2), min(i, n - 2) + 1
            rel = [a, b, a, -b, -a, -b]
            if e < 0:
                rel = [-l for l in reversed(rel)]
        elif move == "rewrite":
            sites = _braid_triples(v)
            if not sites:  # make a site: x y x x^-1 y^-1 x^-1 is trivial
                x, y = e * min(i, n - 2), e * (min(i, n - 2) + 1)
                cut = draw(st.integers(0, len(v)))
                v[cut:cut] = [x, y, x, -x, -y, -x]
                sites = [cut]
            k = draw(st.sampled_from(sites))
            v[k:k + 3] = [v[k + 1], v[k], v[k + 1]]
            continue
        else:
            rel = [e * i, -e * i]
        cut = draw(st.integers(0, len(v)))
        v[cut:cut] = rel
    return n, u, v


@given(relation_moves())
@settings(max_examples=120, deadline=None)
def test_normal_form_is_invariant_under_relation_moves(case):
    # the oracle is the group presentation itself: no Artin images, so the
    # coset tuple that the stepper walks and the form's transversal are
    # checked apart from `artin`
    n, u, v = case
    fu, fv = mi_braid(BraidWord(n, tuple(u))), mi_braid(BraidWord(n, tuple(v)))
    assert fu == fv
    assert fu.coset == _transversal(perm(BraidWord(n, tuple(v))))


@st.composite
def mixed_texts(draw):
    n = draw(st.integers(2, 5))
    sigma = st.integers(1, n - 1).map(lambda i: f"b{i}")
    pure = st.integers(2, n).flatmap(
        lambda j: st.integers(1, j - 1).map(lambda i: f"s{j}.{i}"))
    tokens = draw(st.lists(
        st.tuples(st.one_of(sigma, pure), st.sampled_from(["", "^-1"])),
        max_size=12))
    return n, " ".join(t + e for t, e in tokens) or "e"


@given(mixed_texts())
@settings(max_examples=80, deadline=None)
def test_stepper_on_mixed_letters_is_sound(case):
    n, text = case
    stepper = MIStepper(n)
    for letter in parse_letters(text):
        stepper.step(letter)
    form, beta = stepper.form(), parse_braid(text, n)
    assert braid_equal(flatten(form), beta)
    assert stepper.coset == perm(beta)
    assert form.coset == _transversal(perm(beta))


@given(pure_words(6))
@settings(max_examples=50)
def test_incremental_pure_letters(gamma):
    stepper = MIStepper(N)
    for l in gamma.letters:
        stepper.step(l)
    assert stepper.form() == mi_pure(gamma)


@st.composite
def ranked_pure_words(draw):
    n = draw(st.integers(3, 5))
    return draw(pure_words(20, n=n))


@given(ranked_pure_words())
@settings(max_examples=60, deadline=None)
def test_stepper_on_pure_words_matches_mi_pure(gamma):
    stepper = MIStepper(gamma.n)
    for l in gamma.letters:
        stepper.step(l)
    form = stepper.form()
    assert form == mi_pure(gamma)
    assert braid_equal(flatten(form), to_braid(gamma))


@pytest.mark.parametrize("letter, message", [
    (0, "out of range"), (4, "out of range"), (-4, "out of range"),
    (7, "out of range"), (((5, 1), 1), "s5.1 out of range"),
    (((5, 4), 1), "s5.4 out of range"), (((4, 4), 1), "out of range"),
    (((3, 0), -1), "out of range"), (((2, 1), 0), "sign"),
    (((2, 1), 2), "sign")])
def test_stepper_rejects_letters_outside_b4(letter, message):
    stepper = MIStepper(N)
    with pytest.raises(ValueError, match=message):
        stepper.step(letter)
    assert stepper.form() == identity_form(N)


def test_identity_form():
    f = MIStepper(N).form()
    assert f == identity_form(N)
    assert len(flatten(f)) == 0


@given(ranked_pure_words())
@settings(max_examples=40, deadline=None)
def test_length_guard_boundary_is_the_final_form_size(gamma):
    size = sum(len(p) for p in mi_pure(gamma).parts)
    assert mi_pure(gamma, length_guard=size) == mi_pure(gamma)
    with pytest.raises(LengthGuardError,
                       match=f"combing exceeded {size - 1} letters"):
        mi_pure(gamma, length_guard=size - 1)


def test_length_guard_trips():
    blow = PureWord(N, tuple(
        [((3, 2), 1), ((4, 3), 1)] * 40))
    with pytest.raises(LengthGuardError):
        mi_pure(blow, length_guard=100)
    stepper = MIStepper(N, length_guard=100)
    with pytest.raises(LengthGuardError):
        for l in blow.letters:
            stepper.step(l)


# ---------------------------------------------------------------------------
# central element
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5])
def test_central_element_commutes_with_lower_generators(n):
    u = to_braid(central_element(n))
    for j in range(2, n):
        for i in range(1, j):
            s = to_braid(PureWord(n, (((j, i), 1),)))
            assert braid_equal(u * s, s * u)


def test_central_element_is_positive_palindrome():
    u = to_braid(central_element(4))
    assert braid_equal(u, BraidWord(4, (3, 2, 1, 1, 2, 3)))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

@given(braid_words(8))
@settings(max_examples=40, deadline=None)
def test_print_parse_roundtrip(beta):
    form = mi_braid(beta)
    assert parse_mi(print_mi(form), N) == form


def test_parse_mi_errors():
    with pytest.raises(ParseError):
        parse_mi("e | e | e", N)          # missing coset separator
    with pytest.raises(ParseError):
        parse_mi("e | e ; e", N)          # wrong part count
    with pytest.raises(ParseError):
        parse_mi("s3.1 | e | e ; e", N)   # wrong row in part
    with pytest.raises(ParseError):
        parse_mi("s4.5 | e | e ; e", N)   # letter 5 in a rank-3 part
    with pytest.raises(ValueError, match="^word is not reduced$"):
        parse_mi("s4.1 s4.1^-1 | e | e ; e", N)


def test_flat_tokens_marks_boundaries():
    form = mi_braid(BraidWord(N, (1,)))
    toks = flat_tokens(form)
    assert toks.count("|") == N - 2
    assert toks.count(";") == 1
