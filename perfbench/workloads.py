"""The four workloads.  Each builds its inputs from the seed, runs one round
of operations through a tracer, and checks a round's outputs against
computations made apart from braidwalk (the Burau checker, the
benchmark's own sampler, free reduction and enumeration) or against
properties the method must have.

Only names exported by `braidwalk/__init__.py` are used, plus the CLI
entry point `braidwalk.cli.main` (the console script of the package).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

import braidwalk as bw
from braidwalk.cli import main as cli_main
from burau import Burau, pure_sigma

HERE = os.path.dirname(os.path.abspath(__file__))
N = 4

POOL_FILE = os.path.join(HERE, "pool.json")
NEAR = 1.05


def load_pool(workload: str) -> list[dict]:
    with open(POOL_FILE) as fh:
        return json.load(fh)[workload]


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() if isinstance(t, str) else repr(t).encode())
        h.update(b"\0")
    return h.hexdigest()


def stratified(entries, size: int, rng: random.Random):
    """One candidate from each of `size` strata of equal count, the pool
    being sorted by screened time `s`.  Within a stratum the candidate is
    drawn among those whose time is within a factor NEAR of the stratum's
    median, so every seed's round has the same make-up of costs."""
    ranked = sorted(entries, key=lambda e: (e["s"], e["key"]))
    chosen = []
    for k in range(size):
        stratum = ranked[k * len(ranked) // size:(k + 1) * len(ranked) // size]
        mid = stratum[len(stratum) // 2]["s"]
        chosen.append(rng.choice([e for e in stratum
                                  if mid / NEAR <= e["s"] <= mid * NEAR]))
    return sorted(chosen, key=lambda e: e["key"])


# ---------------------------------------------------------------------------
# helpers made apart from braidwalk
# ---------------------------------------------------------------------------

def free_reduce(letters):
    buf: list[int] = []
    for l in letters:
        if buf and buf[-1] == -l:
            buf.pop()
        else:
            buf.append(l)
    return buf


def inverse(letters):
    return [-l for l in reversed(letters)]


def lcp(a, b) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def parse_token(tok: str):
    """'b2^-1' -> -2; 's4.1^-1' -> (4, 1, -1)."""
    base, _, exp = tok.partition("^")
    sign = -1 if exp == "-1" else 1
    if base[0] == "b":
        return sign * int(base[1:])
    j, i = base[1:].split(".")
    return (int(j), int(i), sign)


def own_sample(dist_tokens, weights, seed: int, index: int, steps: int):
    """The walk's tokens: Philox stream keyed (seed, index), one uint64 per
    step, first atom whose cumulative weight exceeds d / 2^64.  Integer
    thresholds ceil(cum * 2^64) give the same letters as exact rationals."""
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    draws = rng.integers(0, 2 ** 64, size=steps, dtype=np.uint64,
                         endpoint=False)
    cum, acc = [], Fraction(0)
    for w in weights:
        acc += w
        cum.append(-((-acc.numerator << 64) // acc.denominator))
    out = []
    for d in draws:
        d = int(d)
        for thr, tok in zip(cum, dist_tokens):
            if d < thr:
                out.append(tok)
                break
        else:
            out.append(dist_tokens[-1])
    return out


def form_tokens(parts, coset):
    toks = []
    for lvl, part in enumerate(parts):
        toks += [(N - lvl, l) for l in part]
        toks.append("|")
    toks[-1] = ";"
    toks += [("b", l) for l in coset]
    return toks


def form_of(f):
    return [list(p.letters) for p in f.parts], list(f.coset.letters)


# ---------------------------------------------------------------------------
# shared set-up: warm every layer once and replay verify-paper
# ---------------------------------------------------------------------------

def warm_up(tr) -> None:
    """One small call into every traced layer, so lazy tables (conjugation
    rules, conjugation images) are built before the first timed operation."""
    cfg = bw.WalkConfig(N, 4, 2, 0, bw.uniform_s(N), (2, 4))
    tr.call("experiments.emit", bw.emit, bw.theorem2_run(cfg), "json",
            io.StringIO())
    sig = bw.WalkConfig(N, 4, 2, 0, bw.uniform_sigma(N), (2, 4))
    bw.stabilization_run(sig)
    g = bw.PureWord(N, tuple(((j, i), s) for j in range(2, N + 1)
                             for i in range(1, j) for s in (1, -1)))
    form = tr.call("combing.mi_pure", bw.mi_pure, g)
    flat = tr.call("combing.flatten", bw.flatten, form)
    tb = tr.call("braids.to_braid", bw.to_braid, g)
    tr.call("artin.braid_equal", bw.braid_equal, flat, tb)
    tr.call("combing.mi_braid", bw.mi_braid, flat)
    _, bad = perturb(*form_of(form), 0)
    tr.call("artin.braid_equal_reject", bw.braid_equal,
            bw.BraidWord(N, tuple(bad)), tb)
    a = bw.ReducedWord((1, 2), 2)
    tr.call("boundary.ball_cover", bw.ball_cover_check, a, 1)
    mu = [(bw.parse_braid(t, 2), w) for t, w in bw.uniform_sigma(2).atoms]
    tr.call("boundary.convolution", bw.min_convolution_hit, mu,
            bw.BraidWord(2, (1,)), 1)
    lam = bw.EmpiricalMeasure(((bw.BoundaryPoint.make(
        bw.ReducedWord((), 2), bw.ReducedWord((1,), 2)), Fraction(1)),))
    tr.call("boundary.witness", bw.q_collection_witness, a,
            bw.ReducedWord((2,), 2), 2, lam)


def verify_paper(tr) -> None:
    out = io.StringIO()
    code = 0
    with redirect_stdout(out):
        try:
            tr.call("cli.verify_paper", cli_main, ["verify-paper"],
                    standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    rows = [l for l in out.getvalue().splitlines() if l.strip()]
    check(code in (0, None) and rows
          and all(r.rstrip().endswith("PASS") for r in rows),
          "verify-paper: " + out.getvalue())


# ---------------------------------------------------------------------------
# walk-pure: theorem2_run in P_4 under uniform_s(4)
# ---------------------------------------------------------------------------

PURE_STEPS = 40
PURE_CHECKPOINTS = (10, 20, 30, 40)
PURE_ROUND = 24


def pure_config(walk_seed: int) -> bw.WalkConfig:
    return bw.WalkConfig(N, PURE_STEPS, 1, walk_seed, bw.uniform_s(N),
                         PURE_CHECKPOINTS)


def pure_op(tr, cfg):
    report = bw.theorem2_run(cfg)
    buf = io.StringIO()
    tr.call("experiments.emit", bw.emit, report, "json", buf)
    return buf.getvalue()


class WalkPure:
    name = "walk-pure"

    def __init__(self, seed: int):
        rng = random.Random(f"walk-pure-{seed}")
        chosen = stratified(load_pool("walk-pure"), PURE_ROUND, rng)
        self.ops = [pure_config(e["key"]) for e in chosen]

    def run_op(self, tr, cfg):
        return pure_op(tr, cfg)

    def verify(self, pairs):
        for cfg, text in pairs:
            verify_walk(cfg, json.loads(text), pure=True)


# ---------------------------------------------------------------------------
# walk-sigma: `braidwalk walk --mode stabilization --dist uniform-sigma`
# ---------------------------------------------------------------------------

SIGMA_EXPERIMENTS = 4
SIGMA_PATHS = 250
SIGMA_STEPS = 24
SIGMA_CHECKPOINTS = (8, 16, 24)
OUT_DIR = os.path.join("perfbench", "out")


class WalkSigma:
    name = "walk-sigma"

    def __init__(self, seed: int):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.ops = [(seed * SIGMA_EXPERIMENTS + k,
                     os.path.join(OUT_DIR, f"walk-sigma-{k}.json"))
                    for k in range(SIGMA_EXPERIMENTS)]

    def config(self, walk_seed: int) -> bw.WalkConfig:
        return bw.WalkConfig(N, SIGMA_STEPS, SIGMA_PATHS, walk_seed,
                             bw.uniform_sigma(N), SIGMA_CHECKPOINTS)

    def run_op(self, tr, op):
        walk_seed, path = op
        args = ["walk", "--n", str(N), "--steps", str(SIGMA_STEPS),
                "--paths", str(SIGMA_PATHS), "--seed", str(walk_seed),
                "--dist", "uniform-sigma", "--mode", "stabilization",
                "--checkpoints", ",".join(map(str, SIGMA_CHECKPOINTS)),
                "--format", "json", "--out", path]
        try:
            cli_main(args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"braidwalk walk exited {exc.code}")
        with open(path) as fh:
            return fh.read()

    def verify(self, pairs):
        for (walk_seed, _), text in pairs:
            verify_walk(self.config(walk_seed), json.loads(text), pure=False)


def verify_walk(cfg: bw.WalkConfig, rep: dict, pure: bool) -> None:
    """Every row of a walk report, against forms recomputed by batch
    combing of each prefix; the final form against the walked word by
    Burau; the sampled tokens against the benchmark's own sampler."""
    burau = Burau(N)
    toks = [t for t, _ in cfg.distribution.atoms]
    weights = [w for _, w in cfg.distribution.atoms]
    paths = bw.sample_paths(cfg)
    check(rep["failures"] == [], "a path hit the length guard")
    u = [-k for k in range(1, N)]  # central element, top-factor letters
    thm2_ok = True
    by_path: dict[int, list] = {}
    for r in rep["records"]:
        by_path.setdefault(r["path_id"], []).append(r)
    check(sorted(by_path) == list(range(cfg.paths)), "paths missing")
    for p in range(cfg.paths):
        walk = own_sample(toks, weights, cfg.seed, p, cfg.steps)
        check(list(paths[p].letters) == walk, f"path {p}: sampled tokens")
        letters = [parse_token(t) for t in walk]
        forms = {}
        for t in cfg.checkpoints:
            if pure:
                f = bw.mi_pure(bw.PureWord(N, tuple(
                    ((j, i), s) for j, i, s in letters[:t])))
            else:
                f = bw.mi_braid(bw.BraidWord(N, tuple(letters[:t])))
            forms[t] = form_of(f)
        parts, coset = forms[cfg.steps]
        walked = (burau.pure_key(letters) if pure else burau.key(letters))
        check(burau.form_key(parts, coset) == walked,
              f"path {p}: Burau of final form differs from the walk")
        final_toks = form_tokens(parts, coset)
        rows = sorted(by_path[p], key=lambda r: r["step"])
        check([r["step"] for r in rows] == list(cfg.checkpoints),
              f"path {p}: checkpoints")
        for r in rows:
            fp, fc = forms[r["step"]]
            ft = form_tokens(fp, fc)
            check(r["mi_len"] == len(ft), f"path {p}: mi_len")
            check(r["lcp_final"] == lcp(ft, final_toks), f"path {p}: lcp")
            for m in range(1, N):
                check(r[f"part_len_{m}"] == len(fp[N - 1 - m]),
                      f"path {p}: part_len_{m}")
            if not pure:
                check(r["x_gromov"] is None, f"path {p}: x_gromov")
                continue
            x = fp[0]
            check(r["x_gromov"] == lcp(x, parts[0]), f"path {p}: x_gromov")
            for ud in (u, inverse(u)):
                c = free_reduce(x + ud + inverse(x))
                thm2_ok &= 2 * lcp(x, c) >= len(c) - len(u)
    check(rep["thm2_ok"] == thm2_ok, "thm2_ok")


# ---------------------------------------------------------------------------
# oracle: combing soundness, idempotence and rejection of perturbed pairs
# ---------------------------------------------------------------------------

ORACLE_KEY = 2026
ORACLE_ROUND = 12
PURE_GENS = [(j, i, s) for j in range(2, N + 1) for i in range(1, j)
             for s in (1, -1)]


def oracle_word(index: int):
    """Word `index` of the candidate corpus, drawn like criterion 03's
    (s-length uniform on 0..25, letters uniform), and a draw that picks
    the perturbed letter."""
    rng = np.random.Generator(np.random.Philox(key=[ORACLE_KEY, index]))
    length = int(rng.integers(0, 26))
    letters = [PURE_GENS[int(rng.integers(0, len(PURE_GENS)))]
               for _ in range(length)]
    return letters, int(rng.integers(0, 2 ** 62))


def perturb(parts, coset, pick: int):
    """One letter of a part in row >= 3 replaced by another letter of the
    same row and sign: permutation and exponent sum stay, the braid
    changes.  A form with no such letter gets s_{4,1} s_{4,2}^-1 appended
    to its top part instead."""
    spots = [(lvl, pos) for lvl, part in enumerate(parts) if N - lvl >= 3
             for pos in range(len(part))]
    bad = [list(p) for p in parts]
    if not spots:
        bad[0] += [1, -2]
    else:
        lvl, pos = spots[pick % len(spots)]
        l = bad[lvl][pos]
        others = [i for i in range(1, N - lvl) if i != abs(l)]
        bad[lvl][pos] = others[(pick // len(spots)) % len(others)] * (
            1 if l > 0 else -1)
    sig = []
    for lvl, part in enumerate(bad):
        for l in part:
            sig += pure_sigma(N - lvl, abs(l), 1 if l > 0 else -1)
    return bad, sig + list(coset)


class Oracle:
    name = "oracle"

    def __init__(self, seed: int):
        rng = random.Random(f"oracle-{seed}")
        chosen = stratified(load_pool("oracle"), ORACLE_ROUND, rng)
        self.ops = []
        for e in chosen:
            letters, pick = oracle_word(e["key"])
            self.ops.append((letters, pick, bw.PureWord(N, tuple(
                ((j, i), s) for j, i, s in letters))))

    def run_op(self, tr, op):
        return oracle_op(tr, op)

    def verify(self, pairs):
        burau = Burau(N)
        for (letters, pick, _), out in pairs:
            parts, coset, eq, idem, rejected, sigma_letters = out
            check(coset == [], "pure word with a non-trivial coset")
            for part in parts:
                check(free_reduce(part) == part, "part not reduced")
            want = burau.pure_key(letters)
            check(burau.form_key(parts, coset) == want,
                  "Burau of flattened form differs from the word")
            check(eq is True, "braid_equal rejected a correct form")
            check(idem is True, "mi_braid(flatten(form)) != form")
            bad, bad_sig = perturb(parts, coset, pick)
            check(burau.key(bad_sig) != want, "perturbed pair not distinct")
            check(rejected is False, "braid_equal accepted a perturbed pair")


def oracle_op(tr, op):
    _, pick, g = op
    form = tr.call("combing.mi_pure", bw.mi_pure, g)
    flat = tr.call("combing.flatten", bw.flatten, form)
    tb = tr.call("braids.to_braid", bw.to_braid, g)
    eq = tr.call("artin.braid_equal", bw.braid_equal, flat, tb)
    again = tr.call("combing.mi_braid", bw.mi_braid, flat)
    parts, coset = form_of(form)
    _, bad_sig = perturb(parts, coset, pick)
    bad = bw.BraidWord(N, tuple(bad_sig))
    rejected = tr.call("artin.braid_equal_reject", bw.braid_equal, bad, tb)
    if tr.enabled:
        tr.peak("combing.form_letters_max", sum(len(p) for p in parts))
        tr.count("artin.sigma_letters", 2 * len(tb) + len(flat) + len(bad))
    idem = (again.parts == form.parts and again.coset == form.coset)
    return parts, coset, eq, idem, rejected, len(flat)


# ---------------------------------------------------------------------------
# lemmas: ball cover, convolution constants, contraction witnesses
# ---------------------------------------------------------------------------

# (k, |a|, instances per round) for the two-ball cover
COVER_PLAN = [(1, 2, 6), (1, 3, 6), (1, 4, 6), (1, 5, 6), (1, 6, 6),
              (1, 7, 6), (2, 4, 6), (2, 5, 6), (2, 6, 6), (2, 7, 6),
              (3, 6, 6), (3, 7, 6)]
# (n, target length, instances per round) for convolution constants.  The
# targets are positive or negative words, whose length is their geodesic
# length, so the hit comes at s = length and the cost of an instance does
# not depend on the seed.
CONV_PLAN = [(2, 6, 4), (2, 10, 4), (3, 5, 6), (3, 6, 12)]
# (k, instances per round) for q-collection witnesses.  Their cost lies
# between the small and the large ball covers, so the median operation of
# a round is a witness.
WITNESS_PLAN = [(2, 14), (3, 13), (4, 13)]


def reduced_words(rank: int, length: int):
    alphabet = [l for g in range(1, rank + 1) for l in (g, -g)]
    words = [()]
    for _ in range(length):
        words = [w + (l,) for w in words for l in alphabet
                 if not w or w[-1] != -l]
    return words


def cylinders(rank: int, depth: int) -> int:
    """The number of reduced words of length depth >= 1."""
    return 2 * rank * (2 * rank - 1) ** (depth - 1)


def random_reduced(rng: random.Random, rank: int, length: int):
    return rng.choice(reduced_words(rank, length))


def wing_len(letters) -> int:
    w, k = list(letters), 0
    while len(w) >= 2 and w[0] == -w[-1]:
        w, k = w[1:-1], k + 1
    return k


def unroll(head, period, m):
    out = list(head)
    while len(out) < m:
        out += period
    return out[:m]


class Lemmas:
    name = "lemmas"

    def __init__(self, seed: int):
        rng = random.Random(f"lemmas-{seed}")
        self.ops = []
        for k, length, count in COVER_PLAN:
            words = reduced_words(2, length)
            for w in rng.sample(words, count):
                self.ops.append(("cover", bw.ReducedWord(w, 2), k))
        for n, length, count in CONV_PLAN:
            for _ in range(count):
                sign = rng.choice([1, -1])
                g = [sign * rng.randrange(1, n) for _ in range(length)]
                self.ops.append(("convolution", n, tuple(g)))
        for k, count in WITNESS_PLAN:
            for _ in range(count):
                self.ops.append(("witness", *self._witness_input(rng, k)))

    @staticmethod
    def _witness_input(rng, k):
        while True:
            a = random_reduced(rng, 2, rng.randrange(1, 5))
            b = random_reduced(rng, 2, rng.randrange(1, 5))
            if free_reduce(list(a + b)) != free_reduce(list(b + a)):
                break
        atoms: dict = {}
        size = rng.randrange(2, 5)
        while len(atoms) < size:
            head = random_reduced(rng, 2, rng.randrange(0, 4))
            while True:
                period = random_reduced(rng, 2, rng.randrange(1, 4))
                if len(period) == 1 or period[0] != -period[-1]:
                    break
            pt = bw.BoundaryPoint.make(bw.ReducedWord(head, 2),
                                       bw.ReducedWord(period, 2))
            atoms[pt] = rng.randrange(1, 6)
        total = sum(atoms.values())
        lam = bw.EmpiricalMeasure(tuple((p, Fraction(w, total))
                                        for p, w in atoms.items()))
        return bw.ReducedWord(a, 2), bw.ReducedWord(b, 2), k, lam

    def run_op(self, tr, op):
        kind = op[0]
        if kind == "cover":
            _, a, k = op
            if tr.enabled:
                tr.count("boundary.cylinders", cylinders(2, len(a) + k - 1))
            return tr.call("boundary.ball_cover", bw.ball_cover_check, a, k)
        if kind == "convolution":
            _, n, g = op
            mu = [(bw.parse_braid(t, n), w)
                  for t, w in bw.uniform_sigma(n).atoms]
            hit = tr.call("boundary.convolution", bw.min_convolution_hit, mu,
                          bw.BraidWord(n, g), len(g))
            return None if hit is None else (hit.s, hit.mass, hit.c_prime,
                                             hit.c_double_prime)
        _, a, b, k, lam = op
        w = tr.call("boundary.witness", bw.q_collection_witness, a, b, k, lam)
        return (w.element.letters, w.center.head.letters,
                w.center.period.letters, w.epsilon, w.mass)

    def verify(self, pairs):
        for op, out in pairs:
            kind = op[0]
            if kind == "cover":
                check(out is True, f"ball cover false for {op[1].letters}")
            elif kind == "convolution":
                check(out == brute_convolution(op[1], op[2]),
                      f"convolution constant for {op[2]}")
            else:
                verify_witness(op, out)


def brute_convolution(n: int, g):
    """Smallest s with a product of s uniform draws equal to g, by
    enumerating all (2(n-1))^s draws and comparing Burau keys."""
    burau = Burau(n)
    target = burau.key(g)
    atoms = [l for i in range(1, n) for l in (i, -i)]
    for s in range(1, len(g) + 1):
        hits = sum(1 for draw in itertools.product(atoms, repeat=s)
                   if burau.key(draw) == target)
        if hits:
            mass = Fraction(hits, len(atoms) ** s)
            return s, mass, 1 / mass, 1 / (1 + 1 / mass)
    return None


def verify_witness(op, out) -> None:
    """The witness ball holds mass >= 1 - 1/k of g.lambda, recomputed by
    free reduction of unrolled boundary points."""
    _, a, b, k, lam = op
    element, c_head, c_period, eps, mass = out
    check(eps == Fraction(1, k), "witness epsilon")
    check(wing_len(element) >= k, "witness element has a short wing")
    g = list(element)
    centre = unroll(c_head, c_period, k - 1)
    own = Fraction(0)
    for p, w in lam.atoms:
        ahead = unroll(p.head.letters, p.period.letters, len(g) + k)
        if free_reduce(g + ahead)[:k - 1] == centre:
            own += w
    check(own == mass, "witness mass")
    check(mass >= 1 - eps, "witness mass below 1 - eps")


WORKLOADS = {w.name: w for w in (WalkPure, WalkSigma, Oracle, Lemmas)}
