"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 invalid input (a parse
error names its token position), 3 length-guard abort.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import boundary as blab
from . import reference
from .artin import a_word, apply_braid, braid_equal
from .braids import (BraidWord, PureWord, is_pure, parse_braid,
                     parse_letters, to_braid)
from .combing import (DEFAULT_LENGTH_GUARD, LengthGuardError, MIStepper,
                      central_element, print_mi)
from .experiments import (artin_convergence_run, emit, selective_run,
                          stabilization_run, theorem2_run)
from .walks import (GeneratorDistribution, WalkConfig, load_distribution,
                    uniform_s, uniform_sigma)
from .words import (BoundaryPoint, ParseError, ReducedWord, VerificationError,
                    parse_free, print_free)


class _Status(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _guarded(f):
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(2)
        except LengthGuardError as exc:
            click.echo(f"length guard: {exc}", err=True)
            sys.exit(3)
        except _Status as exc:
            click.echo(str(exc), err=True)
            sys.exit(exc.code)
        except VerificationError as exc:
            click.echo(f"verification failed: {exc}", err=True)
            sys.exit(1)
        except ValueError as exc:
            click.echo(f"invalid input: {exc}", err=True)
            sys.exit(2)
    wrapper.__name__ = f.__name__
    wrapper.__doc__ = f.__doc__
    return wrapper


@click.group()
def main():
    """Markov-Ivanovsky normal forms, boundary lemmas, and walk experiments."""


@main.command("mi")
@click.argument("word")
@click.option("--n", default=4, show_default=True, help="strand count")
@_guarded
def mi_cmd(word: str, n: int):
    """Print the normal form of WORD (mixed b/s tokens allowed)."""
    stepper = MIStepper(n)
    for letter in parse_letters(word):
        stepper.step(letter)
    click.echo(print_mi(stepper.form()))


@main.command("artin")
@click.argument("word")
@click.option("--n", default=4, show_default=True)
@click.option("--i", "index", default=4, show_default=True,
              help="generator index for gamma(x_i) and A_i")
@_guarded
def artin_cmd(word: str, n: int, index: int):
    """Print gamma(x_i) and A_i(gamma) for a pure braid WORD."""
    gamma = parse_braid(word, n)
    if not is_pure(gamma):
        raise _Status(1, "input braid is not pure")
    image = apply_braid(gamma, ReducedWord((index,), n))
    click.echo(f"gamma(x{index}) = {print_free(image, 'x')}")
    click.echo(f"A{index} = {print_free(a_word(gamma, index), 'x')}")


def _resolve_dist(dist: str, n: int) -> GeneratorDistribution:
    if dist == "uniform-s":
        return uniform_s(n)
    if dist == "uniform-sigma":
        return uniform_sigma(n)
    with open(dist) as fh:
        return load_distribution(fh.read())


_MODES = ("stabilization", "theorem2", "selective", "artin")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INT = (_is_int, "an integer")
_CONFIG_TYPES = {  # key -> (type check, what its value must be)
    "n": _INT, "steps": _INT, "paths": _INT, "seed": _INT,
    "length_guard": _INT, "i": _INT,
    "checkpoints": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                    "a list of integers"),
    "mode": (lambda v: isinstance(v, str), "a string"),
    "distribution": (lambda v: isinstance(v, dict), "an object"),
}


@main.command("walk")
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON config file (overrides the individual flags)")
@click.option("--n", default=4, show_default=True)
@click.option("--steps", default=40, show_default=True)
@click.option("--paths", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--dist", default="uniform-s", show_default=True,
              help="uniform-s | uniform-sigma | path to distribution JSON")
@click.option("--checkpoints", default="", help="comma-separated steps")
@click.option("--mode", default="stabilization", show_default=True,
              type=click.Choice(_MODES))
@click.option("--i", "index", default=4, help="x-index for artin mode")
@click.option("--out", default="-", show_default=True)
@click.option("--format", "fmt", default="csv", show_default=True,
              type=click.Choice(["csv", "json"]))
@_guarded
def walk_cmd(config_path, n, steps, paths, seed, dist, checkpoints, mode,
             index, out, fmt):
    """Run a seeded random-walk experiment and emit its report."""
    length_guard = DEFAULT_LENGTH_GUARD
    if config_path:
        with open(config_path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise _Status(2, "config must be a JSON object")
        unknown = sorted(set(obj) - set(_CONFIG_TYPES))
        if unknown:
            raise _Status(2, f"unknown config key(s): {', '.join(unknown)}")
        for key, value in obj.items():
            ok, want = _CONFIG_TYPES[key]
            if not ok(value):
                raise ValueError(
                    f"config {key!r} must be {want}, got {value!r}")
        n = obj.get("n", n)
        steps = obj.get("steps", steps)
        paths = obj.get("paths", paths)
        seed = obj.get("seed", seed)
        checkpoints = ",".join(str(c) for c in obj.get("checkpoints", []))
        distribution = (load_distribution(json.dumps(obj["distribution"]))
                        if "distribution" in obj else _resolve_dist(dist, n))
        mode = obj.get("mode", mode)
        length_guard = obj.get("length_guard", length_guard)
        index = obj.get("i", index)
        if mode not in _MODES:
            raise _Status(2, f"unknown mode {mode!r}")
    else:
        distribution = _resolve_dist(dist, n)
    cps = tuple(int(c) for c in checkpoints.split(",") if c.strip())
    config = WalkConfig(n, steps, paths, seed, distribution, cps,
                        length_guard)
    runner = {"stabilization": stabilization_run, "theorem2": theorem2_run,
              "selective": selective_run}.get(mode)
    report = (runner(config) if runner
              else artin_convergence_run(config, index))
    emit(report, fmt, sys.stdout if out == "-" else out)
    if report.failures:
        raise LengthGuardError(
            f"{len(report.failures)} path(s) exceeded {length_guard} letters")


def _rank_of(text: str) -> int:
    return parse_free(text).rank


def _load_measure(path: str) -> blab.EmpiricalMeasure:
    with open(path) as fh:
        obj = json.load(fh)
    parsed = [(a.get("head", "e"), a["period"], Fraction(a["weight"]))
              for a in obj["atoms"]]
    rank = max(max(_rank_of(h), _rank_of(p)) for h, p, _ in parsed)
    atoms = tuple(
        (BoundaryPoint.make(parse_free(h, rank), parse_free(p, rank)), w)
        for h, p, w in parsed)
    return blab.EmpiricalMeasure(atoms)


@main.group("boundary")
def boundary_group():
    """Contraction-lemma checks; results printed as JSON records."""


@boundary_group.command("cover")
@click.argument("a")
@click.option("--k", default=1, show_default=True)
@_guarded
def cover_cmd(a: str, k: int):
    word = parse_free(a)
    verdict = blab.ball_cover_check(word, k)
    click.echo(json.dumps(blab.witness_record(
        "ball-cover", {"a": a, "k": k}, verdict, None)))
    if not verdict:
        sys.exit(1)


@boundary_group.command("wing")
@click.argument("a")
@click.argument("b")
@click.option("--k", default=1, show_default=True)
@_guarded
def wing_cmd(a: str, b: str, k: int):
    rank = max(_rank_of(a), _rank_of(b))
    h = blab.find_large_wing(parse_free(a, rank), parse_free(b, rank), k)
    click.echo(json.dumps({"lemma": "large-wing",
                           "inputs": {"a": a, "b": b, "k": k},
                           "verdict": True, "witness": print_free(h)}))


@boundary_group.command("contract")
@click.argument("g")
@click.option("--measure", required=True, type=click.Path(exists=True))
@click.option("--eps", required=True, help="rational, e.g. 1/2")
@_guarded
def contract_cmd(g: str, measure: str, eps: str):
    lam = _load_measure(measure)
    rank = lam.atoms[0][0].rank
    w = blab.is_eps_contracting(parse_free(g, rank), lam, Fraction(eps))
    click.echo(json.dumps(blab.witness_record(
        "eps-contracting", {"g": g, "eps": eps}, w is not None, w)))
    if w is None:
        sys.exit(1)


@boundary_group.command("qwitness")
@click.argument("a")
@click.argument("b")
@click.option("--k", default=2, show_default=True,
              help="contraction radius 1/k; k >= 2")
@click.option("--measure", required=True, type=click.Path(exists=True))
@_guarded
def qwitness_cmd(a: str, b: str, k: int, measure: str):
    if k < 2:
        raise _Status(2, f"qwitness needs --k >= 2 (eps = 1/k in (0, 1)), "
                         f"got {k}")
    lam = _load_measure(measure)
    rank = lam.atoms[0][0].rank
    w = blab.q_collection_witness(parse_free(a, rank), parse_free(b, rank),
                                  k, lam)
    click.echo(json.dumps(blab.witness_record(
        "q-collection", {"a": a, "b": b, "k": k}, True, w)))


@boundary_group.command("convolution")
@click.argument("g")
@click.option("--n", default=2, show_default=True)
@click.option("--smax", default=10, show_default=True)
@_guarded
def convolution_cmd(g: str, n: int, smax: int):
    dist = uniform_sigma(n)
    atoms = [(parse_braid(t, n), w) for t, w in dist.atoms]
    hit = blab.min_convolution_hit(atoms, parse_braid(g, n), smax)
    rec = {"lemma": "convolution-constant",
           "inputs": {"g": g, "n": n, "s_max": smax},
           "verdict": hit is not None,
           "witness": None if hit is None else {
               "s": hit.s, "mass": str(hit.mass),
               "c_prime": str(hit.c_prime),
               "c_double_prime": str(hit.c_double_prime)}}
    click.echo(json.dumps(rec))
    if hit is None:
        sys.exit(1)


@main.command("verify-paper")
@_guarded
def verify_cmd():
    """Replay every bundled reference-table check; report pass/fail."""
    rows: list[tuple[str, bool]] = []
    stepper = MIStepper(4)
    forms = [print_mi(stepper.form())]
    for letter in reference.REFERENCE_WALK:
        stepper.step(letter)
        forms.append(print_mi(stepper.form()))
    for t, want in enumerate(reference.REFERENCE_FORMS):
        rows.append((f"normal form after step {t}", forms[t] == want))
    for t, pref in ((8, reference.REFERENCE_PREFIX_8),
                    (9, reference.REFERENCE_PREFIX_9)):
        toks = [x for x in forms[t].replace(" | ", " ").replace(" ; ", " ")
                .split() if x != "e"]
        rows.append((f"form prefix after step {t}", toks[:14] == pref))

    x4 = ReducedWord((4,), 4)
    for t, want in ((0, (4,)), (1, (4,)), (2, reference.ARTIN_G2_X4),
                    (3, reference.ARTIN_G3_X4), (4, reference.ARTIN_G3_X4)):
        g = PureWord(4, tuple(reference.REFERENCE_WALK[:t]))
        rows.append((f"x4-image after step {t}",
                     apply_braid(g, x4).letters == want))
    g3 = PureWord(4, tuple(reference.REFERENCE_WALK[:3]))
    rows.append(("A4 conjugator after step 3",
                 a_word(g3, 4).letters == reference.ARTIN_A3))

    u = central_element(4)
    ub = to_braid(u)
    comm = all(braid_equal(ub * to_braid(PureWord(4, (((j, i), 1),))),
                           to_braid(PureWord(4, (((j, i), 1),))) * ub)
               for j in range(2, 4) for i in range(1, j))
    rows.append(("central element commutes with P_3", comm))
    rows.append(("central element is the positive palindrome",
                 braid_equal(ub, BraidWord(4, (3, 2, 1, 1, 2, 3)))))

    width = max(len(name) for name, _ in rows)
    ok = True
    for name, res in rows:
        click.echo(f"{name:<{width}}  {'PASS' if res else 'FAIL'}")
        ok &= res
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
