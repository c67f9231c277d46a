"""Seeded random-walk engine: generator distributions and path sampling.

Each path draws from a counter-based stream keyed by (seed, path index), so
the output is bit-identical regardless of execution order or parallelism.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .braids import parse_braid_tokens
from .words import ParseError


@dataclass(frozen=True)
class GeneratorDistribution:
    """Positive rational weights on generator tokens (one shared alphabet)."""

    kind: str  # "uniform-s" | "uniform-sigma" | "custom"
    atoms: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        if sum((w for _, w in self.atoms), Fraction(0)) != 1:
            raise ValueError("weights must sum to 1")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive")
        kinds = {parse_braid_tokens(t)[0][0] for t, _ in self.atoms}
        if len(kinds) > 1:
            raise ValueError("atoms must share one alphabet")

    def is_pure(self) -> bool:
        return all(parse_braid_tokens(t)[0][0] == "s" for t, _ in self.atoms)


def uniform_s(n: int) -> GeneratorDistribution:
    """Uniform on the 2.C(n,2) pure generators s_ji^{+-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    w = Fraction(1, 2 * comb(n, 2))
    atoms = []
    for j in range(2, n + 1):
        for i in range(1, j):
            atoms.append((f"s{j}.{i}", w))
            atoms.append((f"s{j}.{i}^-1", w))
    return GeneratorDistribution("uniform-s", tuple(atoms))


def uniform_sigma(n: int) -> GeneratorDistribution:
    """Uniform on the 2(n-1) Artin generators sigma_i^{+-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    w = Fraction(1, 2 * (n - 1))
    atoms = []
    for i in range(1, n):
        atoms.append((f"b{i}", w))
        atoms.append((f"b{i}^-1", w))
    return GeneratorDistribution("uniform-sigma", tuple(atoms))


@dataclass(frozen=True)
class WalkConfig:
    n: int
    steps: int
    paths: int
    seed: int
    distribution: GeneratorDistribution
    checkpoints: tuple[int, ...] = ()
    length_guard: int = 10 ** 6

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if any(not 1 <= c <= self.steps for c in self.checkpoints):
            raise ValueError("checkpoints must lie in [1, steps]")
        if list(self.checkpoints) != sorted(self.checkpoints):
            raise ValueError("checkpoints must be sorted")


@dataclass(frozen=True)
class Path:
    index: int
    letters: tuple[str, ...]  # sampled tokens


def _thresholds(d: GeneratorDistribution) -> tuple[list[int], list[str]]:
    """ceil(c 2^64) for each cumulative weight c, and the atoms' tokens.

    A draw d picks the first atom with d / 2^64 < c, and for an integer d
    that is d < ceil(c 2^64): exact, with no Fraction per draw.
    """
    cuts, toks = [], []
    acc = Fraction(0)
    for tok, w in d.atoms:
        acc += w
        cuts.append(-((-acc.numerator << 64) // acc.denominator))
        toks.append(tok)
    return cuts, toks


def _sample_one(config: WalkConfig, index: int,
                table: tuple[list[int], list[str]]) -> Path:
    rng = np.random.Generator(np.random.Philox(key=[config.seed, index]))
    draws = rng.integers(0, 2 ** 64, size=config.steps,
                         dtype=np.uint64, endpoint=False)
    cuts, toks = table
    last = len(toks) - 1
    return Path(index, tuple(toks[min(bisect_right(cuts, d), last)]
                             for d in draws.tolist()))


def sample_paths(config: WalkConfig) -> list[Path]:
    table = _thresholds(config.distribution)
    return [_sample_one(config, p, table) for p in range(config.paths)]


# ---------------------------------------------------------------------------
# distribution JSON
# ---------------------------------------------------------------------------

def distribution_to_json(d: GeneratorDistribution) -> dict:
    return {"kind": d.kind,
            "atoms": [{"token": t, "weight": str(w)} for t, w in d.atoms]}


def distribution_from_json(obj: dict) -> GeneratorDistribution:
    kind = obj.get("kind", "custom")
    atoms = tuple((a["token"], Fraction(a["weight"]))
                  for a in obj["atoms"])
    return GeneratorDistribution(kind, atoms)


def load_distribution(text: str) -> GeneratorDistribution:
    try:
        return distribution_from_json(json.loads(text))
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad distribution JSON: {exc}", 0)
