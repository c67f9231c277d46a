"""An equality check for braid words that shares no code with braidwalk.

The unreduced Burau representation sends sigma_i to the identity matrix
with the 2x2 block [[1 - t, t], [1, 0]] on rows and columns i, i+1.  It is
evaluated here over the prime field F_p, p = 2^61 - 1, at fixed random
values of t, and applied to a fixed random row vector, so one sigma-letter
costs a few multiplications.  Equal braids always evaluate equal; for
n = 3 the representation over Laurent polynomials is faithful
(Magnus-Peluso), and for n >= 4 it is a necessary condition, so a
mismatch proves two words differ and a match never rejects a correct
answer.

Pure generators are expanded by the convention braidwalk documents:

    s_ji = sigma_{j-1} ... sigma_{i+1} . sigma_i^-2 . sigma_{i+1}^-1 ... sigma_{j-1}^-1
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

P = (1 << 61) - 1
_POINTS = 2  # independent (t, v) evaluations per key


def _points(n: int) -> list[tuple[int, int, int, list[int]]]:
    rng = random.Random(f"burau-{n}")
    out = []
    for _ in range(_POINTS):
        t = rng.randrange(2, P - 1)
        t_inv = pow(t, P - 2, P)
        out.append((t, t_inv, (1 - t_inv) % P,
                    [rng.randrange(1, P) for _ in range(n)]))
    return out


def pure_sigma(j: int, i: int, sign: int) -> list[int]:
    """sigma-letters of s_ji^sign (1 <= i < j)."""
    pre = list(range(j - 1, i, -1))
    word = pre + [-i, -i] + [-k for k in reversed(pre)]
    if sign > 0:
        return word
    return [-l for l in reversed(word)]


class Burau:
    """Evaluations of sigma-words in B_n; `key` is a tuple of row vectors."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self._pts = _points(n)

    def key(self, sigma_letters: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        letters = list(sigma_letters)
        out = []
        for t, t_inv, one_minus_t_inv, v in self._pts:
            x = list(v)
            one_minus_t = (1 - t) % P
            for l in letters:
                if l > 0:
                    a = l - 1
                    xa, xb = x[a], x[a + 1]
                    x[a] = (xa * one_minus_t + xb) % P
                    x[a + 1] = xa * t % P
                elif l < 0:
                    a = -l - 1
                    xa, xb = x[a], x[a + 1]
                    x[a] = xb * t_inv % P
                    x[a + 1] = (xa + xb * one_minus_t_inv) % P
                else:
                    raise ValueError("sigma letter 0")
            out.append(tuple(x))
        return tuple(out)

    def pure_key(self, letters: Iterable[tuple[int, int, int]]):
        """Key of a word of pure letters given as (j, i, sign)."""
        sig: list[int] = []
        for j, i, sg in letters:
            sig += pure_sigma(j, i, sg)
        return self.key(sig)

    def form_key(self, parts: Sequence[Sequence[int]],
                 coset: Sequence[int] = ()):
        """Key of a normal form V_{n-1} ... V_1 . pi: part k (from 0) holds
        signed y-letters of row n - k, the coset is a sigma-word."""
        sig: list[int] = []
        for lvl, part in enumerate(parts):
            row = self.n - lvl
            for l in part:
                sig += pure_sigma(row, abs(l), 1 if l > 0 else -1)
        sig += list(coset)
        return self.key(sig)
