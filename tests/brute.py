"""Brute-force references for the tests: plain enumerations and a plain free
reduction that share no code with the kernel they check."""

from __future__ import annotations

from typing import Iterator


def reduced_words(rank: int, length: int) -> Iterator[tuple[int, ...]]:
    """All reduced words of exactly the given length."""
    alphabet = [l for g in range(1, rank + 1) for l in (g, -g)]
    stack: list[tuple[int, ...]] = [()]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
            continue
        for l in alphabet:
            if not w or w[-1] != -l:
                stack.append(w + (l,))


def cover_by_enumeration(a_inv: tuple[int, ...], plus: tuple[int, ...],
                         minus: tuple[int, ...], rank: int) -> bool:
    """`boundary._cover_search` by enumerating every cylinder of depth
    |a_inv| + |plus|: each must start with `plus`, or its translate by
    a_inv must start with `minus`."""
    m, c = len(a_inv), len(plus)
    for w in reduced_words(rank, m + c):
        if w[:c] == plus:
            continue
        p = 0  # junction cancellation of a_inv . w
        while p < m and a_inv[m - 1 - p] == -w[p]:
            p += 1
        if (a_inv[:m - p] + w[p:])[:c] == minus:
            continue
        return False
    return True


def free_reduce(letters) -> tuple[int, ...]:
    """Free reduction by deleting adjacent inverse pairs, stepping back one
    place after each deletion."""
    w = list(letters)
    i = 0
    while i + 1 < len(w):
        if w[i] == -w[i + 1]:
            del w[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(w)
