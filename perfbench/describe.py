"""Print the make-up of a workload's inputs for some seeds:

    PYTHONPATH=src python3 perfbench/describe.py oracle 1 2 3

oracle: quantiles of the s-length, of the sigma-length of the word and of
its flattened normal form, and the share of words whose Artin images pass
the 200,000-letter budget, past which braid_equal compares normal forms.
walk-pure and walk-sigma: quantiles of the normal-form length (mi_len) at
each checkpoint over all paths of the seeds' experiments.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import braidwalk as bw  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS, free_reduce, inverse  # noqa: E402

IMAGE_BUDGET = 200_000


def images_pass_budget(sigma_letters, n: int) -> bool:
    """Whether the images of x_1..x_n under the word pass IMAGE_BUDGET
    letters in total, by the Artin action documented in braidwalk.artin:
    sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i (and its inverse),
    images of u.v being the images of v substituted into those of u."""
    ims = [[k] for k in range(1, n + 1)]
    total = n
    for l in sigma_letters:
        i = abs(l)
        a, b = ims[i - 1], ims[i]
        before = len(a) + len(b)
        if l > 0:
            ims[i - 1], ims[i] = free_reduce(a + b + inverse(a)), a
        else:
            ims[i - 1], ims[i] = b, free_reduce(inverse(b) + a + b)
        total += len(ims[i - 1]) + len(ims[i]) - before
        if total > IMAGE_BUDGET:
            return True
    return False


def quartiles(values) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"min {min(values)} q1 {q[0]:g} median {q[1]:g} q3 {q[2]:g} "
            f"max {max(values)} (n={len(values)})")


def describe_oracle(seeds) -> None:
    s_len, sig_len, flat_len, past = [], [], [], 0
    for seed in seeds:
        for letters, _, g in WORKLOADS["oracle"](seed).ops:
            flat = bw.flatten(bw.mi_pure(g))
            tb = bw.to_braid(g)
            s_len.append(len(letters))
            sig_len.append(len(tb))
            flat_len.append(len(flat))
            past += (images_pass_budget(flat.letters, 4)
                     or images_pass_budget(tb.letters, 4))
    print("s-length       ", quartiles(s_len))
    print("sigma-length   ", quartiles(sig_len))
    print("flattened form ", quartiles(flat_len))
    print(f"past the image budget: {past} of {len(s_len)}")


def describe_walk(name, seeds) -> None:
    by_step: dict[int, list[int]] = {}
    tr = NullTracer()
    for seed in seeds:
        wl = WORKLOADS[name](seed)
        for op in wl.ops:
            for r in json.loads(wl.run_op(tr, op))["records"]:
                by_step.setdefault(r["step"], []).append(r["mi_len"])
    for step in sorted(by_step):
        print(f"mi_len at step {step:3d}: {quartiles(by_step[step])}")


def main() -> None:
    name, seeds = sys.argv[1], [int(s) for s in sys.argv[2:]]
    if name == "oracle":
        describe_oracle(seeds)
    elif name in ("walk-pure", "walk-sigma"):
        describe_walk(name, seeds)
    else:
        sys.exit(f"no description for {name}")


if __name__ == "__main__":
    main()
