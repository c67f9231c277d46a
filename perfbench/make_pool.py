"""Rebuild perfbench/pool.json, the candidate inputs that walk-pure and
oracle draw from:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/make_pool.py [walk-pure] [oracle]

(the benchmark's processes run with PYTHONHASHSEED=0 too).  Without
arguments both lists are rebuilt.

The cost of one walk or one oracle word spans three orders of magnitude,
so a plain random draw of a round's inputs makes the round's time depend
on the seed far more than on the program.  Each candidate is therefore
timed here and stored with `s`, the median of REPEATS timings.  A seed
then draws one candidate from each of a round's strata of equal count,
near the stratum's median time (workloads.stratified), so every seed gets
a round of the same make-up of costs.

walk-pure candidates are the single-path walks of WalkConfig seed `key`
whose normal forms stay within SCREEN_GUARD letters at every step; the
others are left out.  oracle candidates are the words `oracle_word(key)`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import braidwalk as bw  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import (N, POOL_FILE, PURE_CHECKPOINTS, PURE_STEPS,  # noqa: E402
                       oracle_op, oracle_word, pure_config, pure_op, warm_up)

PURE_CANDIDATES = 360
ORACLE_CANDIDATES = 240
SCREEN_GUARD = 10 ** 5
REPEATS = 5


def timed(cases: list, run) -> list[float]:
    """The median of REPEATS timings of each case, in CPU time, which
    leaves out the time the host gives to other tenants.  The cases are
    timed in REPEATS passes over the whole list, so that, as in a
    benchmark round, each timing follows a different neighbour."""
    times: list[list[float]] = [[] for _ in cases]
    for _ in range(REPEATS):
        for k, case in enumerate(cases):
            t = time.process_time()
            run(case)
            times[k].append(time.process_time() - t)
    return [round(statistics.median(ts), 5) for ts in times]


def screen_pure() -> list[dict]:
    keys = []
    for key in range(1, PURE_CANDIDATES + 1):
        cfg = bw.WalkConfig(N, PURE_STEPS, 1, key, bw.uniform_s(N),
                            PURE_CHECKPOINTS, SCREEN_GUARD)
        if not bw.theorem2_run(cfg).failures:
            keys.append(key)
    tr = NullTracer()
    secs = timed([pure_config(key) for key in keys],
                 lambda cfg: pure_op(tr, cfg))
    return [{"key": k, "s": s} for k, s in zip(keys, secs)]


def screen_oracle() -> list[dict]:
    keys = list(range(ORACLE_CANDIDATES))
    tr = NullTracer()
    cases = []
    for key in keys:
        letters, pick = oracle_word(key)
        cases.append((letters, pick, bw.PureWord(N, tuple(
            ((j, i), s) for j, i, s in letters))))
    secs = timed(cases, lambda op: oracle_op(tr, op))
    return [{"key": k, "s": s} for k, s in zip(keys, secs)]


SCREENS = {"walk-pure": screen_pure, "oracle": screen_oracle}


def main() -> None:
    names = sys.argv[1:] or list(SCREENS)
    pool = {}
    if os.path.exists(POOL_FILE):
        with open(POOL_FILE) as fh:
            pool = json.load(fh)
    warm_up(NullTracer())
    for name in names:
        pool[name] = SCREENS[name]()
    with open(POOL_FILE, "w") as fh:
        json.dump(pool, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
