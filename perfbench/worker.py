"""One benchmark process: set up, run whole rounds for the given seconds,
check the outputs, and print one JSON line of raw measurements.

Started by run.py with the checkout root as working directory and `src`
on PYTHONPATH.  `--t0` is the CLOCK_MONOTONIC reading taken just before
this process was started, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import NullTracer, Tracer  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, digest, verify_paper,  # noqa: E402
                       warm_up)

FAILED = object()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tr = Tracer() if args.trace else NullTracer()
    tr.install()
    wl = WORKLOADS[args.workload](args.seed)
    warm_up(tr)
    verify_paper(tr)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tr.enabled:
        setup_secs, setup_counts = tr.snapshot()

    walls, cpus = [], []
    op_ms: list[list[float]] = [[] for _ in wl.ops]
    # each round runs the same operations in its own order, so that no
    # operation always follows the same neighbour
    order = list(range(len(wl.ops)))
    shuffle = random.Random(f"order-{args.seed}").shuffle
    first_outputs = None
    digests = set()
    failed = rounds = 0
    start = time.perf_counter()
    while True:
        outputs = [FAILED] * len(wl.ops)
        shuffle(order)
        c0, w0 = cpu_seconds(), time.perf_counter()
        for k in order:
            t = time.perf_counter()
            try:
                outputs[k] = wl.run_op(tr, wl.ops[k])
            except Exception as exc:  # a failed operation is counted
                print(f"operation failed: {exc!r}", file=sys.stderr)
                failed += 1
            op_ms[k].append((time.perf_counter() - t) * 1e3)
        w1, c1 = time.perf_counter(), cpu_seconds()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        rounds += 1
        if first_outputs is None:
            first_outputs = outputs
        digests.add(digest(o if o is not FAILED else "FAILED"
                           for o in outputs))
        if w1 - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # an operation's latency is the median of its repeats, one per round
    latency = [statistics.median(repeats) for repeats in op_ms]
    tr.uninstall()

    correct = len(digests) == 1
    if not correct:
        print("outputs differ between rounds", file=sys.stderr)
    try:
        wl.verify([(op, out) for op, out in zip(wl.ops, first_outputs)
                   if out is not FAILED])
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    result = {
        "correct": correct,
        "attempted": rounds * len(wl.ops),
        "failed": failed,
        "rounds": rounds,
        "digest": digests.pop() if len(digests) == 1 else None,
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_p50_ms": statistics.median(latency),
        "op_p90_ms": statistics.quantiles(latency, n=10,
                                          method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
        "op_ms": op_ms,
    }
    if tr.enabled:
        secs, counts = tr.snapshot()
        layers = {}
        for name in set(secs) | set(setup_secs):
            once = setup_secs.get(name, 0.0)
            layers[name + "_s"] = once + (secs.get(name, 0.0) - once) / rounds
        for name in set(counts) | set(setup_counts):
            once = setup_counts.get(name, 0)
            layers[name] = once + (counts.get(name, 0) - once) / rounds
        layers.update(tr.maxima)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
