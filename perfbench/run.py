"""braidwalk benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload walk-pure --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; braidwalk is imported from `src`.  The
set-up is measured in SETUP_PROBES fresh processes that stop after set-up
and in the measuring process itself, and set-up time is their median.  The
measuring process runs whole rounds of the workload's operations until
`--seconds` have passed, then checks the outputs of the first round and
that every later round gave the same outputs.  The last line of standard
output holds `correct`, `attempted`, `failed` and the metrics: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  The full record, with the digest of the outputs, is also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("walk-pure", "walk-sigma", "oracle", "lemmas")
SETUP_PROBES = 6
TIME_LIMIT_S = 170

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("walks.sample_s", "s"), ("combing.step_s", "s"), ("combing.form_s", "s"),
    ("combing.form_letters_max", "count"), ("words.gromov_s", "s"),
    ("experiments.emit_s", "s"), ("combing.mi_pure_s", "s"),
    ("combing.flatten_s", "s"), ("braids.to_braid_s", "s"),
    ("artin.braid_equal_s", "s"), ("artin.braid_equal_reject_s", "s"),
    ("combing.mi_braid_s", "s"), ("artin.sigma_letters", "count"),
    ("boundary.ball_cover_s", "s"), ("boundary.cylinders", "count"),
    ("boundary.convolution_s", "s"), ("boundary.witness_s", "s"),
    ("cli.verify_paper_s", "s"),
]


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args,
         "--t0", repr(t0)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join("src", "braidwalk", "__init__.py")):
        print("run from the root of a braidwalk checkout: src/braidwalk "
              "is missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [run_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_worker(common, env, deadline)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups

    if args.trace:
        layers = res.get("layers", {})
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END}
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(
        out_dir, f"result-{args.workload}-{args.seed}-{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
