"""Random-walk experiments: normal-form stabilization, top-part convergence,
selective convergence, and Artin-word convergence.

Each record row compares a checkpoint form against the *final* form of the
same path (never across paths).  Flattened serialization for lcp purposes
includes part-separator tokens, so part-boundary shifts count as divergence.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from typing import Optional

from .artin import a_word, occurrence_ratio
from .braids import PureLetter, PureWord, parse_braid_tokens
from .combing import LengthGuardError, MIForm, MIStepper, central_element
from .walks import Path, WalkConfig, distribution_to_json, sample_paths
from .words import ReducedWord, _common_prefix, _word, concat, gromov, invert

SCHEMA_FIXED = ["path_id", "step", "mi_len", "lcp_final"]
SCHEMA_TAIL = ["x_gromov", "sel_gromov", "a_lcp"]


def _token_letter(token: str) -> "int | PureLetter":
    kind, a, b, sg = parse_braid_tokens(token)[0]
    return a * sg if kind == "b" else ((a, b), sg)


def _central_y(n: int) -> ReducedWord:
    """The central element as a word in the top free factor (y-alphabet):
    y_1^-1 ... y_{n-1}^-1, reduced since its letters are distinct."""
    u = central_element(n)
    return _word(tuple(i * sg for (_, i), sg in u.letters), n - 1)


def _conj(x: ReducedWord, x_inv: ReducedWord, u: ReducedWord) -> ReducedWord:
    """x . u . x^-1, with x^-1 passed in so a caller inverts x only once."""
    return concat(concat(x, u), x_inv)


@dataclass
class StabilizationReport:
    config: WalkConfig
    records: list[dict]
    failures: list[int]  # path ids that hit the length guard
    medians: dict[int, dict[str, float]] = field(default_factory=dict)
    thm2_ok: bool = True  # Theorem-2 inequality at every checkpoint

    def header(self) -> list[str]:
        n = self.config.n
        parts = [f"part_len_{m}" for m in range(1, n)]
        return SCHEMA_FIXED + parts + SCHEMA_TAIL


def run_experiment(config: WalkConfig, *, track_x: bool = True,
                   selective: bool = False,
                   artin_index: Optional[int] = None,
                   occurrence: Optional[tuple[int, int]] = None
                   ) -> StabilizationReport:
    n = config.n
    checkpoints = list(config.checkpoints) or [config.steps]
    u_y = _central_y(n) if (track_x or selective) else None
    u_pm = {1: u_y, -1: invert(u_y)} if u_y is not None else None
    report = StabilizationReport(config, [], [])
    for path in sample_paths(config):
        try:
            rows = _run_path(path, config, checkpoints, u_pm, track_x,
                             selective, artin_index, occurrence, report)
        except LengthGuardError:
            report.failures.append(path.index)
            continue
        report.records.extend(rows)
    _aggregate(report, checkpoints)
    return report


def _run_path(path: Path, config: WalkConfig, checkpoints: list[int],
              u_pm: Optional[dict[int, ReducedWord]], track_x: bool,
              selective: bool, artin_index: Optional[int],
              occurrence: Optional[tuple[int, int]],
              report: StabilizationReport) -> list[dict]:
    n = config.n
    stepper = MIStepper(n, config.length_guard)
    snaps: dict[int, MIForm] = {}
    pure_prefixes: dict[int, PureWord] = {}
    pure_letters: list[PureLetter] = []
    for t, token in enumerate(path.letters, start=1):
        letter = _token_letter(token)
        stepper.step(letter)
        if artin_index is not None:
            if isinstance(letter, int):
                raise ValueError("artin convergence needs a pure-letter walk")
            pure_letters.append(letter)
        if t in checkpoints or t == config.steps:
            snaps[t] = stepper.form()
            if artin_index is not None:
                pure_prefixes[t] = PureWord(n, tuple(pure_letters))
    final = snaps[config.steps]
    x_final = final.parts[0]
    a_final = (invert(a_word(pure_prefixes[config.steps], artin_index))
               if artin_index is not None else None)
    ref = (_conj(x_final, invert(x_final), u_pm[1])
           if (selective and u_pm is not None) else None)

    rows = []
    for t in checkpoints:
        form = snaps[t]
        row: dict = {
            "path_id": path.index,
            "step": t,
            "mi_len": _flat_len(form),
            "lcp_final": _form_lcp(form, final),
        }
        for m in range(1, n):  # part_len_m = |V_m|
            row[f"part_len_{m}"] = len(form.parts[n - 1 - m])
        row["x_gromov"] = row["sel_gromov"] = row["a_lcp"] = None
        x_t = form.parts[0]
        if u_pm is not None:  # x_t . u_y^delta . x_t^-1 for delta = +-1
            x_inv = invert(x_t)
            conj = {d: _conj(x_t, x_inv, u) for d, u in u_pm.items()}
        if track_x:
            row["x_gromov"] = gromov(x_t, x_final)
            for c in conj.values():  # Theorem-2 proof inequality
                if 2 * gromov(x_t, c) < len(c) - len(u_pm[1]):
                    report.thm2_ok = False
        if selective:
            best = max((gromov(c, ref), d) for d, c in conj.items())
            row["sel_gromov"] = best[0]
            row["sel_delta"] = best[1]
        if artin_index is not None:
            a_t = invert(a_word(pure_prefixes[t], artin_index))
            row["a_lcp"] = gromov(a_t, a_final)
            if occurrence is not None:
                r = occurrence_ratio(pure_prefixes[t], artin_index,
                                     occurrence[0], occurrence[1])
                row["occ_ratio"] = None if r is None else str(r)
        rows.append(row)
    return rows


def _flat_len(form: MIForm) -> int:
    """Token count of the flat serialization: letters, separators, coset."""
    return (sum(len(p) for p in form.parts) + (form.n - 1)
            + len(form.coset.letters))


def _form_lcp(a: MIForm, b: MIForm) -> int:
    """lcp of the flat token serializations, computed without building them.

    Separator tokens never collide with letter tokens, so the lcp runs
    part-by-part and stops at the first part-length or letter mismatch.
    """
    k = 0
    for pa, pb in zip(a.parts, b.parts):
        common = _common_prefix(pa.letters, pb.letters)
        k += common
        if common < max(len(pa), len(pb)):
            return k  # letter mismatch or letter-vs-separator
        k += 1  # identical parts: the separator token matches too
    return k + _common_prefix(a.coset.letters, b.coset.letters)


def _aggregate(report: StabilizationReport, checkpoints: list[int]) -> None:
    for t in checkpoints:
        rows = [r for r in report.records if r["step"] == t]
        if not rows:
            continue
        agg: dict[str, float] = {"median_mi_len": statistics.median(
            r["mi_len"] for r in rows)}
        if rows[0]["x_gromov"] is not None:
            agg["median_x_gromov"] = statistics.median(
                float(r["x_gromov"]) for r in rows)
        report.medians[t] = agg


def stabilization_run(config: WalkConfig) -> StabilizationReport:
    return run_experiment(config, track_x=False)


def theorem2_run(config: WalkConfig) -> StabilizationReport:
    if not config.distribution.is_pure():
        raise ValueError("theorem2_run needs a pure-generator distribution")
    return run_experiment(config, track_x=True)


def selective_run(config: WalkConfig) -> StabilizationReport:
    if not config.distribution.is_pure():
        raise ValueError("selective_run needs a pure-generator distribution")
    return run_experiment(config, track_x=True, selective=True)


def artin_convergence_run(config: WalkConfig, i: int,
                          occurrence: Optional[tuple[int, int]] = None
                          ) -> StabilizationReport:
    if not config.distribution.is_pure():
        raise ValueError("artin run needs a pure-generator distribution")
    return run_experiment(config, track_x=False, artin_index=i,
                          occurrence=occurrence)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(report: StabilizationReport, fmt: str, destination) -> None:
    """Write CSV or JSON; `destination` is a path or open text file."""
    close = False
    if isinstance(destination, (str, bytes)):
        try:
            destination = open(destination, "w", newline="")
        except OSError as exc:
            raise OSError(f"cannot write report to {exc.filename}: {exc}")
        close = True
    try:
        if fmt == "csv":
            header = report.header()
            w = csv.writer(destination)
            w.writerow(header)
            for r in report.records:
                w.writerow(["" if r.get(k) is None else r.get(k)
                            for k in header])
        elif fmt == "json":
            json.dump({
                "config": {
                    "n": report.config.n,
                    "steps": report.config.steps,
                    "paths": report.config.paths,
                    "seed": report.config.seed,
                    "checkpoints": list(report.config.checkpoints),
                    "length_guard": report.config.length_guard,
                    "distribution": distribution_to_json(
                        report.config.distribution),
                },
                "records": report.records,
                "failures": report.failures,
                "medians": {str(k): v for k, v in report.medians.items()},
                "thm2_ok": report.thm2_ok,
            }, destination, indent=2, default=str)
            destination.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    finally:
        if close:
            destination.close()
