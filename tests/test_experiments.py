"""Experiment harness: record schema, reproducibility, emission formats."""

import csv
import io
import json

import pytest

from braidwalk.combing import MIStepper, mi_braid
from braidwalk.experiments import (_flat_len, _form_lcp, artin_convergence_run,
                                   emit, selective_run, stabilization_run,
                                   theorem2_run)
from braidwalk.walks import WalkConfig, uniform_s, uniform_sigma
from brute import flat_tokens

CFG = WalkConfig(4, 12, 4, 3, uniform_s(4), (4, 8, 12))


def _tok_lcp(a, b):
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def test_form_lcp_matches_token_serialization():
    forms = []
    stepper = MIStepper(4)
    forms.append(stepper.form())
    for l in (1, -2, 3, 3, 1, -1, 2):
        stepper.step(l)
        forms.append(stepper.form())
    for a in forms:
        for b in forms:
            assert _form_lcp(a, b) == _tok_lcp(flat_tokens(a), flat_tokens(b))
            assert _flat_len(a) == len(flat_tokens(a))


def test_stabilization_schema_and_determinism():
    rep = stabilization_run(CFG)
    assert rep.header()[:4] == ["path_id", "step", "mi_len", "lcp_final"]
    assert {r["step"] for r in rep.records} == {4, 8, 12}
    # the final checkpoint agrees with itself completely
    for r in rep.records:
        if r["step"] == 12:
            assert r["lcp_final"] == r["mi_len"]
    rep2 = stabilization_run(CFG)
    assert rep.records == rep2.records


def test_medians_present():
    rep = stabilization_run(CFG)
    assert set(rep.medians) == {4, 8, 12}
    assert all("median_mi_len" in m for m in rep.medians.values())


def test_theorem2_records_and_inequality():
    rep = theorem2_run(CFG)
    for r in rep.records:
        assert r["x_gromov"] is not None
    assert rep.thm2_ok


def test_selective_run_tracks_deltas():
    rep = selective_run(CFG)
    for r in rep.records:
        assert r["sel_delta"] in (1, -1)
        assert r["sel_gromov"] is not None


def test_artin_run_tracks_a_words():
    rep = artin_convergence_run(WalkConfig(4, 8, 3, 3, uniform_s(4), (4, 8)),
                                4, occurrence=(1, 2))
    for r in rep.records:
        assert r["a_lcp"] is not None
        assert "occ_ratio" in r


def test_pure_distribution_required():
    bad = WalkConfig(4, 6, 2, 0, uniform_sigma(4))
    for runner in (theorem2_run, selective_run):
        with pytest.raises(ValueError):
            runner(bad)
    with pytest.raises(ValueError):
        artin_convergence_run(bad, 4)


def test_sigma_walks_allowed_for_stabilization():
    rep = stabilization_run(WalkConfig(4, 8, 2, 1, uniform_sigma(4), (4, 8)))
    # coset words show up in mi_len via the serialization
    assert all(r["mi_len"] >= 3 for r in rep.records)


def test_guard_failures_recorded_not_fatal():
    tight = WalkConfig(4, 12, 4, 3, uniform_s(4), (4, 8, 12),
                       length_guard=8)
    rep = stabilization_run(tight)
    assert rep.failures
    assert all(r["path_id"] not in rep.failures for r in rep.records)


def test_emit_csv_and_json():
    rep = theorem2_run(CFG)
    buf = io.StringIO()
    emit(rep, "csv", buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == rep.header()
    assert len(rows) == 1 + len(rep.records)
    # unavailable fields render as empty cells
    a_lcp_col = rows[0].index("a_lcp")
    assert all(row[a_lcp_col] == "" for row in rows[1:])

    jbuf = io.StringIO()
    emit(rep, "json", jbuf)
    obj = json.loads(jbuf.getvalue())
    assert obj["config"]["seed"] == CFG.seed
    assert len(obj["records"]) == len(rep.records)
    assert obj["thm2_ok"] is True

    with pytest.raises(ValueError):
        emit(rep, "yaml", io.StringIO())


def test_emit_to_path(tmp_path):
    rep = stabilization_run(CFG)
    target = tmp_path / "report.csv"
    emit(rep, "csv", str(target))
    assert target.read_text().startswith("path_id,step,mi_len")
    with pytest.raises(OSError):
        emit(rep, "csv", str(tmp_path / "missing" / "report.csv"))


def test_mi_len_matches_serialization_against_mi_braid():
    rep = stabilization_run(WalkConfig(4, 6, 2, 9, uniform_sigma(4), (6,)))
    # cross-check one record against a directly combed word
    from braidwalk.walks import sample_paths
    from braidwalk.braids import parse_braid
    paths = sample_paths(WalkConfig(4, 6, 2, 9, uniform_sigma(4), (6,)))
    for p, r in zip(paths, rep.records):
        beta = parse_braid(" ".join(p.letters), 4)
        assert r["mi_len"] == len(flat_tokens(mi_braid(beta)))
