"""CLI surface: outputs, exit codes, JSON records."""

import csv
import io
import json
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from braidwalk.cli import main


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_mi_identity_and_golden_step():
    res = run("mi", "e")
    assert res.exit_code == 0
    assert res.output.strip() == "e | e | e ; e"
    res = run("mi", "s3.1^-1 s4.1")
    assert res.exit_code == 0
    assert res.output.strip() == "s4.3 s4.1 s4.3^-1 | s3.1^-1 | e ; e"


def test_mi_accepts_sigma_words():
    res = run("mi", "b1 b1")
    assert res.exit_code == 0
    assert res.output.strip() == "e | e | s2.1^-1 ; e"
    res = run("mi", "b1")
    assert res.exit_code == 0
    assert res.output.strip().endswith("; b1")


def test_mi_parse_error_is_exit_2():
    res = run("mi", "b1 wat")
    assert res.exit_code == 2
    assert "token 1" in res.output


def test_artin_golden():
    res = run("artin", "s3.1^-1 s4.1", "--i", "4")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == ("gamma(x4) = x4^-1 x2^-1 x1^-1 x2 x4 "
                        "x2^-1 x1 x2 x4")
    assert lines[1] == "A4 = x4^-1 x2^-1 x1^-1 x2"


def test_artin_rejects_non_pure():
    res = run("artin", "b1")
    assert res.exit_code == 1


def test_walk_csv():
    res = run("walk", "--n", "4", "--steps", "6", "--paths", "2",
              "--seed", "3", "--checkpoints", "3,6")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0][:4] == ["path_id", "step", "mi_len", "lcp_final"]
    assert len(rows) == 5


def test_walk_config_file(tmp_path):
    cfg = {"n": 4, "steps": 5, "paths": 1, "seed": 2, "checkpoints": [5],
           "mode": "theorem2"}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    res = run("walk", "--config", str(p), "--format", "json")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["config"]["steps"] == 5
    assert obj["thm2_ok"] is True


def test_walk_config_length_guard_exits_3(tmp_path):
    cfg = {"n": 4, "steps": 30, "paths": 3, "seed": 11, "mode": "theorem2",
           "length_guard": 5}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    res = run("walk", "--config", str(p), "--format", "json")
    assert res.exit_code == 3


def test_walk_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n": 4, "steps": 5, "lenght_guard": 5}))
    res = run("walk", "--config", str(p))
    assert res.exit_code == 2


def test_walk_config_reads_artin_index(tmp_path):
    cfg = {"n": 4, "steps": 4, "paths": 1, "seed": 2, "mode": "artin",
           "i": 3}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    flags = ["walk", "--n", "4", "--steps", "4", "--paths", "1", "--seed",
             "2", "--mode", "artin"]
    res = run("walk", "--config", str(p))
    assert res.exit_code == 0
    assert res.output == run(*flags, "--i", "3").output
    assert res.output != run(*flags, "--i", "4").output


def run_process(*args):
    """Run the CLI in a fresh interpreter, so stderr is the real one."""
    return subprocess.run([sys.executable, "-m", "braidwalk.cli", *args],
                          capture_output=True, text=True)


def assert_input_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_mi_out_of_range_sigma_is_exit_2():
    assert_input_error(run_process("mi", "b7", "--n", "4"))


def test_mi_out_of_range_pure_letters_are_exit_2():
    # j > n once read as a negative level; s5.4 once raised IndexError
    for word in ("s5.1", "s5.4"):
        proc = run_process("mi", word, "--n", "4")
        assert_input_error(proc)
        assert proc.stdout == ""


def test_walk_with_no_paths_is_exit_2():
    proc = run_process("walk", "--n", "4", "--paths", "0")
    assert_input_error(proc)
    assert proc.stdout == ""


def test_walk_with_one_strand_is_exit_2():
    assert_input_error(run_process("walk", "--n", "1"))


def test_walk_artin_index_out_of_range_is_exit_2():
    # i = 0 once read x_n's image and i = 9 once raised IndexError
    for index in ("0", "9"):
        proc = run_process("walk", "--n", "4", "--steps", "5", "--paths",
                           "2", "--mode", "artin", "--i", index)
        assert_input_error(proc)
        assert f"x-index {index} out of range" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("token", ["b1^2", "e"])
def test_walk_atom_that_is_not_one_letter_is_exit_2(tmp_path, token):
    # b1^2 was once sampled whole and combed as b1; e raised IndexError
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"atoms": [
        {"token": token, "weight": "1/2"}, {"token": "b2", "weight": "1/2"}]}))
    proc = run_process("walk", "--n", "3", "--steps", "4", "--paths", "1",
                       "--seed", "1", "--dist", str(dist))
    assert_input_error(proc)
    assert "one sigma- or s-letter" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("cfg", [
    {"steps": "5"},
    {"n": 4, "steps": 5, "paths": 2, "length_guard": "x"},
    {"checkpoints": 5},
    {"checkpoints": [1, "2"]},
    {"n": True},
    {"i": 2.0},
    {"mode": 3},
    {"distribution": 5},
])
def test_walk_config_value_of_wrong_type_is_exit_2(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    proc = run_process("walk", "--config", str(p))
    assert_input_error(proc)
    assert proc.stderr.startswith("invalid input: config ")
    assert proc.stdout == ""


def test_verification_failure_is_exit_1():
    # a lemma whose guaranteed search fails is a fault of the program:
    # exit 1 with a message, not a traceback
    script = (
        "import sys\n"
        "import braidwalk.boundary as blab\n"
        "from braidwalk.cli import main\n"
        "from braidwalk.words import VerificationError\n"
        "def fail(*args):\n"
        "    raise VerificationError('no large-wing candidate found')\n"
        "blab.find_large_wing = fail\n"
        "sys.argv = ['braidwalk', 'boundary', 'wing', 'x1', 'x2']\n"
        "main()\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "verification failed: no large-wing candidate found" in proc.stderr


def test_qwitness_rejects_k_below_2(tmp_path):
    assert_input_error(run_process(
        "boundary", "qwitness", "x1 x2 x1^-1", "x2", "--k", "1",
        "--measure", _measure_file(tmp_path)))


def test_qwitness_default_k(tmp_path):
    res = run("boundary", "qwitness", "x1 x2 x1^-1", "x2",
              "--measure", _measure_file(tmp_path))
    assert res.exit_code == 0
    assert json.loads(res.output)["inputs"]["k"] == 2


def test_boundary_cover():
    res = run("boundary", "cover", "x1 x2", "--k", "1")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["lemma"] == "ball-cover" and rec["verdict"] is True


def test_nonpositive_k_is_exit_2():
    for args in (("cover", "x1 x2", "--k", "0"),
                 ("wing", "x1", "x2", "--k", "0"),
                 ("wing", "x1", "x2", "--k", "-1")):
        proc = run_process("boundary", *args)
        assert_input_error(proc)
        assert "k must be >= 1" in proc.stderr


def test_boundary_wing():
    res = run("boundary", "wing", "x1", "x2", "--k", "2")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] is True


def _measure_file(tmp_path):
    measure = {"atoms": [
        {"head": "e", "period": "x1", "weight": "1/2"},
        {"head": "e", "period": "x2", "weight": "1/2"}]}
    p = tmp_path / "measure.json"
    p.write_text(json.dumps(measure))
    return str(p)


def test_boundary_contract(tmp_path):
    path = _measure_file(tmp_path)
    res = run("boundary", "contract", "x1 x2 x1^-1", "--measure", path,
              "--eps", "1/2")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["verdict"] is True
    assert rec["witness"]["epsilon"] == "1/2"


def test_contract_rejects_an_element_outside_the_measure_rank(tmp_path):
    proc = run_process("boundary", "contract", "x3", "--measure",
                       _measure_file(tmp_path), "--eps", "1/2")
    assert_input_error(proc)
    assert "letter 3 outside rank 2" in proc.stderr


def test_contract_rejects_a_period_not_cyclically_reduced(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"atoms": [
        {"head": "e", "period": "x1 x2 x1^-1", "weight": "1"}]}))
    proc = run_process("boundary", "contract", "x1", "--measure", str(p),
                       "--eps", "1/2")
    assert_input_error(proc)
    assert "period must be cyclically reduced" in proc.stderr


def test_boundary_qwitness(tmp_path):
    path = _measure_file(tmp_path)
    res = run("boundary", "qwitness", "x1 x2 x1^-1", "x2", "--k", "2",
              "--measure", path)
    assert res.exit_code == 0
    assert json.loads(res.output)["witness"] is not None


def test_boundary_convolution():
    res = run("boundary", "convolution", "b1^2", "--n", "2", "--smax", "5")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["witness"]["s"] == 2
    assert rec["witness"]["c_prime"] == "4"
    res = run("boundary", "convolution", "b1^9", "--n", "2", "--smax", "4")
    assert res.exit_code == 1  # not reachable within s_max steps
    assert json.loads(res.output)["verdict"] is False


def test_verify_paper_passes():
    res = run("verify-paper")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert res.output.count("PASS") >= 17


# ---------------------------------------------------------------------------
# fuzzing the token grammar: every input ends in an exit code, never a crash
# ---------------------------------------------------------------------------

_exponent = st.one_of(st.just(""), st.integers(-3, 3).map(lambda e: f"^{e}"))


def _token(base, index, ordered=False):
    """A token with indices drawn from `index`; an ordered s-token puts the
    larger index first, as s{j}.{i} with j > i needs."""
    if base == "s":
        def text(t):
            j, i = sorted(t[:2], reverse=True) if ordered else t[:2]
            return f"s{j}.{i}{t[2]}"
        return st.tuples(index, index, _exponent).map(text)
    return st.tuples(index, _exponent).map(lambda t: f"{base}{t[0]}{t[1]}")


def _words(bases):
    """Words in one alphabet with small indices, most of them valid."""
    return st.sampled_from(bases).flatmap(lambda b: st.lists(
        _token(b, st.integers(1, 4), ordered=True), max_size=20)
    ).map(" ".join)


_junk = st.sampled_from(["e", "x", "b", "s3", "s3.", "y1^", "z2", "b1^x"])
_any_token = st.one_of(*(_token(b, st.integers(0, 12)) for b in "bsxy"),
                       _junk)
_mixed_word = st.lists(_any_token, max_size=8).map(" ".join)


def assert_clean_exit(res):
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@given(st.one_of(_words("bs"), _mixed_word),
       st.one_of(st.just(4), st.integers(1, 5)))
@settings(max_examples=150, deadline=None)
def test_fuzz_mi(word, n):
    assert_clean_exit(run("mi", word, "--n", str(n)))


@given(st.one_of(_words("xy"), _mixed_word),
       st.one_of(st.integers(1, 4), st.integers(-2, 20)))
@settings(max_examples=150, deadline=None)
def test_fuzz_boundary_cover(word, k):
    assert_clean_exit(run("boundary", "cover", word, "--k", str(k)))
