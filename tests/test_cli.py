import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trigme
import trigme.cli
import trigme.selftest
from trigme import (DensityMatrix, InternalInvariantError, TrigmeError,
                    haar_random_pure, parse_state_file)
from trigme.cli import run_command
from trigme.selftest import CHECKS, run_selftest
from trigme.stateio import render_state_document


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze

def test_analyze_ghz4_human_output(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "ghz4.json"))
    assert code == 0
    assert "F_4 = 1.000000" in out
    assert "convention:  concurrence" in out
    assert "(GME)" in out


def test_analyze_ghz4_json_contains_unit_total(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "ghz4.json"),
                       "--json")
    assert code == 0
    assert '"f_total": 1.0' in out
    doc = json.loads(out)
    assert doc["is_gme"] is True
    assert doc["convention"] == "concurrence"


def test_analyze_appendix_c_with_relaxed_tolerance(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze",
                       str(fixtures_dir / "appendix_c.json"),
                       "--tol", "1e-3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_total"] == 0.0
    assert doc["factorization"]["factors"] == [[1], [2], [3, 4]]
    zero_vertices = {tuple(map(tuple, z["vertices"]))
                     for z in doc["zero_triangles"]}
    assert ((1,), (3,), (2, 4)) in zero_vertices
    assert ((2,), (4,), (1, 3)) in zero_vertices
    assert any("projected" in note for note in doc["notices"])


def test_analyze_report_is_byte_deterministic(capsys, fixtures_dir):
    _, first, _ = run(capsys, "analyze", str(fixtures_dir / "ghz4.json"),
                      "--json")
    _, second, _ = run(capsys, "analyze", str(fixtures_dir / "ghz4.json"),
                       "--json")
    assert first == second


def test_analyze_squared_convention_on_w4(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "w4.json"),
                       "--convention", "squared", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_total"] == pytest.approx((5 / 12) ** 0.25, abs=1e-9)


def test_analyze_rejects_full_rank_mixed_input(capsys, fixtures_dir):
    code, _, err = run(capsys, "analyze",
                       str(fixtures_dir / "appendix_e.json"))
    assert code == 1
    assert "mixed" in err


# ---------------------------------------------------------------- witness

def test_witness_appendix_e_reports_both_conventions(capsys, fixtures_dir):
    code, out, _ = run(capsys, "witness",
                       str(fixtures_dir / "appendix_e.json"))
    assert code == 0
    assert "witness (squared): 0.8034284189" in out
    assert "witness (concurrence): 0.8164965809" in out
    assert "purification rank: 2" in out
    assert "verdict: GME detected" in out


def test_witness_json_payload(capsys, fixtures_dir):
    code, out, _ = run(capsys, "witness",
                       str(fixtures_dir / "appendix_e.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["squared"] == pytest.approx(0.8034, abs=5e-3)
    assert doc["purification_rank"] == 2
    assert doc["pure_state_bypass"] is False


def test_witness_single_convention_flag(capsys, fixtures_dir):
    code, out, _ = run(capsys, "witness",
                       str(fixtures_dir / "appendix_e.json"),
                       "--convention", "squared", "--json")
    doc = json.loads(out)
    assert code == 0
    assert list(doc["witness"]) == ["squared"]


def test_witness_pure_document_uses_bypass(capsys, fixtures_dir):
    code, out, _ = run(capsys, "witness", str(fixtures_dir / "ghz4.json"))
    assert code == 0
    assert "pure-state bypass" in out
    assert "witness (concurrence): 1" in out


def test_witness_of_the_maximally_mixed_state_is_inconclusive(capsys,
                                                              tmp_path):
    path = tmp_path / "mixed8.json"
    path.write_text(render_state_document(
        DensityMatrix((2, 2, 2), np.eye(8) / 8)))
    code, out, err = run(capsys, "witness", str(path))
    assert code == 0, err
    assert "witness (concurrence): 1.22686565" in out
    assert "purification rank: 8" in out
    assert out.endswith("verdict: inconclusive: witness positive, "
                        "no GME certificate\n")


def test_witness_tol_reaches_the_rank_cut(capsys, fixtures_dir):
    # appendix_e_alt loads only at a loose tolerance, and its rounding
    # leaves eigenvalues 3.5e-7 and 1.6e-7: counted as rank they give
    # rank 4 and a spurious GME verdict, though party 1 factors out
    code, out, err = run(capsys, "witness",
                         str(fixtures_dir / "appendix_e_alt.json"),
                         "--tol", "1e-3", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["purification_rank"] == 2
    assert doc["witness"] == {"concurrence": 0.0, "squared": 0.0}
    assert doc["verdict"] == "no GME detected by witness"


@pytest.mark.parametrize("argv, dim, solves", [
    (["witness", "appendix_e.json"], 8, 1),
    (["witness", "ghz4.json"], 16, 0),
    (["convex-roof", "w4.json", "--restarts", "1"], 16, 0),
    (["analyze", "appendix_c.json", "--tol", "1e-3"], 16, 1),
])
def test_a_command_decomposes_the_full_state_at_most_once(
        capsys, monkeypatch, fixtures_dir, argv, dim, solves):
    # validation decomposes a density document, every measure reads that
    # spectrum, and a pure document is scored as loaded
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counting(mat, *args, _solve=getattr(np.linalg, name), **kw):
            shapes.append(np.shape(mat))
            return _solve(mat, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counting)
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a
            for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert shapes.count((dim, dim)) == solves


# ------------------------------------------------------------ convex-roof

def test_convex_roof_on_appendix_e(capsys, fixtures_dir):
    code, out, _ = run(capsys, "convex-roof",
                       str(fixtures_dir / "appendix_e.json"),
                       "--restarts", "2", "--seed", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["upper_bound"] <= doc["spectral_value"] + 1e-9
    assert doc["convention"] == "concurrence"
    assert doc["seed"] == 1


def test_convex_roof_tol_loads_a_loosely_rounded_state(capsys, fixtures_dir):
    # at the default 1e-9 the rounded fixture fails the trace check
    path = str(fixtures_dir / "appendix_e_alt.json")
    code, out, err = run(capsys, "convex-roof", path, "--json")
    assert code == 1
    assert "trace (1.00000025+0j) deviates from 1 by more than 1e-09" in err
    code, out, err = run(capsys, "convex-roof", path, "--tol", "1e-3",
                         "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert set(doc) == {"tool_version", "input_digest", "convention",
                        "upper_bound", "spectral_value", "ensemble_weights",
                        "restarts", "seed"}
    assert doc["upper_bound"] == 0.0
    assert len(doc["ensemble_weights"]) == 2


# --------------------------------------------------------------- classify

def test_classify_appendix_c(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classify",
                       str(fixtures_dir / "appendix_c.json"),
                       "--tol", "1e-3")
    assert code == 0
    assert "factors: {1},{2},{3,4}" in out
    assert "not GME" in out


def test_classify_ghz4_is_gme(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classify", str(fixtures_dir / "ghz4.json"))
    assert code == 0
    assert "factors: {1,2,3,4}" in out
    assert "not GME" not in out


def test_classify_internal_breach_exits_two(capsys, monkeypatch,
                                            fixtures_dir):
    def finest_factorization(*args, **kwargs):
        raise InternalInvariantError("inconsistent factorization")

    monkeypatch.setattr(trigme.cli, "finest_factorization",
                        finest_factorization)
    code, _, err = run(capsys, "classify", str(fixtures_dir / "ghz4.json"))
    assert code == 2
    assert "internal invariant breach" in err


@pytest.mark.parametrize("command, fixture, defect", [
    ("analyze", "ghz4.json", "2.000000000000001"),
    ("classify", "w4.json", "1.4999999999999998"),
])
def test_too_loose_product_cut_threshold_exits_one(capsys, fixtures_dir,
                                                   command, fixture,
                                                   defect):
    # every cut falls below a threshold of 5, so the factorization splits
    # into singletons whose marginals are far from pure: the user's
    # threshold is at fault, not an invariant
    code, out, err = run(capsys, command, str(fixtures_dir / fixture),
                         "--tol", "5")
    assert code == 1
    assert out == ""
    assert err == (
        f"trigme: error: inconsistent factorization: product defect "
        f"{defect} exceeds 0.01 for factors ((1,), (2,), (3,), (4,)); "
        f"the cut threshold 5.0 is likely too loose for this state\n")


@pytest.fixture(scope="module")
def b65(tmp_path_factory):
    """A (6,6)|(6,6,6) Haar product, D = 7776: at ``--tol 5`` it splits
    into five singletons, whose marginals are far from pure."""
    path = tmp_path_factory.mktemp("b65") / "b65.json"
    trigme.write_state_file(trigme.tensor_product([
        haar_random_pure([6, 6], 1), haar_random_pure([6, 6, 6], 2)]), path)
    return path


def test_large_biseparable_state_keeps_its_factors(capsys, b65):
    code, out, _ = run(capsys, "classify", str(b65))
    assert code == 0
    assert out == "factors: {1,2},{3,4,5}\nnot GME\n"


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_too_loose_threshold_on_a_large_biseparable_state_exits_one(
        capsys, b65, command):
    # all five singletons pass as product cuts at 5, though parties 1 and
    # 2 are entangled; each singleton marginal is far from pure
    psi = parse_state_file(b65)
    table = trigme.all_cut_concurrences(psi, 2).entries
    defect = math.fsum(table[trigme.Cut.of((p,), 5)] ** 2
                       for p in range(1, 6)) / 2
    code, out, err = run(capsys, command, str(b65), "--tol", "5")
    assert code == 1
    assert out == ""
    match = re.fullmatch(
        r"trigme: error: inconsistent factorization: product defect "
        r"(\S+) exceeds 0\.01 for factors \(\(1,\), \(2,\), \(3,\), "
        r"\(4,\), \(5,\)\); the cut threshold 5\.0 is likely too loose "
        r"for this state\n", err)
    assert match
    assert float(match[1]) == pytest.approx(defect, rel=1e-12)
    assert defect > 3.0


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_eleven_parties_are_refused_before_any_table(capsys, monkeypatch,
                                                     tmp_path, command):
    def f_total(*args, **kwargs):
        raise AssertionError("f_total ran before the party cap")

    monkeypatch.setattr(trigme.cli, "f_total", f_total)
    path = tmp_path / "n11.json"
    path.write_text(render_state_document(haar_random_pure([2] * 11, 7)))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert "finest_factorization is capped at 10 parties" in err


# ----------------------------------------------------------------- random

def test_random_writes_parseable_deterministic_document(capsys, tmp_path):
    out_file = tmp_path / "state.json"
    code, _, _ = run(capsys, "random", "--dims", "2,3", "--seed", "5",
                     "--out", str(out_file))
    assert code == 0
    psi = parse_state_file(out_file)
    assert psi.dims == (2, 3)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    code, out, _ = run(capsys, "random", "--dims", "2,3", "--seed", "5")
    assert code == 0
    assert out == out_file.read_text()


def test_random_seed_changes_output(capsys):
    _, a, _ = run(capsys, "random", "--dims", "2,2", "--seed", "1")
    _, b, _ = run(capsys, "random", "--dims", "2,2", "--seed", "2")
    assert a != b


def test_gme_seed_environment_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("GME_SEED", "17")
    _, from_env, _ = run(capsys, "random", "--dims", "2,2")
    monkeypatch.delenv("GME_SEED")
    _, explicit, _ = run(capsys, "random", "--dims", "2,2", "--seed", "17")
    assert from_env == explicit
    # explicit --seed wins over the environment
    monkeypatch.setenv("GME_SEED", "3")
    _, overridden, _ = run(capsys, "random", "--dims", "2,2", "--seed", "17")
    assert overridden == explicit


def test_analyze_refuses_a_negative_gme_seed(capsys, monkeypatch,
                                             fixtures_dir):
    monkeypatch.setenv("GME_SEED", "-5")
    code, out, err = run(capsys, "analyze", str(fixtures_dir / "ghz4.json"))
    assert code == 1
    assert out == ""
    assert "seed must be >= 0, got -5" in err


def test_random_rejects_bad_dims(capsys):
    code, _, err = run(capsys, "random", "--dims", "2,1")
    assert code == 1
    assert ">= 2" in err


@pytest.mark.parametrize("argv, message", [
    (["random", "--dims", "4294967296,4294967296"],
     "product of dims 18446744073709551616 exceeds"),
    (["check-inequalities", "--dims", "65536,65536,65536,65536",
      "--trials", "1"],
     "product of dims 18446744073709551616 exceeds"),
    # addressable, but no machine has the memory
    (["random", "--dims", "100000,100000,100000"],
     r"allocate .*1000000000000000"),
])
def test_impossible_dims_exit_one_naming_the_size(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.search(message, err), err
    assert "Traceback" not in err


# ------------------------------------------------------ check-inequalities

def test_check_inequalities_reports_all_hold(capsys):
    code, out, _ = run(capsys, "check-inequalities", "--dims", "2,2,2",
                       "--trials", "25", "--seed", "3")
    assert code == 0
    assert "all inequalities hold" in out
    assert "min slack" in out


def test_check_inequalities_deterministic_given_seed(capsys):
    _, a, _ = run(capsys, "check-inequalities", "--dims", "2,2,2",
                  "--trials", "10", "--seed", "9")
    _, b, _ = run(capsys, "check-inequalities", "--dims", "2,2,2",
                  "--trials", "10", "--seed", "9")
    assert a == b


# ------------------------------------------------------- errors and usage

def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.json")
    assert code == 1
    assert "no_such_file.json" in err


def test_unknown_flag_prints_usage_and_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "x.json", "--frobnicate")
    assert code == 1
    assert "usage:" in err


def test_unknown_command_exits_one(capsys):
    code, _, err = run(capsys, "transmogrify")
    assert code == 1
    assert "usage:" in err


def test_the_shared_parser_carries_no_state_between_calls(capsys, monkeypatch,
                                                          fixtures_dir):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = trigme.cli.build_parser
    monkeypatch.setattr(trigme.cli, "build_parser", counting_build_parser)
    trigme.cli._shared_parser.cache_clear()
    ghz4 = str(fixtures_dir / "ghz4.json")
    try:
        code, out, err = run(capsys, "analyze", ghz4, "--frobnicate")
        assert (code, out) == (1, "")
        assert err.startswith("usage: trigme")
        code, out, _ = run(capsys, "analyze", ghz4, "--json")
        assert code == 0 and json.loads(out)["f_total"] == 1.0
        code, out, _ = run(capsys, "analyze", ghz4)
        assert code == 0 and out.startswith("input:")
        code, out, _ = run(capsys, "--version")
        assert (code, out) == (0, f"trigme {trigme.__version__}\n")
    finally:
        trigme.cli._shared_parser.cache_clear()
    assert len(built) == 1


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is only the test reference of the roof's Nelder-Mead
    src = str(Path(trigme.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trigme.cli; "
         "print(trigme.cli.__file__); print('scipy' in sys.modules); "
         "from trigme import ConvexRoofConfig, convex_roof_upper_bound, "
         "parse_state_file; from trigme.stateio import fixture_path; "
         "rho = parse_state_file(fixture_path('appendix_e.json')); "
         "convex_roof_upper_bound(rho, config=ConvexRoofConfig(restarts=1)); "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(Path(src) / "trigme" / "cli.py"),
                                        "False", "False"]


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "analyze" in out and "selftest" in out


def test_malformed_json_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "invalid JSON" in err


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_oversized_integer_exits_one_naming_the_field(capsys, tmp_path,
                                                      kind):
    # 10**400 has 401 digits, far beyond the largest float
    zero = [0, 0]
    if kind == "pure":
        data, field = [[10 ** 400, 0]] + [zero] * 7, "data[0]"
    else:
        data = [[zero] * 8 for _ in range(8)]
        data[0][0], field = [10 ** 400, 0], "data[0][0]"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "kind": kind,
                                "data": data}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert f"{path}.{field}: an integer of 1329 bits is too large" in err
    assert "Traceback" not in err


def test_overflowing_amplitude_reports_its_true_norm(capsys, tmp_path):
    # 1e300 is a finite float, but its square overflows
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "kind": "pure",
                                "data": [[1e300, 0]] + [[0, 0]] * 7}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails
        code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert "state norm 1e+300 deviates from 1 by more than 1e-09" in err


def test_deeply_nested_document_exits_one(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2], "kind": "pure", "data": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert f"{path}: JSON nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, where, reason", [
    (["random", "--dims", "2,2", "--out", "{tmp}/missing/x.json"],
     "{tmp}/missing/x.json", "No such file or directory"),
    (["random", "--dims", "2,2", "--out", "{tmp}"], "{tmp}",
     "Is a directory"),
    (["analyze", "{tmp}/utf16.json"], "{tmp}/utf16.json", "not UTF-8"),
    (["classify", "{tmp}/utf16.json"], "{tmp}/utf16.json", "not UTF-8"),
    (["witness", "{tmp}/utf16.json"], "{tmp}/utf16.json", "not UTF-8"),
    (["convex-roof", "{tmp}/utf16.json"], "{tmp}/utf16.json", "not UTF-8"),
])
def test_file_boundary_errors_exit_one_naming_the_path(capsys, tmp_path,
                                                       argv, where, reason):
    # a UTF-16 byte-order mark (FF FE) is not valid UTF-8
    (tmp_path / "utf16.json").write_bytes(
        json.dumps({"dims": [2, 2], "kind": "pure"}).encode("utf-16"))
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith(f"trigme: error: {where.format(tmp=tmp_path)}: "
                          f"{reason}"), err
    assert "Traceback" not in err


@pytest.fixture
def piped_ghz4(fixtures_dir):
    """``/dev/fd/<r>`` of a pipe holding ghz4's bytes, writer closed."""
    r, w = os.pipe()
    os.write(w, (fixtures_dir / "ghz4.json").read_bytes())
    os.close(w)
    yield f"/dev/fd/{r}"
    os.close(r)


@pytest.mark.parametrize("argv", [
    ["analyze"], ["analyze", "--json"], ["witness", "--json"],
    ["convex-roof", "--json"]])
def test_a_piped_document_gets_no_digest_of_nothing(capsys, piped_ghz4,
                                                    argv):
    # parsing drains the pipe, so a second read for the digest would
    # hash zero bytes (e3b0c442...)
    code, out, err = run(capsys, argv[0], piped_ghz4, *argv[1:])
    assert code == 1
    assert "e3b0c442" not in out
    assert err.startswith(f"trigme: error: {piped_ghz4}: not a regular "
                          "file"), err
    assert "Traceback" not in err


def test_a_piped_roof_is_refused_before_its_search(capsys, monkeypatch,
                                                   piped_ghz4):
    monkeypatch.setattr(trigme.cli, "convex_roof_upper_bound",
                        lambda *args, **kwargs: pytest.fail("searched"))
    code, _, err = run(capsys, "convex-roof", piped_ghz4, "--json")
    assert code == 1
    assert "not a regular file" in err


def test_witness_text_reads_a_piped_document(capsys, piped_ghz4):
    code, out, _ = run(capsys, "witness", piped_ghz4)
    assert code == 0
    assert "witness (concurrence): 1" in out


def test_an_unreadable_digest_is_a_refusal(tmp_path):
    with pytest.raises(TrigmeError, match="gone.json: No such file"):
        trigme.cli._digest(tmp_path / "gone.json")


# ------------------------------------------------------ argument checks

def test_tol_reaches_rank_one_projection(capsys, tmp_path):
    # rank-1 GHZ_3 projector with a 1e-6 Hermiticity defect: it loads at
    # --tol 1e-3, so projecting it must use the same tolerance
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    rho = np.outer(ghz, ghz)
    rho[0, 7] += 1e-6
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps({
        "dims": [2, 2, 2], "kind": "mixed",
        "data": [[[float(x), 0.0] for x in row] for row in rho]}))
    code, out, err = run(capsys, "analyze", str(path), "--tol", "1e-3",
                         "--json")
    assert code == 0, err
    assert json.loads(out)["f_total"] == pytest.approx(1.0, abs=1e-5)
    code, out, err = run(capsys, "classify", str(path), "--tol", "1e-3")
    assert code == 0, err
    assert "factors: {1,2,3}" in out


def ghz3_with_second_eigenvalue(tmp_path, second: float) -> Path:
    """A GHZ_3 density document with weight ``second`` moved to |001>."""
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    rho = (1.0 - second) * np.outer(ghz, ghz)
    rho[1, 1] += second
    path = tmp_path / f"ghz3-{second!r}.json"
    path.write_text(json.dumps({
        "dims": [2, 2, 2], "kind": "mixed",
        "data": [[[float(x), 0.0] for x in row] for row in rho]}))
    return path


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-9, 1e-6, 1e-3])
def test_one_rank_answer_per_document(capsys, tmp_path, tol, factor):
    # analyze and classify take a document as pure exactly when the
    # witness scores it at rank 1, on both sides of max(T, 1e-9)
    cut = max(tol, 1e-9)
    path = ghz3_with_second_eigenvalue(tmp_path, factor * cut)
    code, out, err = run(capsys, "witness", str(path), "--tol", repr(tol),
                         "--json")
    assert code == 0, err
    witnessed = json.loads(out)
    rank_one = witnessed["pure_state_bypass"]
    assert rank_one is (factor < 1)
    second = f"second eigenvalue {factor * cut:.3e}"
    expected = (0, "") if rank_one else (1, (
        f"trigme: error: input is mixed with {second} > tolerance {cut:g}; "
        f"use the witness or convex-roof commands\n"))
    code, out, err = run(capsys, "analyze", str(path), "--tol", repr(tol),
                         "--json")
    assert (code, err) == expected
    if rank_one:
        doc = json.loads(out)
        assert doc["f_total"] == witnessed["witness"]["concurrence"]
        assert doc["notices"] == [f"rank-1 mixed input projected to its "
                                  f"dominant eigenvector ({second})"]
    code, _, err = run(capsys, "classify", str(path), "--tol", repr(tol))
    assert (code, err) == expected


@pytest.mark.parametrize("argv, message", [
    (["convex-roof", "appendix_e.json", "--restarts", "-1"],
     "restarts must be >= 0, got -1"),
    (["convex-roof", "appendix_e.json", "--ensemble-size", "0"],
     r"ensemble sizes must be >= 1, got \(0,\)"),
    (["convex-roof", "appendix_e.json", "--seed", "-2"],
     "seed must be >= 0, got -2"),
    (["check-inequalities", "--dims", "2,2,2", "--trials", "0"],
     "--trials must be >= 1, got 0"),
    (["random", "--dims", "2,2", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["analyze", "ghz4.json", "--tol", "nan"],
     "--tol must be a positive finite number, got nan"),
    (["classify", "ghz4.json", "--tol", "0"],
     "--tol must be a positive finite number, got 0"),
    (["witness", "appendix_e.json", "--tol", "inf"],
     "--tol must be a positive finite number, got inf"),
    (["convex-roof", "appendix_e.json", "--tol", "nan"],
     "--tol must be a positive finite number, got nan"),
])
def test_out_of_range_arguments_exit_one_naming_the_value(
        capsys, fixtures_dir, argv, message):
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.search(message, err), err


# ----------------------------------------------------------------- selftest

def test_selftest_prints_one_pass_line_per_check(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"PASS {name}" for name, _ in CHECKS]


def test_selftest_reports_a_refusal_as_a_failed_check(monkeypatch):
    def refused():
        raise InternalInvariantError("inconsistent factorization")

    monkeypatch.setattr(trigme.selftest, "CHECKS",
                        [("refused", refused), ("next", lambda: "ran")])
    out = io.StringIO()
    assert run_selftest(out) is False
    assert out.getvalue().splitlines() == [
        "FAIL refused: inconsistent factorization", "PASS next: ran"]
