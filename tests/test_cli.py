import json
import re

import numpy as np
import pytest

from trigme import parse_state_file
from trigme.cli import run_command
from trigme.selftest import run_selftest


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


def test_classify_internal_breach_exits_two(capsys, fixtures_dir):
    code, _, err = run(capsys, "classify", str(fixtures_dir / "ghz4.json"),
                       "--tol", "2.0")
    assert code == 2
    assert "internal invariant breach" in err


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


def test_random_rejects_bad_dims(capsys):
    code, _, err = run(capsys, "random", "--dims", "2,1")
    assert code == 1
    assert ">= 2" in err


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

def test_quick_selftest_campaign_passes(capsys):
    import io
    buf = io.StringIO()
    assert run_selftest(buf, quick=True)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)
