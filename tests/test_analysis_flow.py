"""One cut table per result: ``analyze`` is one GME report plus one
factorization, and every report section is read off those two.  A state
keeps its cut values, so the two tables compute each cut once."""

import json
import tracemalloc

import numpy as np
import pytest

import trigme.classify
import trigme.cli
import trigme.concurrence
import trigme.triangles
from trigme import (Cut, EdgeConvention, PureState, TriangleEdges,
                    basis_state, check_polygamy, f_level, f_total,
                    finest_factorization, ghz_state, gme_value,
                    haar_random_pure, marginal_cuts, tensor_product, w_state,
                    write_state_file)
from trigme.cli import run_command
from trigme.concurrence import all_cut_concurrences
from trigme.reporting import AnalysisReport, canonical_json, emit_report
from trigme.selftest import appendix_c_state, random_biseparable
from oracles import analysis_dict


@pytest.fixture
def table_calls(monkeypatch):
    """Every cut table asked for through the triangle, classify or CLI
    layer."""
    calls = []

    def counted(psi, max_subset_size):
        calls.append(psi.dims)
        return all_cut_concurrences(psi, max_subset_size)

    for module in (trigme.triangles, trigme.classify, trigme.cli):
        monkeypatch.setattr(module, "all_cut_concurrences", counted)
    return calls


def _weakly_entangled():
    eps = 1.5e-6  # concurrence ~ 2*eps lands between tol and 10*tol
    amps = np.array([1.0, 0.0, 0.0, eps])
    amps = amps / np.linalg.norm(amps)
    return tensor_product([PureState((2, 2), amps),
                           basis_state((2,), (0,))])


def _document(name, tmp_path, fixtures_dir):
    if name != "haar-2^6":
        return fixtures_dir / name
    path = tmp_path / "haar.json"
    write_state_file(haar_random_pure([2] * 6, 606), path)
    return path


@pytest.mark.parametrize("name, extra", [
    ("ghz4.json", []), ("w4.json", []),
    ("appendix_c.json", ["--tol", "1e-3"]), ("haar-2^6", [])])
def test_analyze_builds_two_cut_tables(capsys, tmp_path, fixtures_dir,
                                       table_calls, name, extra):
    path = _document(name, tmp_path, fixtures_dir)
    assert run_command(["analyze", str(path), "--json"] + extra) == 0
    capsys.readouterr()
    # finest_factorization, then f_total, which reads the kept values
    assert len(table_calls) == 2


@pytest.mark.parametrize("name, extra", [
    ("ghz4.json", []), ("w4.json", []),
    ("appendix_c.json", ["--tol", "1e-3"]), ("haar-2^6", [])])
def test_analyze_computes_each_cut_once(capsys, tmp_path, fixtures_dir,
                                        monkeypatch, name, extra):
    path = _document(name, tmp_path, fixtures_dir)
    calls = []
    original = trigme.concurrence.concurrence_pure

    def counted(psi, cut):
        calls.append(cut)
        return original(psi, cut)

    monkeypatch.setattr(trigme.concurrence, "concurrence_pure", counted)
    assert run_command(["analyze", str(path), "--json"] + extra) == 0
    n = len(json.loads(capsys.readouterr().out)["dims"])
    assert calls == list(trigme.concurrence._cut_plan(n).cuts)


def test_analyze_json_builds_no_triangle_record(capsys, tmp_path,
                                                monkeypatch):
    path = tmp_path / "haar8.json"
    write_state_file(haar_random_pure([2] * 8, 808), path)
    calls = []
    checked = TriangleEdges.__post_init__

    def counted(edges):
        calls.append(edges.vertex_labels)
        checked(edges)

    monkeypatch.setattr(TriangleEdges, "__post_init__", counted)
    assert run_command(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["areas_above_one"]
    assert calls == []


@pytest.mark.parametrize("conv", list(EdgeConvention))
@pytest.mark.parametrize("psi", [
    haar_random_pure([2] * 8, 808), haar_random_pure([3, 2, 2], 8),
    ghz_state(4), appendix_c_state(),
    tensor_product([haar_random_pure([2] * 3, 4219),
                    haar_random_pure([2] * 5, 4220)]),
    tensor_product([haar_random_pure([2, 2], 4), haar_random_pure([2], 5),
                    haar_random_pure([2, 2, 2], 6)])],
    ids=["haar-2^8", "haar-3x2x2", "ghz4", "appendix_c", "bisep-3|5",
         "three-blocks"])
def test_json_rows_are_the_records_dict_written_by_json(psi, conv):
    report = AnalysisReport("digest", 1e-9, 0, f_total(psi, conv),
                            finest_factorization(psi, tol=1e-6),
                            ("a \"quoted\" notice",))
    text = emit_report(report, True)
    assert text == canonical_json(analysis_dict(report))
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=1) + "\n"


@pytest.mark.parametrize("name, extra", [
    ("ghz4.json", []), ("appendix_c.json", ["--tol", "1e-3"]),
    ("haar-2^6", [])])
def test_classify_builds_one_cut_table(capsys, tmp_path, fixtures_dir,
                                       table_calls, name, extra):
    path = _document(name, tmp_path, fixtures_dir)
    assert run_command(["classify", str(path)] + extra) == 0
    capsys.readouterr()
    assert len(table_calls) == 1


@pytest.mark.parametrize("psi", [
    ghz_state(4), w_state(5), haar_random_pure([2] * 6, 7),
    haar_random_pure([3, 2, 2], 8), _weakly_entangled()],
    ids=["ghz4", "w5", "haar-2^6", "haar-3x2x2", "weak"])
def test_gme_report_carries_its_cut_table(psi):
    entries = all_cut_concurrences(psi, psi.nparties // 2).entries
    # the same cuts with the same values, in the same order
    assert list(f_total(psi).cut_values.items()) == list(entries.items())


# ------------------------------------------------- kept cut values

def _measures(psi, conv) -> list[str]:
    """Every result read off a state's cut values, as ``repr`` text."""
    rep = f_total(psi, conv)
    out = [repr(rep.value), repr(rep.level_values), repr(rep.cut_values),
           repr(gme_value(psi, conv))]
    out += [repr(f_level(psi, level, conv))
            for level in range(1, psi.nparties - 2)]
    out += [repr(finest_factorization(psi, tol)) for tol in (1e-6, 1e-3)]
    return out + [repr(check_polygamy(psi))]


@pytest.mark.parametrize("conv", list(EdgeConvention))
@pytest.mark.parametrize("make", [
    *(lambda n=n: haar_random_pure([2] * n, 230 + n) for n in range(3, 9)),
    lambda: haar_random_pure([3, 2, 2], 239), lambda: ghz_state(5),
    lambda: w_state(6),
    lambda: tensor_product([haar_random_pure([2, 2], 240),
                            haar_random_pure([2] * 4, 241)])],
    ids=[f"haar-2^{n}" for n in range(3, 9)]
    + ["haar-3x2x2", "ghz5", "w6", "bisep-2|4"])
def test_kept_cut_values_change_no_result(make, conv):
    want = _measures(make(), conv)
    n = make().nparties
    for sizes in [(1, n // 2), (n // 2, 1)]:
        psi = make()
        for size in sizes:
            all_cut_concurrences(psi, size)
        assert _measures(psi, conv) == want


def test_editing_a_table_leaves_the_kept_values():
    psi = haar_random_pure([2] * 6, 236)
    want = dict(all_cut_concurrences(psi, 3).entries)
    for size in (1, 3):
        table = all_cut_concurrences(psi, size)
        for cut in table.entries:
            table.entries[cut] = -1.0
        table.entries.clear()
    assert all_cut_concurrences(psi, 3).entries == want
    assert all_cut_concurrences(psi, 2).entries == {
        cut: v for cut, v in want.items() if len(cut.parties) <= 2}


@pytest.mark.parametrize("psi", [
    ghz_state(4), haar_random_pure([2] * 5, 3), _weakly_entangled()],
    ids=["ghz4", "haar-2^5", "weak"])
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_factorization_carries_its_marginal_cuts(psi, tol):
    fact = finest_factorization(psi, tol)
    assert fact.marginal_cuts == tuple(marginal_cuts(psi, tol))


def test_weakly_entangled_marginal_cut_reaches_the_factorization():
    fact = finest_factorization(_weakly_entangled(), tol=1e-6)
    assert fact.marginal_cuts == (Cut.of((1,), 3), Cut.of((2,), 3))


# ------------------------------------------------- product-defect checks
# A factorization of two or more blocks is checked against the state
# ("reconstructed" in the test names) by its product defect, once; a GME
# state needs no check.

@pytest.fixture
def defects(monkeypatch):
    """The factor lists of every product-defect check made, each read
    from the cut table the factorization was split from."""
    calls = []
    original = trigme.classify._product_defect

    def counted(entries, blocks, n):
        assert len(entries) == len(trigme.concurrence._cut_plan(n).cuts)
        calls.append(tuple(blocks))
        return original(entries, blocks, n)

    monkeypatch.setattr(trigme.classify, "_product_defect", counted)
    return calls


@pytest.mark.parametrize("psi", [
    ghz_state(4), w_state(5), haar_random_pure([2] * 6, 7),
    haar_random_pure([3, 2, 2], 8)],
    ids=["ghz4", "w5", "haar-2^6", "haar-3x2x2"])
def test_gme_state_is_not_reconstructed(psi, defects):
    assert finest_factorization(psi).is_gme
    assert defects == []


@pytest.mark.parametrize("psi, tol", [
    (appendix_c_state(), 1e-3), (random_biseparable(5, 0), 1e-6),
    (_weakly_entangled(), 1e-6)], ids=["appendix_c", "biseparable", "weak"])
def test_split_state_is_reconstructed_once(monkeypatch, psi, tol,
                                           defects):
    def no_marginal(*args):
        raise AssertionError("the defect check built a marginal")

    monkeypatch.setattr(trigme.classify, "_pure_marginal", no_marginal)
    fact = finest_factorization(psi, tol)
    assert not fact.is_gme
    assert defects == [fact.factors]


@pytest.mark.parametrize("command", [["analyze", "--json"], ["classify"]])
@pytest.mark.parametrize("name, extra, calls", [
    ("ghz4.json", [], 0), ("w4.json", [], 0), ("haar-2^6", [], 0),
    ("appendix_c.json", ["--tol", "1e-3"], 1)])
def test_commands_reconstruct_split_states_only(capsys, tmp_path,
                                                fixtures_dir, defects,
                                                command, name, extra, calls):
    path = _document(name, tmp_path, fixtures_dir)
    assert run_command([command[0], str(path)] + command[1:] + extra) == 0
    capsys.readouterr()
    assert len(defects) == calls


def test_gme_factorization_builds_no_full_matrix():
    psi = haar_random_pure([2] * 10, 1010)
    tracemalloc.start()
    try:
        fact = finest_factorization(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fact.is_gme
    assert peak < psi.dim * psi.dim  # one D x D complex array is 16x this


def test_split_factorization_builds_no_full_matrix():
    psi = tensor_product([haar_random_pure([2] * 5, 1011),
                          haar_random_pure([2] * 5, 1012)])
    tracemalloc.start()
    try:
        fact = finest_factorization(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fact.factors == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
    assert peak < 4 * psi.dim * psi.dim  # one D x D complex array is 16x
