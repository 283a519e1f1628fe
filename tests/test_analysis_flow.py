"""One cut table per result: ``analyze`` is one GME report plus one
factorization, and every report section is read off those two."""

import tracemalloc

import numpy as np
import pytest

import trigme.classify
import trigme.cli
import trigme.triangles
from trigme import (Cut, PureState, basis_state, f_total, finest_factorization,
                    ghz_state, haar_random_pure, marginal_cuts,
                    tensor_product, w_state, write_state_file)
from trigme.cli import run_command
from trigme.concurrence import all_cut_concurrences
from trigme.selftest import appendix_c_state, random_biseparable


@pytest.fixture
def table_calls(monkeypatch):
    """Every cut table built through the triangle, classify or CLI layer."""
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
    assert len(table_calls) == 2  # f_total, then finest_factorization


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


# ---------------------------------------------- reconstruction checks

@pytest.fixture
def reconstructions(monkeypatch):
    """The factor lists of every reconstruction check made."""
    calls = []
    original = trigme.classify._reconstruction_error

    def counted(psi, factors):
        calls.append(tuple(factors))
        return original(psi, factors)

    monkeypatch.setattr(trigme.classify, "_reconstruction_error", counted)
    return calls


@pytest.mark.parametrize("psi", [
    ghz_state(4), w_state(5), haar_random_pure([2] * 6, 7),
    haar_random_pure([3, 2, 2], 8)],
    ids=["ghz4", "w5", "haar-2^6", "haar-3x2x2"])
def test_gme_state_is_not_reconstructed(psi, reconstructions):
    assert finest_factorization(psi).is_gme
    assert reconstructions == []


@pytest.mark.parametrize("psi, tol", [
    (appendix_c_state(), 1e-3), (random_biseparable(5, 0), 1e-6),
    (_weakly_entangled(), 1e-6)], ids=["appendix_c", "biseparable", "weak"])
def test_split_state_is_reconstructed_once(psi, tol, reconstructions):
    fact = finest_factorization(psi, tol)
    assert not fact.is_gme
    assert reconstructions == [fact.factors]


@pytest.mark.parametrize("command", [["analyze", "--json"], ["classify"]])
@pytest.mark.parametrize("name, extra, calls", [
    ("ghz4.json", [], 0), ("w4.json", [], 0), ("haar-2^6", [], 0),
    ("appendix_c.json", ["--tol", "1e-3"], 1)])
def test_commands_reconstruct_split_states_only(capsys, tmp_path,
                                                fixtures_dir,
                                                reconstructions, command,
                                                name, extra, calls):
    path = _document(name, tmp_path, fixtures_dir)
    assert run_command([command[0], str(path)] + command[1:] + extra) == 0
    capsys.readouterr()
    assert len(reconstructions) == calls


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
