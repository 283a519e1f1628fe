import numpy as np
import pytest

from trigme import (DensityMatrix, ParseError, PureState, ValidationError,
                    ghz_state, haar_random_pure, hermitian_eig,
                    parse_state_document, parse_state_file, partial_trace,
                    render_state_document, state_document, w_state,
                    wootters_concurrence, write_state_file)
from trigme.stateio import document_checksum, fixture_path


# ------------------------------------------------------------ round trip

def test_pure_round_trip_is_bit_exact(tmp_path):
    psi = haar_random_pure([2, 3], 9)
    path = tmp_path / "state.json"
    write_state_file(psi, path)
    back = parse_state_file(path)
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
    # emitting the reloaded state reproduces the file byte for byte
    assert render_state_document(back) == path.read_text()


def test_mixed_round_trip_is_bit_exact(tmp_path):
    rho = partial_trace(haar_random_pure([2, 2, 2], 4), (1, 2))
    path = tmp_path / "rho.json"
    write_state_file(rho, path)
    back = parse_state_file(path)
    assert isinstance(back, DensityMatrix)
    np.testing.assert_array_equal(back.entries, rho.entries)


def test_document_meta_checksum_round_trip():
    doc = state_document(ghz_state(3))
    assert doc["meta"]["checksum"] == document_checksum(
        doc["dims"], doc["kind"], doc["data"])
    parse_state_document(doc)


# ----------------------------------------------------------- parse errors

def test_invalid_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2,\n "kind"')
    with pytest.raises(ParseError, match=r"line \d+, column \d+"):
        parse_state_file(path)


def test_missing_field_is_named():
    with pytest.raises(ParseError, match="missing required field 'data'"):
        parse_state_document({"dims": [2], "kind": "pure"})


def test_wrong_amplitude_count_is_reported():
    with pytest.raises(ParseError, match="expected 4 amplitudes"):
        parse_state_document({"dims": [2, 2], "kind": "pure",
                              "data": [[1.0, 0.0]]})


def test_bad_kind_and_bad_pair_are_reported():
    with pytest.raises(ParseError, match="kind"):
        parse_state_document({"dims": [2], "kind": "vector",
                              "data": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ParseError, match=r"data\[1\]"):
        parse_state_document({"dims": [2], "kind": "pure",
                              "data": [[1.0, 0.0], "zero"]})


def test_dimension_one_documents_are_rejected():
    with pytest.raises(ParseError, match=">= 2"):
        parse_state_document({"dims": [1, 2], "kind": "pure",
                              "data": [[1.0, 0.0], [0.0, 0.0]]})


def test_checksum_mismatch_is_detected():
    doc = state_document(ghz_state(3))
    doc["meta"]["checksum"] = "0" * 64
    with pytest.raises(ParseError, match="checksum"):
        parse_state_document(doc)


def test_validation_error_names_check_and_value():
    doc = {"dims": [2], "kind": "pure", "data": [[1.0, 0.0], [0.4, 0.0]]}
    with pytest.raises(ValidationError, match="norm"):
        parse_state_document(doc)
    bad_trace = {"dims": [2], "kind": "mixed",
                 "data": [[[0.6, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.6, 0.0]]]}
    with pytest.raises(ValidationError, match="trace"):
        parse_state_document(bad_trace)


def test_missing_file_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_state_file("/nonexistent/state.json")


# -------------------------------------------------------------- fixtures

def test_ghz4_fixture(fixtures_dir):
    psi = parse_state_file(fixtures_dir / "ghz4.json")
    assert isinstance(psi, PureState)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    assert psi.dims == (2, 2, 2, 2)


def test_appendix_c_fixture_is_near_rank_one(fixtures_dir):
    rho = parse_state_file(fixtures_dir / "appendix_c.json", tol=1e-3)
    assert isinstance(rho, DensityMatrix)
    assert abs(np.trace(rho.entries).real - 1.0) < 1e-3
    vals, _ = hermitian_eig(rho)
    assert vals[0] > 1.0 - 1e-3
    assert vals[1] < 1e-3


def test_appendix_c_fixture_requires_relaxed_tolerance(fixtures_dir):
    with pytest.raises(ValidationError):
        parse_state_file(fixtures_dir / "appendix_c.json")


def test_appendix_e_fixture_spectrum(fixtures_dir):
    rho = parse_state_file(fixtures_dir / "appendix_e.json")
    vals, _ = hermitian_eig(rho)
    assert vals[0] == pytest.approx(0.75, abs=1e-3)
    assert vals[1] == pytest.approx(0.25, abs=1e-3)
    np.testing.assert_allclose(vals[2:], 0.0, atol=1e-9)


def test_appendix_e_alt_fixture_structure(fixtures_dir):
    # rounded variant: same spectrum, but party 1 factors out, so only
    # the (2,3) pair carries entanglement
    rho = parse_state_file(fixtures_dir / "appendix_e_alt.json", tol=1e-3)
    vals, vecs = hermitian_eig(rho)
    assert vals[0] == pytest.approx(0.75, abs=1e-3)
    assert vals[1] == pytest.approx(0.25, abs=1e-3)
    assert wootters_concurrence(partial_trace(rho, (2, 3))) == \
        pytest.approx(0.5, abs=5e-3)
    assert wootters_concurrence(partial_trace(rho, (1, 2))) == \
        pytest.approx(0.0, abs=5e-3)
    r1 = partial_trace(rho, (1,))
    assert float(np.sum(np.abs(r1.entries) ** 2)) == pytest.approx(
        1.0, abs=1e-3)


def test_package_data_fixtures_match_repo_fixtures(fixtures_dir):
    for name in ("ghz4.json", "w4.json", "appendix_c.json",
                 "appendix_e.json", "appendix_e_alt.json"):
        repo = (fixtures_dir / name).read_bytes()
        packaged = fixture_path(name).read_bytes()
        assert repo == packaged, name


def test_w4_fixture_matches_builder(fixtures_dir):
    psi = parse_state_file(fixtures_dir / "w4.json")
    np.testing.assert_array_equal(psi.amplitudes, w_state(4).amplitudes)


# ------------------------------------------------------ non-finite input

@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_numbers_are_rejected(tmp_path, token):
    path = tmp_path / "state.json"
    path.write_text('{"dims": [2], "kind": "pure", "data": '
                    f'[[{token}, 0.0], [0.0, 0.0]]}}')
    with pytest.raises(ParseError, match=f"non-finite number {token}"):
        parse_state_file(path)


def test_non_finite_values_in_a_parsed_document_are_rejected():
    doc = {"dims": [2], "kind": "pure",
           "data": [[float("nan"), 0.0], [1.0, 0.0]]}
    with pytest.raises(ValidationError, match="not finite"):
        parse_state_document(doc)
