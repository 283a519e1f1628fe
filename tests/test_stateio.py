import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigme import (DensityMatrix, ParseError, PureState, TrigmeError,
                    ValidationError, ghz_state, haar_random_pure,
                    hermitian_eig, parse_state_document, parse_state_file,
                    partial_trace, render_state_document, state_document,
                    w_state, wootters_concurrence, write_state_file)
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


@pytest.mark.parametrize("key", [1, (1, 2), None, True, 2.5])
def test_a_non_str_meta_key_is_refused_naming_the_key(tmp_path, key):
    path = tmp_path / "state.json"
    writers = (state_document, render_state_document,
               lambda state, meta: write_state_file(state, path, meta))
    for write in writers:
        with pytest.raises(ValidationError) as info:
            write(ghz_state(3), {"note": "x", key: "y"})
        assert str(info.value) == f"meta key {key!r} is not a str"
    assert not path.exists()


def test_a_nested_int_meta_key_is_written_as_json_writes_it():
    text = render_state_document(ghz_state(3), {"notes": {1: "x"}})
    assert json.loads(text)["meta"]["notes"] == {"1": "x"}


def _nested(depth: int) -> list:
    out = []
    for _ in range(depth):
        out = [out]
    return out


@pytest.mark.parametrize("meta, problem", [
    ({"x": float("inf")}, "Out of range float values"),
    ({"notes": [float("nan")]}, "Out of range float values"),
    ({"notes": {1: "x", "a": "y"}}, "'<' not supported"),
    ({"notes": {(1, 2): "x"}}, "keys must be str"),
    ({"notes": {1, 2}}, "Object of type set is not JSON serializable"),
    ({"notes": _nested(100_000)}, "maximum recursion depth exceeded"),
])
def test_a_meta_the_reader_would_refuse_is_refused_before_writing(
        tmp_path, meta, problem):
    path = tmp_path / "state.json"
    writers = (state_document, render_state_document,
               lambda state, meta: write_state_file(state, path, meta))
    for write in writers:
        with pytest.raises(ValidationError,
                           match=f"^meta is not writable as JSON: {problem}"):
            write(ghz_state(3), meta)
    assert not path.exists()


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


def test_make_fixtures_reproduces_every_shipped_fixture(fixtures_dir):
    script = Path(__file__).parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    docs = module.fixture_documents()
    assert sorted(docs) == sorted(p.name for p in fixtures_dir.glob("*.json"))
    for name, text in docs.items():
        assert text.encode("utf-8") == fixture_path(name).read_bytes(), name


def test_w4_fixture_matches_builder(fixtures_dir):
    psi = parse_state_file(fixtures_dir / "w4.json")
    np.testing.assert_array_equal(psi.amplitudes, w_state(4).amplitudes)


# ------------------------------------------------------ non-finite input

@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_numbers_are_rejected(tmp_path, token):
    path = tmp_path / "state.json"
    path.write_text('{"dims": [2], "kind": "pure", "data": '
                    f'[[{token}, 0.0], [0.0, 0.0]]}}')
    with pytest.raises(ParseError) as info:
        parse_state_file(path)
    assert str(info.value) == (f"{path}: non-finite number {token} is not "
                               "allowed")


def test_non_finite_values_in_a_parsed_document_are_rejected():
    doc = {"dims": [2], "kind": "pure",
           "data": [[float("nan"), 0.0], [1.0, 0.0]]}
    with pytest.raises(ValidationError, match="not finite"):
        parse_state_document(doc)


# ---------------------------------------------------- parser robustness

def test_integer_literal_past_the_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"dims": [2], "kind": "pure", "data": '
                    f'[[1{"0" * 5000}, 0], [0, 0]]}}')
    with pytest.raises(ParseError, match="value has 5001 digits"):
        parse_state_file(path)


@pytest.mark.parametrize("depth", [5_000, 100_000])
def test_over_deep_nesting_is_a_parse_error(tmp_path, depth):
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2], "kind": "pure", "data": '
                    + "[" * depth + "]" * depth + "}")
    with pytest.raises(ParseError, match=f"{path}: JSON nested too deeply"):
        parse_state_file(path)


def test_over_deep_nesting_under_a_checksum_is_a_parse_error():
    data = []
    for _ in range(100_000):
        data = [data]
    doc = {"dims": [2], "kind": "pure", "data": data,
           "meta": {"checksum": "0" * 64}}
    with pytest.raises(ParseError, match=r"doc\.data: nested too deeply"):
        parse_state_document(doc, where="doc")


@st.composite
def state_documents(draw):
    """Shape-matched pure or mixed documents with arbitrary entries."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    d = math.prod(dims)
    number = st.floats() | st.integers(-10 ** 400, 10 ** 400)
    pair = st.lists(number, min_size=2, max_size=2)
    row = st.lists(pair, min_size=d, max_size=d)
    kind = draw(st.sampled_from(["pure", "mixed"]))
    data = draw(row if kind == "pure"
                else st.lists(row, min_size=d, max_size=d))
    return {"dims": dims, "kind": kind, "data": data}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(state_documents())
def test_parser_raises_only_package_errors(doc):
    try:
        parse_state_document(doc)
    except TrigmeError:
        pass
