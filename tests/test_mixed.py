import math

import numpy as np
import pytest

import trigme.mixed
from trigme import (ConvexRoofConfig, DensityMatrix, EdgeConvention,
                    ValidationError, convex_roof_upper_bound, f_total,
                    ghz_state, haar_random_pure, hermitian_eig,
                    minimal_purification, partial_trace, witness)
from oracles import GHZ_MIX_ROOF_REFERENCE, ghz_000_mixture

CONC = EdgeConvention.CONCURRENCE
SQ = EdgeConvention.SQUARED


def ghz_000_rho() -> DensityMatrix:
    return DensityMatrix((2, 2, 2), ghz_000_mixture())


def classical_mixture() -> DensityMatrix:
    mat = np.zeros((8, 8))
    mat[0, 0] = mat[7, 7] = 0.5
    return DensityMatrix((2, 2, 2), mat)


# ------------------------------------------------- minimal_purification

def test_purification_of_pure_state_is_rank_one():
    phi = haar_random_pure([2, 2], 3)
    pur = minimal_purification(phi.projector())
    assert pur.rank == 1
    assert pur.state.dims == (2, 2, 1)
    assert pur.reference_party == 3
    np.testing.assert_allclose(np.abs(pur.state.amplitudes),
                               np.abs(phi.amplitudes), atol=1e-9)


def test_purification_of_diagonal_qubit():
    rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
    pur = minimal_purification(rho)
    assert pur.rank == 2
    assert pur.state.dims == (2, 2)
    np.testing.assert_allclose(
        np.abs(pur.state.amplitudes),
        [math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)], atol=1e-12)


def test_purification_reproduces_input_under_reference_trace():
    for seed in range(10):
        psi = haar_random_pure([2, 2, 2, 2], 100 + seed)
        rho = partial_trace(psi, (1, 2, 3))
        pur = minimal_purification(rho)
        back = partial_trace(pur.state, (1, 2, 3))
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-8


def test_purification_of_appendix_e_matches_spectral_form(appendix_e_rho):
    pur = minimal_purification(appendix_e_rho)
    assert pur.rank == 2
    assert pur.state.dims == (2, 2, 2, 2)
    np.testing.assert_allclose(pur.eigenvalues, [0.75, 0.25], atol=1e-9)
    block = pur.state.amplitudes.reshape(8, 2)
    np.testing.assert_allclose(np.linalg.norm(block[:, 0]),
                               math.sqrt(3.0) / 2.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(block[:, 1]), 0.5, atol=1e-9)


def test_purification_needs_positive_rank():
    rho = DensityMatrix((2,), np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError, match="below rank tolerance"):
        minimal_purification(rho, rank_tol=0.9)


# --------------------------------------------------------------- witness

def test_witness_appendix_e_squared_matches_published_value(appendix_e_rho):
    rep = witness(appendix_e_rho, SQ)
    assert rep.value == pytest.approx(0.8034, abs=5e-3)
    assert rep.value == pytest.approx((5.0 / 12.0) ** 0.25, abs=1e-9)
    assert rep.purification_rank == 2
    assert not rep.pure_state_bypass
    assert rep.gme_detected
    assert rep.verdict == "GME detected"


def test_witness_appendix_e_concurrence_value(appendix_e_rho):
    rep = witness(appendix_e_rho, CONC)
    assert rep.value == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)


def test_witness_of_traced_appendix_c_is_zero(appendix_c_pure):
    rho = partial_trace(appendix_c_pure, (1, 2, 4))
    for conv in (CONC, SQ):
        rep = witness(rho, conv)
        assert rep.value <= 1e-6
        assert rep.verdict == "no GME detected by witness"


def test_witness_separable_diagonal_mixture_equals_manual_purification():
    rho = classical_mixture()
    # explicit purification: (|000>|0> + |111>|1>)/sqrt(2) is GHZ_4
    manual = ghz_state(4)
    for conv in (CONC, SQ):
        rep = witness(rho, conv)
        assert rep.purification_rank == 2
        assert rep.value == pytest.approx(f_total(manual, conv).value,
                                          abs=1e-9)
        assert rep.value == pytest.approx(1.0, abs=1e-9)


def test_witness_rank_one_bypass():
    psi = ghz_state(3)
    rep = witness(psi.projector(), CONC)
    assert rep.pure_state_bypass
    assert rep.purification_rank == 1
    assert rep.value == pytest.approx(f_total(psi, CONC).value, abs=1e-12)
    assert rep.value == pytest.approx(1.0)


def test_rank_one_witness_decomposes_rho_once(monkeypatch):
    calls = []

    def counting_eig(*args, **kwargs):
        calls.append(args)
        return hermitian_eig(*args, **kwargs)

    monkeypatch.setattr(trigme.mixed, "hermitian_eig", counting_eig)
    assert witness(ghz_state(3).projector(), CONC).pure_state_bypass
    assert len(calls) == 1


def test_witness_needs_three_parties():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    with pytest.raises(ValidationError):
        witness(rho)


# ------------------------------------------------ convex_roof_upper_bound

def test_roof_of_pure_state_is_its_value():
    psi = ghz_state(3)
    result = convex_roof_upper_bound(psi.projector(), CONC,
                                     ConvexRoofConfig(restarts=2))
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert len(result.decomposition) == 1


def test_roof_of_classical_mixture_is_zero():
    result = convex_roof_upper_bound(classical_mixture(), CONC,
                                     ConvexRoofConfig(restarts=2))
    assert result.value <= 1e-6
    assert result.spectral_value <= 1e-6


def test_roof_same_seed_is_deterministic():
    cfg = ConvexRoofConfig(restarts=3, seed=11)
    a = convex_roof_upper_bound(ghz_000_rho(), CONC, cfg)
    b = convex_roof_upper_bound(ghz_000_rho(), CONC, cfg)
    assert a.value == b.value


def test_roof_finds_zero_for_mixture_of_biseparable_states():
    # members are biseparable across different cuts, so the spectral
    # eigenvectors are GME and the zero decomposition must be searched
    a = np.zeros(8)
    a[0] = a[3] = 1.0 / math.sqrt(2.0)  # |0> (|00> + |11>)
    b = np.zeros(8)
    b[0] = b[6] = 1.0 / math.sqrt(2.0)  # (|00> + |11>) |0>
    rho = DensityMatrix((2, 2, 2), 0.5 * np.outer(a, a)
                        + 0.5 * np.outer(b, b))
    result = convex_roof_upper_bound(rho, CONC, ConvexRoofConfig(seed=0))
    assert result.spectral_value > 0.1
    assert result.value <= 1e-6


@pytest.mark.parametrize("measure", [witness, convex_roof_upper_bound])
def test_rank_tolerance_above_every_eigenvalue_is_refused(measure):
    rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
    with pytest.raises(ValidationError, match="below rank tolerance 0.5"):
        measure(rho, rank_tol=0.5)


@pytest.mark.parametrize("measure", [minimal_purification, witness,
                                     convex_roof_upper_bound])
def test_negative_rank_tolerance_is_refused(measure):
    rho = partial_trace(haar_random_pure([2] * 4, 5), (1, 2, 3))
    with pytest.raises(ValidationError,
                       match="rank tolerance must be >= 0, got -1"):
        measure(rho, rank_tol=-1)


def test_roof_rejects_undersized_ensembles():
    with pytest.raises(ValidationError, match="no such decomposition"):
        convex_roof_upper_bound(ghz_000_rho(), CONC,
                                ConvexRoofConfig(ensemble_sizes=(1,)))


@pytest.mark.slow
def test_grid_oracle_rederivation():
    from oracles import grid_roof_oracle
    value = grid_roof_oracle(ghz_000_mixture())
    assert value == pytest.approx(GHZ_MIX_ROOF_REFERENCE, abs=1e-3)
    assert value == pytest.approx(9.0 / 16.0, abs=1e-3)
