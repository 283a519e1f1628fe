import math
import tracemalloc

import numpy as np
import pytest

import trigme.mixed
import trigme.triangles
from trigme import (ConvexRoofConfig, Decomposition, DensityMatrix,
                    EdgeConvention, InternalInvariantError, PureState,
                    ValidationError, convex_roof_upper_bound,
                    decomposition_mixture_error, f_total, ghz_state,
                    gme_value, haar_random_pure, hermitian_eig,
                    minimal_purification, parse_state_file, partial_trace,
                    tensor_product, w_state, witness)
from trigme.mixed import (WEIGHT_FLOOR, _ensemble, _ensemble_members,
                          _ensemble_values, _isometry, _param_count,
                          _spectrum)
from trigme.states import _check_rows, haar_random_unitary
from trigme.triangles import ZERO_AREA_TOL
from trigme.stateio import fixture_path
from oracles import (GHZ_MIX_ROOF_REFERENCE, ghz_000_mixture, givens_isometry,
                     sequential_roof)

CONC = EdgeConvention.CONCURRENCE
SQ = EdgeConvention.SQUARED


def ghz_000_rho() -> DensityMatrix:
    return DensityMatrix((2, 2, 2), ghz_000_mixture())


def classical_mixture() -> DensityMatrix:
    mat = np.zeros((8, 8))
    mat[0, 0] = mat[7, 7] = 0.5
    return DensityMatrix((2, 2, 2), mat)


def appendix_e_alt_rho() -> DensityMatrix:
    """The rounded fixture at the load tolerance it needs; its rounding
    leaves eigenvalues 3.5e-7 and 1.6e-7 beside the rank-2 spectrum."""
    return parse_state_file(fixture_path("appendix_e_alt.json"), tol=1e-3)


# ------------------------------------------------- minimal_purification

def test_purification_of_pure_state_is_rank_one():
    phi = haar_random_pure([2, 2], 3)
    pur = minimal_purification(phi.projector())
    assert pur.rank == 1
    assert pur.state.dims == (2, 2, 1)
    assert pur.reference_party == 3
    np.testing.assert_allclose(np.abs(pur.state.amplitudes),
                               np.abs(phi.amplitudes), atol=1e-9)


def test_purification_of_a_pure_state_is_the_state_itself():
    psi = haar_random_pure([2, 3], 4)
    pur = minimal_purification(psi)
    assert pur.rank == 1
    assert pur.eigenvalues == (1.0,)
    assert np.array_equal(pur.state.amplitudes, psi.amplitudes)


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
    rho = DensityMatrix((2,), np.diag([0.5, 0.5]), tol=0.9)
    with pytest.raises(ValidationError, match="below rank tolerance 0.9"):
        minimal_purification(rho)


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


@pytest.mark.parametrize("conv", [CONC, SQ])
def test_witness_scores_a_pure_state_as_given(conv):
    psi = haar_random_pure([2, 2, 3], 12)
    rep = witness(psi, conv)
    assert rep.pure_state_bypass
    assert rep.purification_rank == 1
    assert rep.value == f_total(psi, conv).value
    assert rep.verdict == "GME detected"


@pytest.mark.parametrize("conv", [CONC, SQ])
def test_witness_cuts_the_rank_at_the_state_tolerance(conv):
    # at a 1e-9 cut the two rounding eigenvalues would count: rank 4 and
    # a spurious 0.0322
    rep = witness(appendix_e_alt_rho(), conv)
    assert rep.purification_rank == 2
    assert rep.value == 0.0
    assert rep.verdict == "no GME detected by witness"


INCONCLUSIVE = "inconclusive: witness positive, no GME certificate"


@pytest.mark.parametrize("conv", [CONC, SQ])
@pytest.mark.parametrize("rho", [
    pytest.param(lambda: DensityMatrix((2, 2, 2), np.eye(8) / 8),
                 id="maximally-mixed"),
    pytest.param(classical_mixture, id="classical-ghz-mixture"),
])
def test_positive_witness_without_certificate_is_inconclusive(rho, conv):
    # both states are fully separable, yet their purifications score 1 or
    # more: the value alone certifies nothing
    rep = witness(rho(), conv)
    assert rep.value > 0.9
    assert not rep.gme_detected
    assert rep.verdict == INCONCLUSIVE


def test_witness_certifies_the_ghz_000_mixture():
    # fidelity 0.8953 with its dominant eigenvector against alpha 0.6581
    for conv in (CONC, SQ):
        rep = witness(ghz_000_rho(), conv)
        assert rep.purification_rank == 2
        assert rep.gme_detected
        assert rep.verdict == "GME detected"


@pytest.mark.parametrize("offset", [-1e-3, 1e-3], ids=["below", "above"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ghz_white_noise_is_certified_exactly_above_its_threshold(n, offset):
    # GHZ_N at weight p in white noise has fidelity p + (1 - p) / 2^N with
    # GHZ_N, whose largest squared Schmidt coefficient is 1/2 on every cut
    p = (2 ** (n - 1) - 1) / (2 ** n - 1) + offset
    ghz = ghz_state(n).amplitudes
    d = 2 ** n
    rho = DensityMatrix((2,) * n, p * np.outer(ghz, ghz.conj())
                        + (1 - p) * np.eye(d) / d)
    rep = witness(rho, CONC)
    assert rep.purification_rank == d
    assert rep.value > ZERO_AREA_TOL
    assert rep.gme_detected is (offset > 0)
    assert rep.verdict == ("GME detected" if offset > 0 else INCONCLUSIVE)


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


def test_rank_one_roof_is_its_spectral_value_without_a_search(monkeypatch):
    def nelder_mead(*args, **kwargs):
        raise AssertionError("searched a rank-1 state's decompositions")

    monkeypatch.setattr(trigme.mixed, "_nelder_mead", nelder_mead)
    result = convex_roof_upper_bound(w_state(3).projector(), CONC,
                                     ConvexRoofConfig(restarts=2))
    assert result.value == result.spectral_value
    assert result.value == pytest.approx(gme_value(w_state(3)), abs=1e-9)
    assert result.history == (result.value,) * 7


def test_roof_of_a_pure_state_is_its_spectral_value(monkeypatch):
    def nelder_mead(*args, **kwargs):
        raise AssertionError("searched a pure state's decompositions")

    monkeypatch.setattr(trigme.mixed, "_nelder_mead", nelder_mead)
    psi = w_state(4)
    result = convex_roof_upper_bound(psi, CONC, ConvexRoofConfig(restarts=2))
    assert result.value == result.spectral_value
    assert result.value == gme_value(psi)
    [(weight, member)] = result.decomposition.members
    assert weight == 1.0
    assert member is psi
    assert decomposition_mixture_error(psi, result.decomposition) <= 1e-12


@pytest.mark.parametrize("seed, noise, tol", [
    (3, 1e-7, 1e-7), (3, 1e-7, 1e-8), (1, 0.04, 3e-3)])
def test_rank_one_density_matrix_roof_equals_its_witness(seed, noise, tol):
    # 15 dropped eigenvalues of noise / 16 each: the member used to keep
    # the top eigenvalue as its weight, read 0.85102712... for seed 3 at
    # 1e-7 and failed the weight-sum check at 1e-8; at weight 1 the
    # mixture check allows what the rank cut dropped (9e-3 for seed 1)
    psi = haar_random_pure([2] * 4, seed)
    entries = (1 - noise) * psi.projector().entries + noise * np.eye(16) / 16
    rho = DensityMatrix((2,) * 4, entries, tol=tol)
    result = convex_roof_upper_bound(rho, CONC, ConvexRoofConfig(restarts=1))
    assert result.value == result.spectral_value == witness(rho, CONC).value
    assert result.value == pytest.approx(gme_value(psi), abs=1e-12)
    [(weight, member)] = result.decomposition.members
    assert weight == 1.0


def test_rank_one_roof_is_bit_for_bit_at_both_tolerances():
    psi = haar_random_pure([2] * 4, 3)
    entries = 0.9999999 * psi.projector().entries + 1e-7 * np.eye(16) / 16
    assert {convex_roof_upper_bound(DensityMatrix((2,) * 4, entries, tol=tol),
                                    CONC, ConvexRoofConfig(restarts=1)).value
            for tol in (1e-7, 1e-8)} == {0.8510272095104553}


@pytest.fixture
def mixture_checks(monkeypatch):
    """The decompositions checked against their state."""
    calls = []
    original = trigme.mixed.decomposition_mixture_error

    def counted(rho, decomp):
        calls.append(len(decomp))
        return original(rho, decomp)

    monkeypatch.setattr(trigme.mixed, "decomposition_mixture_error", counted)
    return calls


@pytest.mark.parametrize("psi", [w_state(4), haar_random_pure([2] * 6, 61)],
                         ids=["w4", "haar-2^6"])
def test_pure_state_roof_skips_the_mixture_check(psi, mixture_checks):
    result = convex_roof_upper_bound(psi, CONC, ConvexRoofConfig(restarts=1))
    assert len(result.decomposition) == 1
    assert mixture_checks == []


@pytest.mark.parametrize("rho, rank", [
    (ghz_state(3).projector(), 1), (ghz_000_rho(), 2),
    (classical_mixture(), 2)], ids=["ghz3-projector", "ghz-000", "classical"])
def test_density_matrix_roof_keeps_the_mixture_check(rho, rank,
                                                     mixture_checks):
    convex_roof_upper_bound(rho, CONC, ConvexRoofConfig(restarts=1))
    assert len(mixture_checks) == 1
    assert mixture_checks[0] >= rank


@pytest.fixture
def batched_calls(monkeypatch):
    """The ensemble sizes scored by each batched objective call."""
    calls = []
    original = trigme.mixed._ensemble_values

    def counted(sub, isometries, dims, tol, conv):
        calls.append([len(iso) for iso in isometries])
        return original(sub, isometries, dims, tol, conv)

    monkeypatch.setattr(trigme.mixed, "_ensemble_values", counted)
    return calls


@pytest.mark.parametrize("rho, restarts", [
    (w_state(4), 2), (haar_random_pure([2] * 6, 62), 1),
    (ghz_state(3).projector(), 2), (ghz_000_rho(), 0),
    (classical_mixture(), 0)],
    ids=["w4", "haar-2^6", "ghz3-projector", "ghz-000-no-search",
         "classical-no-search"])
def test_only_the_search_runs_the_batched_objective(rho, restarts,
                                                    batched_calls):
    result = convex_roof_upper_bound(rho, CONC,
                                     ConvexRoofConfig(restarts=restarts))
    assert batched_calls == []
    assert result.value == result.spectral_value


def test_a_search_runs_the_batched_objective(batched_calls):
    # the searches of sizes 2, 3 and 4 advance together: the first call
    # scores their three initial simplices (5, 9 and 15 points)
    convex_roof_upper_bound(ghz_000_rho(), CONC,
                            ConvexRoofConfig(restarts=1, max_iterations=5))
    assert batched_calls[0] == [2] * 5 + [3] * 9 + [4] * 15
    assert any(set(sizes) == {2, 3, 4} for sizes in batched_calls[1:])


def test_pure_roof_builds_no_full_matrix():
    psi = haar_random_pure((2,) * 10, 1)
    tracemalloc.start()
    try:
        result = convex_roof_upper_bound(psi, CONC,
                                         ConvexRoofConfig(restarts=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == gme_value(psi)
    [(weight, member)] = result.decomposition.members
    assert weight == 1.0
    assert member is psi
    assert peak < 4 * psi.dim * psi.dim  # one D x D complex array is 16x


def test_lockstep_roof_scores_in_bounded_passes():
    # a round holds every size's initial simplex, 97 member rows here;
    # scored in one pass they took the peak to 52 MB.  The one-search-at-
    # a-time loop peaked at 4.13 MB on this search.
    rho = random_mixture((2,) * 8, 2, 770)
    tracemalloc.start()
    try:
        convex_roof_upper_bound(rho, CONC, ConvexRoofConfig(
            restarts=1, max_iterations=5, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 4.13e6


@pytest.mark.parametrize("rho", [ghz_state(3), classical_mixture()],
                         ids=["rank-1", "zero-baseline"])
def test_skipped_searches_cost_nothing_per_search(rho):
    # no search can improve either bound, so each of the 60,000 skipped
    # searches costs one history entry; a seed for each, spawned up
    # front, took the peak to 22 MB
    tracemalloc.start()
    try:
        result = convex_roof_upper_bound(rho, CONC,
                                         ConvexRoofConfig(restarts=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.history) == 60_001
    assert peak < 2e6


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


def biseparable_mixture() -> DensityMatrix:
    """Members biseparable across different cuts: the spectral
    eigenvectors are GME, and the zero decomposition must be searched."""
    a = np.zeros(8)
    a[0] = a[3] = 1.0 / math.sqrt(2.0)  # |0> (|00> + |11>)
    b = np.zeros(8)
    b[0] = b[6] = 1.0 / math.sqrt(2.0)  # (|00> + |11>) |0>
    return DensityMatrix((2, 2, 2), 0.5 * np.outer(a, a)
                         + 0.5 * np.outer(b, b))


def test_roof_finds_zero_for_mixture_of_biseparable_states():
    rho = biseparable_mixture()
    result = convex_roof_upper_bound(rho, CONC, ConvexRoofConfig(seed=0))
    assert result.spectral_value > 0.1
    assert result.value <= 1e-6


@pytest.mark.parametrize("conv", [CONC, SQ])
@pytest.mark.parametrize("make_rho, config", [
    *[pytest.param(biseparable_mixture,
                   ConvexRoofConfig(restarts=4, max_iterations=300,
                                    seed=seed),
                   id=f"zero-reaching-seed{seed}") for seed in range(3)],
    pytest.param(lambda: random_mixture((2, 2, 2), 3, 760),
                 ConvexRoofConfig(restarts=3, max_iterations=100, seed=761),
                 id="rank3-2^3"),
    pytest.param(lambda: random_mixture((3, 3, 3), 2, 762),
                 ConvexRoofConfig(restarts=2, max_iterations=100, seed=763),
                 id="rank2-3^3"),
    pytest.param(lambda: random_mixture((2,) * 4, 2, 764),
                 ConvexRoofConfig(ensemble_sizes=(3,), restarts=3,
                                  max_iterations=100, seed=765),
                 id="rank2-2^4-size3"),
])
def test_lockstep_roof_equals_the_sequential_search(make_rho, config, conv,
                                                   monkeypatch):
    # the searches of one restart index run together, but every search
    # and the fold are those of one search at a time, bit for bit; a
    # search that does not improve the bound shows only here
    started, finished = [], {}
    lockstep = trigme.mixed._lockstep

    def recorded(searches, score):
        started.extend(searches)
        for k, res in lockstep(searches, score):
            finished[k] = res
            yield k, res

    rho = make_rho()
    value, spectral, history, members, searches = sequential_roof(
        rho, conv, config)
    # the oracle drives each search itself, never through _lockstep
    monkeypatch.setattr(trigme.mixed, "_lockstep", recorded)
    result = convex_roof_upper_bound(rho, conv, config)
    assert repr(result.value) == repr(value)
    assert repr(result.spectral_value) == repr(spectral)
    assert repr(result.history) == repr(history)
    got = result.decomposition.members
    assert repr([p for p, _ in got]) == repr([p for p, _ in members])
    for (_, psi), (_, want) in zip(got, members, strict=True):
        assert np.array_equal(psi.amplitudes, want.amplitudes)
    for k, want in enumerate(searches):
        res = finished.pop(k)
        assert np.array_equal(res.x, want.x)
        assert repr((res.fun, res.nit, res.nfev, res.success)) == \
            repr((want.fun, want.nit, want.nfev, want.success))
    # a zero-reaching roof may also start the larger sizes' searches of
    # the restarts up to the one that reaches zero, but folds none of them
    sizes = len(config.ensemble_sizes or range(3))
    assert len(started) <= sizes * len(searches)
    assert all(k >= len(searches) for k in finished)


def test_roof_of_a_loosely_loaded_state_scores_its_kept_spectrum():
    # the kept eigenvalues carry the trace defect the 1e-3 load forgave,
    # so their sum misses 1 by 1.9e-7: more than 1e-9, less than 1e-3
    rho = appendix_e_alt_rho()
    result = convex_roof_upper_bound(
        rho, CONC, ConvexRoofConfig(restarts=1, max_iterations=100))
    assert len(result.decomposition) == 2
    assert result.value <= result.spectral_value
    assert result.value == pytest.approx(0.0, abs=1e-9)
    assert decomposition_mixture_error(rho, result.decomposition) <= 3e-3


def test_spectral_weights_the_rank_cut_refuses_stop_the_roof_unsearched(
        monkeypatch):
    # the rank cut at 1e-3 drops six eigenvalues of 9e-4, so the kept
    # weights sum to 0.9946: no decomposition of this rank can pass
    u = haar_random_unitary(8, np.random.default_rng(3))
    spectrum = [0.5, 0.4946] + [9e-4] * 6
    rho = DensityMatrix((2, 2, 2), (u * spectrum) @ u.conj().T, tol=1e-3)
    started = []
    original = trigme.mixed._nelder_mead

    def spy(*args):
        started.append(args)
        return original(*args)

    monkeypatch.setattr(trigme.mixed, "_nelder_mead", spy)
    with pytest.raises(ValidationError, match="weights sum to 0.9946"):
        convex_roof_upper_bound(rho, CONC, ConvexRoofConfig(restarts=1))
    assert started == []


@pytest.mark.parametrize("measure", [witness, convex_roof_upper_bound])
def test_rank_tolerance_above_every_eigenvalue_is_refused(measure):
    rho = DensityMatrix((2, 2, 2), np.eye(8) / 8, tol=0.5)
    with pytest.raises(ValidationError, match="below rank tolerance 0.5"):
        measure(rho)


@pytest.mark.parametrize("measure", [minimal_purification, witness,
                                     convex_roof_upper_bound])
def test_negative_rank_tolerance_is_refused(measure):
    # the rank cut is the state's own tolerance, so a negative one is
    # refused where the state is built, before any measure can use it
    rho = partial_trace(haar_random_pure([2] * 4, 5), (1, 2, 3))
    with pytest.raises(ValidationError,
                       match="tolerance -1 is not a finite number >= 0"):
        measure(DensityMatrix(rho.dims, rho.entries, tol=-1))


def test_decomposition_weight_sum_scales_with_its_member_tolerance():
    def members(tol):
        ket0 = PureState((2, 2, 2), np.eye(8)[0], tol=tol)
        return ((0.75 + 5e-7, ket0), (0.25, ghz_state(3)))

    with pytest.raises(ValidationError, match="weights sum to 1.0000005"):
        Decomposition(members(1e-9))
    assert len(Decomposition(members(1e-6))) == 2


def test_decomposition_refuses_members_of_different_dims():
    with pytest.raises(ValidationError,
                       match=r"dims \(2, 2, 2\) and \(2, 2, 2, 2\)"):
        Decomposition(((0.5, ghz_state(3)), (0.5, ghz_state(4))))


def test_mixture_error_refuses_a_decomposition_of_other_dims():
    decomp = Decomposition(((1.0, ghz_state(4)),))
    with pytest.raises(ValidationError,
                       match=r"dims \(2, 2, 2, 2\) differ from the "
                             r"state's \(2, 2, 2\)"):
        decomposition_mixture_error(ghz_000_rho(), decomp)


@pytest.mark.parametrize("field, value", [
    ("restarts", 1.5), ("restarts", True), ("max_iterations", 10.0),
    ("seed", 1.5), ("seed", "3"),
])
def test_roof_config_refuses_non_integer_counts(field, value):
    with pytest.raises(ValidationError,
                       match=f"{field} must be an integer, got {value!r}"):
        ConvexRoofConfig(**{field: value})


@pytest.mark.parametrize("sizes", [(2, 2.5), (True,), 3])
def test_roof_config_refuses_non_integer_ensemble_sizes(sizes):
    with pytest.raises(ValidationError,
                       match="ensemble_sizes must be a tuple of integers"):
        ConvexRoofConfig(ensemble_sizes=sizes)


def test_roof_config_takes_numpy_integers():
    cfg = ConvexRoofConfig(ensemble_sizes=(np.int64(2),),
                           restarts=np.int32(1), seed=np.uint64(5))
    result = convex_roof_upper_bound(ghz_000_rho(), CONC, cfg)
    assert len(result.decomposition) == 2


def test_roof_rejects_undersized_ensembles():
    with pytest.raises(ValidationError, match="no such decomposition"):
        convex_roof_upper_bound(ghz_000_rho(), CONC,
                                ConvexRoofConfig(ensemble_sizes=(1,)))


# ------------------------------------------------- batched roof objective

def random_mixture(dims, rank: int, seed: int) -> DensityMatrix:
    """Dirichlet-weighted mixture of ``rank`` seeded Haar states."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(rank))
    amps = [haar_random_pure(dims, seed + k).amplitudes for k in range(rank)]
    return DensityMatrix(dims, sum(p * np.outer(a, a.conj())
                                   for p, a in zip(weights, amps)))


def member_by_member(sub, iso, dims, conv) -> float:
    """The objective as one ``gme_value`` per member, each member built
    as a ``PureState`` from its own column."""
    raw = sub @ iso.T
    terms = []
    for i in range(raw.shape[1]):
        col = raw[:, i]
        p = float(np.real(np.vdot(col, col)))
        if p >= WEIGHT_FLOOR:
            psi = PureState(dims, col / math.sqrt(p))
            terms.append(p * gme_value(psi, conv))
    return math.fsum(terms)


def spectral_factor(rho):
    spec = _spectrum(rho)
    r = spec.rank
    return spec.vectors[:, :r] * np.sqrt(spec.values[:r]), r


def assert_batched_equals_member_by_member(rho, isometries):
    sub, _ = spectral_factor(rho)
    for iso in isometries:
        for conv in EdgeConvention:
            [batched] = _ensemble_values(sub, [iso], rho.dims, 1e-9, conv)
            assert batched == member_by_member(sub, iso, rho.dims, conv)
            assert batched == math.fsum(
                p * gme_value(psi, conv)
                for p, psi in _ensemble_members(sub, iso, rho.dims, 1e-9))


def random_isometries(r: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for m in range(r, r + 3):
        for _ in range(count):
            params = rng.uniform(0.0, 2.0 * math.pi, _param_count(m, r))
            yield _isometry(m, r, params)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_isometry_equals_the_full_givens_product(r):
    # the rotations past the rank are skipped; the kept columns are
    # those of every rotation applied, bit for bit
    rng = np.random.default_rng(790 + r)
    for m in range(r, r + 4):
        for params in (np.zeros(_param_count(m, r)),
                       *(rng.uniform(0.0, 2.0 * math.pi, _param_count(m, r))
                         for _ in range(20))):
            assert _isometry(m, r, params).tobytes() == \
                givens_isometry(m, r, params).tobytes()


@pytest.mark.parametrize("dims, rank", [
    ((2, 2, 2), 2), ((2, 2, 2), 3), ((3, 3, 3), 2), ((2,) * 4, 2),
    ((5, 2, 2), 2),  # the party-1 cut is cheaper on the {2, 3} side
])
def test_batched_objective_equals_member_by_member_sum(dims, rank):
    rho = random_mixture(dims, rank, 700 + len(dims) * rank)
    assert_batched_equals_member_by_member(
        rho, random_isometries(rank, 15, 710 + rank))


@pytest.mark.parametrize("rho", [
    # party 1 is a product factor of every member: every edge at
    # party 1 vanishes, at N = 6 already on level 1
    tensor_product([haar_random_pure([2], 720),
                    haar_random_pure([2] * 3, 721)]).projector(),
    DensityMatrix((2,) * 4, np.kron(
        np.diag([1.0, 0.0]),
        random_mixture((2, 2, 2), 2, 722).entries)),
    DensityMatrix((2,) * 6, np.kron(
        np.diag([1.0, 0.0]),
        random_mixture((2,) * 5, 2, 723).entries)),
    # spectral members GHZ_3 and |000>: one scores, one has zero edges
    ghz_000_rho(),
], ids=["rank1", "product-2^4", "product-2^6", "ghz000"])
def test_batched_objective_handles_members_with_zero_edges(rho):
    _, r = spectral_factor(rho)
    isometries = [np.eye(r, dtype=complex),
                  *random_isometries(r, 3, 730 + len(rho.dims))]
    assert_batched_equals_member_by_member(rho, isometries)


@pytest.mark.parametrize("budget", [None, 1], ids=["one-pass", "chunked"])
def test_batched_objective_scores_a_list_of_mixed_sizes(budget, monkeypatch):
    # a budget of 1 leaves passes of at most the largest ensemble size
    if budget is not None:
        monkeypatch.setattr(trigme.mixed, "_ROW_BUDGET", budget)
    rho = random_mixture((2, 2, 2), 2, 780)
    sub, r = spectral_factor(rho)
    isometries = list(random_isometries(r, 2, 781))[::-1]
    for conv in EdgeConvention:
        values = _ensemble_values(sub, isometries, rho.dims, 1e-9, conv)
        assert values == [member_by_member(sub, iso, rho.dims, conv)
                          for iso in isometries]


def test_batched_objective_raises_on_an_edge_breach(monkeypatch):
    # the second member's edges break the triangle inequality
    rows = np.array([[0.5, 0.5, 0.5], [1.0, 1.0, 3.0]])
    monkeypatch.setattr(trigme.triangles, "_cut_concurrences",
                        lambda amps, dims: rows)
    sub, r = spectral_factor(ghz_000_rho())
    vertices = r"\(\(1,\), \(2,\), \(3,\)\)"
    with pytest.raises(InternalInvariantError,
                       match=rf"polygamy violated: edges \(1.0, 1.0, 3.0\)"
                             rf".*{vertices}"):
        _ensemble_values(sub, [np.eye(r, dtype=complex)], (2, 2, 2), 1e-9,
                         CONC)


@pytest.mark.parametrize("bad_row", [
    np.full(8, 1.1 / math.sqrt(8.0), dtype=complex),      # norm 1.1
    np.full(8, (1.0 + 1.1e-9) / math.sqrt(8.0), dtype=complex),
    np.array([0.5, 0.5, 0.5, np.nan, 0.5, 0, 0, 0], dtype=complex),
    np.array([np.inf, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
], ids=["norm-1.1", "norm-just-past-tol", "nan", "inf"])
def test_member_rows_are_refused_with_pure_state_messages(bad_row):
    good = haar_random_pure((2, 2, 2), 740).amplitudes
    rows = np.array([good, bad_row])
    with pytest.raises(ValidationError) as single:
        PureState((2, 2, 2), bad_row)
    with pytest.raises(ValidationError) as batched:
        _check_rows((2, 2, 2), rows, 1e-9)
    assert str(batched.value) == str(single.value)


def test_member_rows_inside_the_norm_tolerance_pass():
    # the screen sends this row to the scalar check, which accepts it
    row = np.full(8, (1.0 + 0.9e-9) / math.sqrt(8.0), dtype=complex)
    PureState((2, 2, 2), row)
    _check_rows((2, 2, 2), np.array([row, row]), 1e-9)


def test_ensemble_rows_are_the_member_states():
    sub, r = spectral_factor(random_mixture((3, 3, 3), 2, 750))
    iso = next(random_isometries(r, 1, 751))
    weights, members = _ensemble(sub, iso)
    pairs = _ensemble_members(sub, iso, (3, 3, 3), 1e-9)
    assert weights == [p for p, _ in pairs]
    for row, (_, psi) in zip(members, pairs):
        assert np.array_equal(row, psi.amplitudes)


@pytest.mark.slow
def test_grid_oracle_rederivation():
    from oracles import grid_roof_oracle
    value = grid_roof_oracle(ghz_000_mixture())
    assert value == pytest.approx(GHZ_MIX_ROOF_REFERENCE, abs=1e-3)
    assert value == pytest.approx(9.0 / 16.0, abs=1e-3)
