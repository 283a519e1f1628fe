import math

import numpy as np
import pytest

from trigme import (Cut, DensityMatrix, LocalChannel, PureState,
                    ValidationError, apply_local_channel_branches,
                    basis_state, f3, ghz_state, haar_random_pure,
                    hermitian_eig, linear_entropy, partial_trace, purity,
                    random_local_channel, tensor_product, w_state)
from oracles import brute_marginal, brute_purity

BELL = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
PLUS = PureState((2,), np.array([1, 1]) / math.sqrt(2))
KET0 = basis_state((2,), (0,))


# ---------------------------------------------------------------- Cut

def test_cut_canonical_smaller_side():
    cut = Cut.of((3, 4), 4)
    assert cut.parties == (1, 2)
    assert Cut.of((2,), 4).parties == (2,)
    assert Cut.of((2, 3, 4), 4).parties == (1,)


def test_cut_equal_split_keeps_party_one():
    assert Cut.of((2, 4), 4).parties == (1, 3)
    assert Cut.of((1, 3), 4).parties == (1, 3)


def test_cut_rejects_improper_subsets():
    with pytest.raises(ValidationError):
        Cut.of((), 3)
    with pytest.raises(ValidationError):
        Cut.of((1, 2, 3), 3)
    with pytest.raises(ValidationError):
        Cut.of((5,), 3)
    with pytest.raises(ValidationError):
        Cut((2, 3), 4)  # direct construction must already be canonical


def test_cut_complement_and_label():
    cut = Cut.of((2,), 3)
    assert cut.complement == (1, 3)
    assert cut.label() == "2|1,3"


# ------------------------------------------------------- construction

def test_pure_state_rejects_bad_norm_and_length():
    with pytest.raises(ValidationError):
        PureState((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        PureState((2, 2), np.array([1.0, 0.0]))


def test_density_matrix_rejects_invalid_inputs():
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix((2,), np.diag([0.9, 0.9]))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        DensityMatrix((2,), np.diag([1.5, -0.5]))


def test_density_matrix_relaxed_tolerance_accepts_rounded_input():
    mat = np.diag([0.5004, 0.4999])
    with pytest.raises(ValidationError):
        DensityMatrix((2,), mat)
    DensityMatrix((2,), mat, tol=1e-3)


def test_local_channel_requires_completeness():
    with pytest.raises(ValidationError, match="completeness"):
        LocalChannel(1, (np.diag([1.0, 0.5]),))
    LocalChannel(1, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


# ----------------------------------------------------- tensor_product

def test_tensor_product_basis_case():
    out = tensor_product([KET0, KET0])
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_product_bell_factor_has_zero_cut():
    psi = tensor_product([KET0, BELL])
    from trigme import concurrence_pure
    # sqrt(2 * (1 - purity)) amplifies eps-level purity error to ~1e-8
    assert concurrence_pure(psi, (1,)) == pytest.approx(0.0, abs=1e-7)


def test_tensor_product_of_plus_states_has_pure_marginals():
    psi = tensor_product([PLUS, PLUS])
    for party in (1, 2):
        assert purity(partial_trace(psi, (party,))) == pytest.approx(1.0)


def test_tensor_product_empty_errors():
    with pytest.raises(ValidationError, match="no factors"):
        tensor_product([])


# ------------------------------------------------------ partial_trace

def test_partial_trace_ghz_single_party():
    rho = partial_trace(ghz_state(4), (1,))
    np.testing.assert_allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_w4_single_party_matches_brute_force():
    w4 = w_state(4)
    rho = partial_trace(w4, (1,))
    expected = brute_marginal(w4.amplitudes, w4.dims, [0])
    np.testing.assert_allclose(rho.entries, expected, atol=1e-12)
    np.testing.assert_allclose(rho.entries, np.diag([0.75, 0.25]),
                               atol=1e-12)


def test_partial_trace_matches_brute_force_on_random_states():
    for seed in range(8):
        psi = haar_random_pure([2, 3, 2], seed)
        for keep in ([1], [2], [3], [1, 3], [2, 3]):
            got = partial_trace(psi, keep).entries
            want = brute_marginal(psi.amplitudes, psi.dims,
                                  [p - 1 for p in keep])
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_partial_trace_product_marginal_is_pure():
    psi = tensor_product([KET0, haar_random_pure([2, 2], 3)])
    rho = partial_trace(psi, (1,))
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_of_density_matrix_input():
    rho = ghz_state(3).projector()
    red = partial_trace(rho, (1, 2))
    expected = brute_marginal(ghz_state(3).amplitudes, (2, 2, 2), [0, 1])
    np.testing.assert_allclose(red.entries, expected, atol=1e-12)


def test_partial_trace_improper_keep_errors():
    with pytest.raises(ValidationError, match="improper bipartition"):
        partial_trace(ghz_state(3), ())
    with pytest.raises(ValidationError, match="improper bipartition"):
        partial_trace(ghz_state(3), (1, 2, 3))


def test_partial_trace_preserves_trace_and_psd():
    for seed in range(5):
        psi = haar_random_pure([2, 2, 3], 100 + seed)
        rho = partial_trace(psi, (2, 3))
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho.entries)) > -1e-12


# ------------------------------------------------- purity and entropy

def test_purity_values():
    assert purity(DensityMatrix((2,), np.diag([0.5, 0.5]))) == \
        pytest.approx(0.5)
    assert purity(KET0.projector()) == pytest.approx(1.0)
    # 9/16 + 1/16
    assert purity(DensityMatrix((2,), np.diag([0.75, 0.25]))) == \
        pytest.approx(0.625)


def test_purity_matches_brute_force():
    for seed in range(5):
        rho = partial_trace(haar_random_pure([2, 2, 2], 200 + seed), (1, 2))
        assert purity(rho) == pytest.approx(brute_purity(rho.entries),
                                            abs=1e-12)


def test_linear_entropy_values():
    assert linear_entropy(KET0.projector()) == pytest.approx(0.0, abs=1e-12)
    assert linear_entropy(DensityMatrix((2,), np.diag([0.5, 0.5]))) == \
        pytest.approx(0.5)
    assert linear_entropy(DensityMatrix((2,), np.diag([0.75, 0.25]))) == \
        pytest.approx(0.375)


# ------------------------------------------------------ hermitian_eig

def test_hermitian_eig_sorts_descending():
    vals, vecs = hermitian_eig(DensityMatrix((2,), np.diag([0.25, 0.75])))
    np.testing.assert_allclose(vals, [0.75, 0.25])
    # eigenvectors are columns matching the sorted order
    np.testing.assert_allclose(np.abs(vecs[:, 0]), [0, 1], atol=1e-12)


def test_hermitian_eig_reconstructs_random_psd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = a @ a.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix((d,), mat)
        vals, vecs = hermitian_eig(rho)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - mat)) < 1e-8
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(d))) < 1e-9
        assert all(vals[i] >= vals[i + 1] for i in range(d - 1))


def test_hermitian_eig_degenerate_returns_orthonormal_pair():
    vals, vecs = hermitian_eig(DensityMatrix((2,), np.eye(2) / 2))
    np.testing.assert_allclose(vals, [0.5, 0.5])
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian_array():
    with pytest.raises(ValidationError, match="Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("mat, where", [
    (np.array([[0.5, 0.0], [math.nan, 0.5]]), r"\(1, 0\)"),
    (np.array([[0.5, 0.0], [math.inf, 0.5]]), r"\(1, 0\)"),
    # NaN compares False, so it slips past the Hermiticity bound
    (np.full((2, 2), math.nan), r"\(0, 0\)"),
], ids=["nan", "inf", "all-nan"])
def test_hermitian_eig_rejects_non_finite_array(mat, where):
    with pytest.raises(ValidationError,
                       match=rf"matrix entry {where} is not finite"):
        hermitian_eig(mat)


# --------------------------------------------------- haar_random_pure

def test_haar_random_pure_is_deterministic_per_seed():
    a = haar_random_pure([2, 2], 7)
    b = haar_random_pure([2, 2], 7)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = haar_random_pure([2, 2], 8)
    assert np.max(np.abs(a.amplitudes - c.amplitudes)) > 1e-3


def test_haar_random_pure_is_normalized():
    for seed in range(20):
        psi = haar_random_pure([2, 2, 2], seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_haar_mean_marginal_purity_matches_known_average():
    # E[Tr rho_A^2] = (d_A + d_B) / (d_A d_B + 1) = 6/10 for two qutrits
    total = 0.0
    trials = 10_000
    for seed in range(trials):
        psi = haar_random_pure([3, 3], seed)
        m = psi.amplitudes.reshape(3, 3)
        g = m @ m.conj().T
        total += float(np.sum(np.abs(g) ** 2))
    assert abs(total / trials - 0.6) < 0.01


# ------------------------------------------- apply_local_channel_branches

def test_identity_channel_single_branch():
    psi = haar_random_pure([2, 2], 5)
    branches = apply_local_channel_branches(
        psi, LocalChannel(1, (np.eye(2),)))
    assert len(branches) == 1
    p, out = branches[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_projective_channel_collapses_bell_state():
    proj = LocalChannel(1, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    branches = apply_local_channel_branches(BELL, proj)
    assert len(branches) == 2
    for (p, out), target in zip(branches, ([1, 0, 0, 0], [0, 0, 0, 1])):
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(np.abs(out.amplitudes), target,
                                   atol=1e-12)


def test_branch_probabilities_sum_to_one():
    for seed in range(100):
        n = 3 + seed % 2
        psi = haar_random_pure([2] * n, 300 + seed)
        ch = random_local_channel(seed % n + 1, 2, 2 + seed % 3, 400 + seed)
        branches = apply_local_channel_branches(psi, ch)
        assert abs(sum(p for p, _ in branches) - 1.0) < 1e-9


def test_branch_average_f3_respects_monotonicity():
    ghz3 = ghz_state(3)
    ch = random_local_channel(2, 2, 2, 99)
    branches = apply_local_channel_branches(ghz3, ch)
    avg = sum(p * f3(b) for p, b in branches)
    assert avg <= f3(ghz3) + 1e-9
    assert f3(ghz3) == pytest.approx(1.0)


def test_channel_party_out_of_range_errors():
    with pytest.raises(ValidationError, match="out of range"):
        apply_local_channel_branches(BELL, LocalChannel(3, (np.eye(2),)))


# ------------------------------------------------------- invariants

def test_complementary_marginals_share_spectrum():
    for seed in range(20):
        psi = haar_random_pure([2, 2, 3], 500 + seed)
        for keep in ([1], [2], [1, 3]):
            comp = [p for p in (1, 2, 3) if p not in keep]
            a = np.linalg.eigvalsh(partial_trace(psi, keep).entries)[::-1]
            b = np.linalg.eigvalsh(partial_trace(psi, comp).entries)[::-1]
            k = min(len(a), len(b))
            np.testing.assert_allclose(a[:k], b[:k], atol=1e-8)
            tail = a[k:] if len(a) > k else b[k:]
            np.testing.assert_allclose(tail, 0.0, atol=1e-8)


def test_complementary_marginals_share_purity():
    for seed in range(100):
        n = 3 + seed % 3
        psi = haar_random_pure([2] * n, 600 + seed)
        for size in range(1, n // 2 + 1):
            keep = tuple(range(1, size + 1))
            comp = tuple(range(size + 1, n + 1))
            assert purity(partial_trace(psi, keep)) == pytest.approx(
                purity(partial_trace(psi, comp)), abs=1e-9)


# ------------------------------------------------------ non-finite input

@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    amps = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    amps[3] = bad
    with pytest.raises(ValidationError, match=r"amplitude 3 is not finite"):
        PureState((2, 2, 2), amps)


def test_all_nan_state_is_refused_instead_of_scored_zero():
    with pytest.raises(ValidationError, match="not finite"):
        PureState((2, 2, 2), [math.nan] * 8)


def test_density_matrix_rejects_non_finite_entries():
    mat = np.eye(2, dtype=complex) / 2.0
    mat[0, 1] = mat[1, 0] = math.nan
    with pytest.raises(ValidationError, match=r"entry \(0, 1\) is not finite"):
        DensityMatrix((2,), mat)


def test_local_channel_rejects_non_finite_kraus_operators():
    k = np.eye(2, dtype=complex)
    k[1, 0] = math.inf
    with pytest.raises(ValidationError, match="not finite"):
        LocalChannel(1, (k,))


def test_ghz_state_rejects_local_dimension_one():
    with pytest.raises(ValidationError, match="dimension 1"):
        ghz_state(3, dim=1)


# ------------------------------------------------------------ tolerances

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("make", [
    lambda tol: PureState((2, 2, 2), np.arange(8.0), tol=tol),
    lambda tol: PureState((2,), np.array([1.0, 0.0]), tol=tol),
    lambda tol: DensityMatrix((2,), np.diag([2.0, -1.0]), tol=tol),
    lambda tol: DensityMatrix((2,), np.eye(2) / 2.0, tol=tol),
], ids=["pure-norm-11.8", "pure-valid", "mixed-eigenvalue-minus-1",
        "mixed-valid"])
def test_invalid_state_tolerance_is_refused(make, bad):
    # NaN would turn every check off, and a negative tolerance would
    # fail valid input as non-Hermitian
    with pytest.raises(ValidationError,
                       match=rf"tolerance {bad!r} is not a finite "
                             rf"number >= 0"):
        make(bad)


def test_zero_state_tolerance_is_accepted():
    assert PureState((2,), np.array([1.0, 0.0]), tol=0.0).tol == 0.0
    assert DensityMatrix((2,), np.diag([1.0, 0.0]), tol=0.0).tol == 0.0
