import math

import numpy as np
import pytest

import trigme.classify
from trigme import (Cut, InternalInvariantError, PureState, ValidationError,
                    basis_state, f_total, finest_factorization, ghz_state,
                    haar_random_pure, marginal_cuts, partial_trace,
                    product_cuts, tensor_product, w_state)
from trigme.classify import _product_defect
from trigme.concurrence import all_cut_concurrences
from trigme.selftest import permute_parties, random_biseparable
from oracles import (brute_marginal, brute_purity, product_infidelity,
                     refine_blocks)

BELL = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))


# -------------------------------------------------------- product_cuts

def test_ghz4_has_no_product_cuts():
    assert product_cuts(ghz_state(4)) == []


def test_single_factor_shows_up_as_product_cut():
    psi = tensor_product([basis_state((2,), (0,)), BELL])
    cuts = product_cuts(psi)
    assert [c.parties for c in cuts] == [(1,)]


def test_appendix_c_product_cuts(appendix_c_pure):
    cuts = product_cuts(appendix_c_pure, tol=1e-3)
    assert {c.parties for c in cuts} == {(1,), (2,), (1, 2)}


# ------------------------------------------------ finest_factorization

def test_ghz3_is_one_block():
    fact = finest_factorization(ghz_state(3))
    assert fact.factors == ((1, 2, 3),)
    assert fact.is_gme


def test_constructed_product_factors():
    psi = tensor_product([basis_state((2,), (0,)), basis_state((2,), (0,)),
                          BELL])
    fact = finest_factorization(psi)
    assert fact.factors == ((1,), (2,), (3, 4))
    assert not fact.is_gme


def test_appendix_c_factors(appendix_c_pure):
    fact = finest_factorization(appendix_c_pure, tol=1e-3)
    assert fact.factors == ((1,), (2,), (3, 4))
    assert not fact.is_gme


def test_interleaved_pairs_factor_correctly():
    pairs = tensor_product([BELL, BELL])
    psi = permute_parties(pairs, [1, 3, 2, 4])
    fact = finest_factorization(psi)
    assert fact.factors == ((1, 3), (2, 4))


def test_idempotence_on_reassembled_state(appendix_c_pure):
    fact = finest_factorization(appendix_c_pure, tol=1e-3)
    # rebuild from factor marginals: each factor is pure here, so take
    # dominant eigenvectors and tensor them back in party order
    parts = []
    for block in fact.factors:
        rho = partial_trace(appendix_c_pure, block)
        vals, vecs = np.linalg.eigh(rho.entries)
        parts.append(PureState(rho.dims,
                               vecs[:, -1] / np.linalg.norm(vecs[:, -1])))
    rebuilt = tensor_product(parts)
    assert finest_factorization(rebuilt).factors == fact.factors


def test_refinement_is_order_independent():
    rng = np.random.default_rng(5)
    cuts = [(1,), (2,), (1, 2)]
    expected = None
    for _ in range(6):
        order = list(rng.permutation(len(cuts)))
        blocks = [(1, 2, 3, 4)]
        for idx in order:
            blocks = refine_blocks(blocks, cuts[idx])
        expected = expected or blocks
        assert blocks == expected == [(1,), (2,), (3, 4)]


@pytest.mark.parametrize("seed", range(8))
def test_signature_classes_equal_the_cut_by_cut_refinement(monkeypatch,
                                                           seed):
    # finest_factorization groups parties by their side of every product
    # cut; the oracle refines one cut at a time.  The cut sets are drawn
    # directly, so no state has to realise them: the product-defect check
    # is switched off and the blocks alone are compared, in order.
    monkeypatch.setattr(trigme.classify, "_product_defect",
                        lambda entries, blocks, n: 0.0)
    rng = np.random.default_rng(seed)
    states = {n: haar_random_pure([2] * n, n) for n in range(2, 11)}
    for _ in range(250):
        n = int(rng.integers(2, 11))
        cuts = sorted({Cut.of((1 + rng.choice(n, int(rng.integers(1, n)),
                                              replace=False)).tolist(), n)
                       for _ in range(int(rng.integers(0, 7)))})
        monkeypatch.setattr(trigme.classify, "_split_cuts",
                            lambda psi, tol, caller: ({}, cuts, []))
        blocks = [tuple(range(1, n + 1))]
        for cut in cuts:
            blocks = refine_blocks(blocks, cut.parties)
        fact = finest_factorization(states[n])
        assert list(fact.factors) == blocks
        assert fact.is_gme == (len(blocks) == 1)


def test_consistency_with_f_total_zero_inventory():
    suite = [ghz_state(4), haar_random_pure([2] * 4, 9)]
    suite += [random_biseparable(4, seed) for seed in range(10)]
    for psi in suite:
        fact = finest_factorization(psi)
        rep = f_total(psi)
        assert fact.is_gme == (not rep.zero_triangles)
        assert fact.is_gme == (rep.value > 0.0)


# ------------------------------------------------------- marginal cuts

def test_weakly_entangled_cut_is_flagged_marginal():
    eps = 1.5e-6  # concurrence ~ 2*eps lands between tol and 10*tol
    amps = np.array([1.0, 0.0, 0.0, eps])
    amps = amps / np.linalg.norm(amps)
    psi = tensor_product([PureState((2, 2), amps), basis_state((2,), (0,))])
    flagged = marginal_cuts(psi, tol=1e-6)
    assert Cut.of((1,), 3) in flagged
    assert Cut.of((1,), 3) not in product_cuts(psi, tol=1e-6)


# ------------------------------------------------------------- errors

def test_party_cap():
    with pytest.raises(ValidationError, match="capped"):
        product_cuts(haar_random_pure([2] * 11, 0))


def test_absurd_tolerance_raises_inconsistent_factorization():
    # every GHZ cut falls below a threshold of 2, so the refinement
    # splits into singletons, whose product defect is 3 * 1 / 2; a
    # threshold above the 1e-2 defect clip is the caller's fault
    with pytest.raises(ValidationError,
                       match="inconsistent factorization"):
        finest_factorization(ghz_state(3), tol=2.0)


@pytest.mark.parametrize("tol, error", [
    (1e-6, InternalInvariantError), (1e-3, InternalInvariantError),
    (1e-2, InternalInvariantError), (0.011, ValidationError),
    (5.0, ValidationError)])
def test_a_failed_defect_check_blames_only_a_threshold_above_the_clip(
        monkeypatch, tol, error):
    # at or below the 1e-2 clip the defect must hold: a failure is a bug
    monkeypatch.setattr(trigme.classify, "_product_defect",
                        lambda entries, blocks, n: 1.0)
    psi = tensor_product([BELL, basis_state((2,), (0,))])
    with pytest.raises(error, match=r"product defect 1\.0 exceeds "
                       rf"{max(1e-6, min(tol, 1e-2))!r} for factors"):
        finest_factorization(psi, tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("func", [finest_factorization, product_cuts,
                                  marginal_cuts])
def test_nan_infinite_or_negative_cut_threshold_is_refused(func, tol):
    # NaN or -1 used to read every cut as entangled: two Bell pairs came
    # out GME
    psi = tensor_product([ghz_state(2), ghz_state(2)])
    with pytest.raises(ValidationError,
                       match=r"tolerance .* is not a finite number >= 0"):
        func(psi, tol)


def test_needs_two_parties():
    with pytest.raises(ValidationError):
        finest_factorization(basis_state((2,), (0,)))


def test_w_state_is_gme_at_default_tolerance():
    fact = finest_factorization(w_state(4))
    assert fact.is_gme


# ------------------------------------------------------ product defect

def _unequal_product():
    # dims (3, 2, 4, 3) with blocks {1,3} and {2,4}: interleaved parties
    left = tensor_product([haar_random_pure([3, 4], 30),
                           haar_random_pure([2, 3], 31)])
    return permute_parties(left, [1, 3, 2, 4])


# factor lists the state splits into (None: its own factorization) and
# factor lists it does not split into
FACTORINGS = [
    (_unequal_product(), None),
    (_unequal_product(), [(1, 2), (3, 4)]),
    (haar_random_pure([3, 2, 4, 3], 32), [(2,), (1, 4), (3,)]),
    (haar_random_pure([3, 2, 4, 3], 33), [(4,), (1, 2, 3)]),
] + [(random_biseparable(6, seed), None) for seed in range(6)] + [
    (haar_random_pure([2, 3, 2, 2, 3], 34), [(1,), (2, 4), (3,), (5,)]),
]


def _defect(psi, factors):
    entries = all_cut_concurrences(psi, psi.nparties // 2).entries
    return _product_defect(entries, factors, psi.nparties)


@pytest.mark.parametrize("psi, factors", FACTORINGS)
def test_product_defect_bounds_the_oracle_infidelity(psi, factors):
    factors = factors or list(finest_factorization(psi).factors)
    assert len(factors) > 1
    oracle = product_infidelity(psi.amplitudes, psi.dims, factors)
    assert oracle <= _defect(psi, factors) + 1e-12


@pytest.mark.parametrize("psi, factors", FACTORINGS)
def test_product_defect_is_the_block_marginal_impurity(psi, factors):
    # C(B|rest)**2 / 2 = 1 - Tr rho_B**2, whichever side of B's cut the
    # table keeps
    factors = factors or list(finest_factorization(psi).factors)
    impurity = math.fsum(
        1.0 - brute_purity(brute_marginal(psi.amplitudes, psi.dims,
                                          [p - 1 for p in block]))
        for block in factors)
    assert _defect(psi, factors) == pytest.approx(impurity, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_product_defect_bounds_the_infidelity_of_random_splits(seed):
    # random dims and a random split into 2-4 blocks, of a state that is
    # Haar, a product over the split, or a product slightly perturbed
    rng = np.random.default_rng(seed)
    for trial in range(6):
        n = int(rng.integers(3, 6))
        dims = [int(d) for d in rng.integers(2, 4, size=n)]
        while math.prod(dims) > 72:
            dims[int(np.argmax(dims))] -= 1
        labels = rng.integers(0, int(rng.integers(2, min(n, 4) + 1)), size=n)
        factors = sorted({tuple((1 + np.flatnonzero(labels == k)).tolist())
                          for k in labels})
        if len(factors) < 2:
            factors = [tuple(range(1, n)), (n,)]
        seed_k = 100 * seed + trial
        parts = [haar_random_pure([dims[p - 1] for p in block], seed_k + i)
                 for i, block in enumerate(factors)]
        order = [p for block in factors for p in block]
        psi = permute_parties(tensor_product(parts),
                              [order.index(p) + 1 for p in range(1, n + 1)])
        kind = trial % 3
        if kind == 0:
            psi = haar_random_pure(dims, seed_k)
        elif kind == 2:
            amps = psi.amplitudes + 10.0 ** -rng.uniform(2, 6) * \
                haar_random_pure(dims, seed_k + 50).amplitudes
            psi = PureState(tuple(dims), amps / np.linalg.norm(amps))
        defect = _defect(psi, factors)
        oracle = product_infidelity(psi.amplitudes, psi.dims, factors)
        assert oracle <= defect + 1e-12
        if kind == 1:
            assert defect < 1e-13 and oracle < 1e-13
