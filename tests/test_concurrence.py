import math

import numpy as np
import pytest

from trigme import (Cut, Decomposition, DensityMatrix, PureState,
                    ValidationError, all_cut_concurrences, basis_state,
                    check_polygamy, concurrence_pure,
                    convex_roof_upper_bound, ghz_state, gme_value,
                    haar_random_pure, partial_trace, tensor_product,
                    w_state, wootters_concurrence)
from trigme.concurrence import (_cut_concurrences, _cut_layout, _cut_plan,
                                _smaller_side)
from oracles import (brute_concurrence, kernel_concurrence,
                     pure_two_qubit_concurrence)

BELL = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))


# ----------------------------------------------------- concurrence_pure

def test_ghz4_single_and_pair_cuts_are_one():
    ghz4 = ghz_state(4)
    for subset in ((1,), (2,), (3,), (4,), (1, 2)):
        assert concurrence_pure(ghz4, subset) == pytest.approx(1.0)


def test_product_cut_is_zero():
    psi = tensor_product([basis_state((2,), (0,)),
                          haar_random_pure([2, 2], 1)])
    assert concurrence_pure(psi, (1,)) == pytest.approx(0.0, abs=1e-7)


def test_w4_values_match_brute_force():
    w4 = w_state(4)
    # single cut: marginal diag(3/4, 1/4) gives C^2 = 2(1 - 5/8) = 3/4
    c1 = concurrence_pure(w4, (1,))
    assert c1 == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert c1 ** 2 == pytest.approx(0.75, abs=1e-12)
    assert concurrence_pure(w4, (1, 2)) == pytest.approx(1.0, abs=1e-12)
    for subset in ([0], [1], [0, 1], [0, 2]):
        got = concurrence_pure(w4, [p + 1 for p in subset])
        assert got == pytest.approx(
            brute_concurrence(w4.amplitudes, w4.dims, subset), abs=1e-12)


def test_concurrence_symmetric_under_complement():
    for seed in range(20):
        psi = haar_random_pure([2, 2, 3], seed)
        for subset in ((1,), (2, 3), (1, 3)):
            comp = tuple(p for p in (1, 2, 3) if p not in subset)
            assert concurrence_pure(psi, subset) == pytest.approx(
                concurrence_pure(psi, comp), abs=1e-9)


def test_concurrence_improper_cut_errors():
    with pytest.raises(ValidationError, match="improper"):
        concurrence_pure(ghz_state(3), ())


def test_concurrence_upper_bound_by_smaller_dimension():
    for seed in range(50):
        dims = [2, 3, 2] if seed % 2 else [3, 3, 2]
        psi = haar_random_pure(dims, 700 + seed)
        table = all_cut_concurrences(psi, 1)
        for cut, value in table.entries.items():
            d_small = min(np.prod([dims[p - 1] for p in cut.parties]),
                          np.prod([dims[p - 1] for p in cut.complement]))
            assert value <= math.sqrt(2.0 * (1.0 - 1.0 / d_small)) + 1e-9


# ------------------------------------------------- all_cut_concurrences

def test_table_ghz3_three_unit_entries():
    table = all_cut_concurrences(ghz_state(3), 1)
    assert len(table) == 3
    assert all(v == pytest.approx(1.0) for v in table.entries.values())


def test_table_n4_size2_has_seven_canonical_cuts():
    table = all_cut_concurrences(haar_random_pure([2] * 4, 0), 2)
    assert len(table) == 7
    sizes = sorted(len(c.parties) for c in table.entries)
    assert sizes == [1, 1, 1, 1, 2, 2, 2]


def test_table_lookup_canonicalizes_subsets():
    psi = haar_random_pure([2] * 4, 5)
    table = all_cut_concurrences(psi, 2)
    assert table.value((3, 4)) == table.value((1, 2))
    assert table.value((2, 3, 4)) == table.value((1,))
    with pytest.raises(ValidationError, match="out of range"):
        all_cut_concurrences(psi, 3)


def test_table_lookup_names_a_party_count_mismatch():
    table = all_cut_concurrences(ghz_state(4), 2)
    with pytest.raises(ValidationError,
                       match="cut is over 5 parties, table has 4"):
        table.value(Cut.of((1,), 5))


def test_one_cut_plans_no_more_than_its_own_cut():
    psi = haar_random_pure([2] * 17, 29)
    before = _cut_plan.cache_info()
    value = concurrence_pure(psi, (17,))
    assert _cut_plan.cache_info() == before
    assert repr(value) == repr(kernel_concurrence(psi.amplitudes, psi.dims,
                                                  [16]))


def test_table_agrees_with_concurrence_pure():
    psi = haar_random_pure([2, 2, 2, 2], 11)
    table = all_cut_concurrences(psi, 2)
    for cut, value in table.entries.items():
        assert value == pytest.approx(concurrence_pure(psi, cut),
                                      abs=1e-12)


@pytest.mark.parametrize("dims", [(2,) * n for n in range(3, 11)] + [
    (3,) * 5, (4,) * 4, (5, 2, 2), (6, 2, 2, 2), (2, 7, 2, 3)])
def test_every_cut_matches_the_kernel_oracle_bit_for_bit(dims):
    n = len(dims)
    cuts = _cut_plan(n).cuts
    for cut in cuts:
        side = _cut_layout(dims, cut.parties)
        assert list(side) == _smaller_side(dims, [p - 1 for p in cut.parties])
        with pytest.raises(AttributeError):
            side.axes = side.axes[::-1]
    states = [haar_random_pure(dims, 4500 + k) for k in range(2)]
    rows = _cut_concurrences(np.stack([psi.amplitudes for psi in states]),
                             dims)
    for psi, row in zip(states, rows):
        table = all_cut_concurrences(psi, n // 2)
        for cut, grouped in zip(cuts, row.tolist()):
            want = kernel_concurrence(psi.amplitudes, dims,
                                      [p - 1 for p in cut.parties])
            assert repr(table.value(cut)) == repr(want) == repr(grouped)


def test_appendix_c_cut_values(appendix_c_pure):
    table = all_cut_concurrences(appendix_c_pure, 2)
    # parties 3 and 4 carry the entanglement; cuts isolating them from
    # each other read 0.866
    assert table.value((3,)) == pytest.approx(0.866, abs=5e-3)
    assert table.value((4,)) == pytest.approx(0.866, abs=5e-3)
    assert table.value((1, 3)) == pytest.approx(0.866, abs=5e-3)
    # the state factors across {1,2} | {3,4}, so that bipartition is zero
    assert table.value((3, 4)) == pytest.approx(0.0, abs=1e-4)
    assert table.value((1,)) == pytest.approx(0.0, abs=1e-4)
    assert table.value((2,)) == pytest.approx(0.0, abs=1e-4)


# --------------------------------------------------- wootters_concurrence

def test_wootters_bell_projector_is_one():
    assert wootters_concurrence(BELL.projector()) == pytest.approx(1.0)


def test_wootters_maximally_mixed_is_zero():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_wootters_matches_pure_state_concurrence():
    for seed in range(100):
        psi = haar_random_pure([2, 2], 800 + seed)
        got = wootters_concurrence(psi.projector())
        assert got == pytest.approx(concurrence_pure(psi, (1,)), abs=1e-9)
        assert got == pytest.approx(
            pure_two_qubit_concurrence(psi.amplitudes), abs=1e-9)


def test_wootters_appendix_e_pairs(appendix_e_rho):
    for pair in ((1, 2), (1, 3), (2, 3)):
        c = wootters_concurrence(partial_trace(appendix_e_rho, pair))
        assert c == pytest.approx(0.5, abs=5e-3)


def test_wootters_rejects_wrong_dims():
    with pytest.raises(ValidationError, match="dims"):
        wootters_concurrence(DensityMatrix((4,), np.eye(4) / 4))


# -------------------------------------------------------- check_polygamy

def test_polygamy_ghz3_squared_slack_is_one():
    rep = check_polygamy(ghz_state(3))
    for i in (1, 2, 3):
        assert rep.squared_slacks[i] == pytest.approx(1.0, abs=1e-9)
    assert rep.all_hold


def test_polygamy_biseparable_state_holds_with_zero_left_side():
    psi = tensor_product([basis_state((2,), (1,)), BELL])
    rep = check_polygamy(psi)
    assert rep.squared_slacks[1] == pytest.approx(
        2.0 * concurrence_pure(psi, (2,)) ** 2, abs=1e-9)
    assert rep.all_hold


def test_polygamy_needs_three_parties():
    with pytest.raises(ValidationError):
        check_polygamy(BELL)


def test_polygamy_report_counts():
    rep = check_polygamy(haar_random_pure([2] * 4, 1))
    assert len(rep.squared_slacks) == 4
    assert len(rep.plain_slacks) == 4
    assert len(rep.triangle_slacks) == 6
    assert len(rep.linear_entropy_slacks) == 6
    assert len(rep.all_slacks()) == 12 + 4 + 4 + 18


# ------------------------------------------------------------ refusals

GHZ4 = ghz_state(4)


@pytest.mark.parametrize("call, message", [
    (lambda: concurrence_pure(GHZ4, Cut.of((1,), 3)),
     "cut is over 3 parties, state has 4"),
    (lambda: partial_trace(GHZ4, Cut.of((1,), 3)),
     "cut is over 3 parties, state has 4"),
    (lambda: all_cut_concurrences(ghz_state(6), 1).value((1, 2)),
     "cut (1, 2) exceeds enumerated size 1"),
    (lambda: Decomposition(()), "decomposition needs at least one member"),
    (lambda: Decomposition(((1.5, GHZ4), (-0.5, GHZ4))),
     "decomposition weights must be positive"),
    (lambda: convex_roof_upper_bound(BELL),
     "convex roof needs at least 3 parties, got 2"),
    (lambda: gme_value(BELL), "gme_value needs at least 3 parties, got 2"),
    (lambda: Cut.of((1, 1), 3), "duplicate party labels in (1, 1)"),
    (lambda: Cut((), 3),
     "improper bipartition: subset must be nonempty and proper"),
])
def test_library_refusals_name_the_failed_check(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
