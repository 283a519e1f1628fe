"""The cached evaluation plan behind every pure-state measure.

Checks the cut plan and the vectorised triangle stage against the
brute-force oracles, the closed-form cut counts, the exact agreement of
the public views, and that the polygamy checks still fire when edges
that break them are pushed through the vectorised stage.
"""

import math
from itertools import combinations

import numpy as np
import pytest

import trigme.concurrence
import trigme.triangles
from trigme import (EdgeConvention, InternalInvariantError,
                    all_cut_concurrences, f_level, f_total, ghz_state,
                    gme_value, haar_random_pure, heron_area_normalized,
                    tensor_product, w_state)
from trigme.triangles import TriangleEdges, _measure
from trigme.concurrence import (CutConcurrenceTable, _cut_concurrences,
                                _cut_plan)
from trigme.states import Cut
from trigme.selftest import random_biseparable
from oracles import brute_concurrence, coordinate_area_normalized

BOTH = tuple(EdgeConvention)
ORACLE_DIMS = [(2, 2, 2), (2, 2, 2, 2), (2,) * 5, (2,) * 6, (3, 2, 3, 2)]


def canonical_cut_count(n: int) -> int:
    """Bipartitions of n parties into two nonempty sides."""
    return 2 ** (n - 1) - 1


@pytest.mark.parametrize("dims", ORACLE_DIMS)
def test_cut_table_matches_brute_force(dims):
    psi = haar_random_pure(dims, 31)
    table = all_cut_concurrences(psi, len(dims) // 2)
    assert len(table) == canonical_cut_count(len(dims))
    for cut, value in table.entries.items():
        want = brute_concurrence(psi.amplitudes, dims,
                                 [p - 1 for p in cut.parties])
        assert value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dims", ORACLE_DIMS)
def test_triangle_areas_match_coordinate_oracle(dims):
    psi = haar_random_pure(dims, 32)
    conc = {}
    for size in range(1, len(dims)):
        for subset in combinations(range(len(dims)), size):
            conc[tuple(p + 1 for p in subset)] = brute_concurrence(
                psi.amplitudes, dims, list(subset))
    for conv in BOTH:
        rep = f_total(psi, conv)
        assert rep.triangles
        for tri in rep.triangles:
            edges = [conv.edge(conc[v]) for v in tri.vertex_labels]
            assert tri.area == pytest.approx(
                coordinate_area_normalized(*edges, conv.exponent),
                abs=1e-9)


@pytest.mark.parametrize("psi", [haar_random_pure((2,) * 7, 33),
                                 haar_random_pure((3, 2, 4, 2), 34),
                                 random_biseparable(6, 35)])
def test_vectorised_areas_equal_the_scalar_heron_path_bit_for_bit(psi):
    for conv in BOTH:
        for tri in f_total(psi, conv).triangles:
            assert tri.area == heron_area_normalized(tri.edges, conv)


def test_cut_counts_follow_closed_form():
    for n in range(2, 13):
        plan = _cut_plan(n)
        assert len(plan.cuts) == canonical_cut_count(n)
        for k in range(1, n // 2 + 1):
            want = sum(math.comb(n, s) for s in range(1, k + 1))
            if 2 * k == n:
                want -= math.comb(n, k) // 2
            assert sum(len(c.parties) <= k for c in plan.cuts) == want
            assert _cut_plan(n, k).cuts == plan.cuts[:want]
        # every subset and its complement map to the same cut
        assert len(plan.index) == 2 * len(plan.cuts)
        for side, pos in plan.index.items():
            assert plan.cuts[pos] == Cut.of(side, n)
    for dims in [(3, 4, 5), (5, 2, 2, 3)]:
        table = all_cut_concurrences(haar_random_pure(dims, 5),
                                     len(dims) // 2)
        assert len(table) == canonical_cut_count(len(dims))


@pytest.mark.parametrize(
    "psi", [haar_random_pure([2] * n, 60 + n) for n in range(3, 9)]
    + [haar_random_pure((3, 2, 4, 2), 69)],
    ids=[f"haar-2^{n}" for n in range(3, 9)] + ["haar-3x2x4x2"])
def test_a_table_keys_its_plan_order_values_by_cut(psi):
    n = psi.nparties
    for size in range(1, n // 2 + 1):
        table = all_cut_concurrences(psi, size)
        assert table.entries == dict(zip(_cut_plan(n, size).cuts,
                                         table.values))
        assert table.entries is table.entries  # built once, then kept
        for cut, value in table.entries.items():
            assert table.value(cut) == value
            assert table.value(cut.parties) == value
            assert table.value(cut.complement) == value


def test_table_reaches_each_cut_through_concurrence_pure(monkeypatch):
    calls = []
    original = trigme.concurrence.concurrence_pure

    def counted(psi, cut):
        calls.append(cut)
        return original(psi, cut)

    monkeypatch.setattr(trigme.concurrence, "concurrence_pure", counted)
    psi = haar_random_pure((2,) * 6, 6)
    gme_value(psi)
    assert calls == list(_cut_plan(6).cuts)


def test_f_total_value_equals_gme_value_exactly():
    states = [haar_random_pure([2] * n, 40 + n) for n in range(3, 9)]
    states += [haar_random_pure((3, 2, 3, 2), 47), ghz_state(5), w_state(6),
               random_biseparable(6, 48), ghz_state(4, dim=3)]
    for psi in states:
        for conv in BOTH:
            rep = f_total(psi, conv)
            assert rep.value == gme_value(psi, conv)
            if psi.nparties >= 4:
                for level, value in rep.level_values.items():
                    assert value == f_level(psi, level, conv)


def test_zero_levels_stop_gme_value_but_not_the_inventory():
    # a 1|5 split zeroes every level; the inventory still lists them all
    psi = tensor_product([haar_random_pure([2], 1),
                          haar_random_pure([2] * 5, 2)])
    rep = f_total(psi)
    assert gme_value(psi) == rep.value == 0.0
    assert set(rep.level_values.values()) == {0.0}
    assert {z.level for z in rep.zero_triangles} == {1, 2}


def crafted_table(values):
    """A three-party cut table with the given concurrences of 1, 2, 3."""
    return CutConcurrenceTable((2, 2, 2), 1, tuple(values))


@pytest.mark.parametrize("values", [
    (1.0, 1.0, 3.0),               # both checks fail
    (0.0, 1.0, 1.0 + 3e-9),        # only the half-perimeter check fails
    (1.0, 1.0, 2.0 + 1.5e-9),      # only the Heron radicand check fails
])
@pytest.mark.parametrize("view", [gme_value, f_total])
def test_vectorised_stage_raises_on_polygamy_breach(monkeypatch, values,
                                                    view):
    monkeypatch.setattr(trigme.triangles, "all_cut_concurrences",
                        lambda psi, size: crafted_table(values))
    vertices = r"\(\(1,\), \(2,\), \(3,\)\)"
    with pytest.raises(InternalInvariantError,
                       match=f"polygamy violated.*{vertices}"):
        view(ghz_state(3), EdgeConvention.CONCURRENCE)


def test_vanishing_edge_exempts_the_radicand_check(monkeypatch):
    # the radicand is about -4e-9, but a zero edge forces area 0 first
    monkeypatch.setattr(trigme.triangles, "all_cut_concurrences",
                        lambda psi, size: crafted_table((0.0, 1.0,
                                                         1.0 + 1.5e-9)))
    rep = f_total(ghz_state(3))
    assert rep.value == 0.0
    assert rep.zero_triangles[0].zero_edges == ((1,),)


@pytest.mark.parametrize("conv", BOTH)
def test_product_of_three_blocks_passes_the_polygamy_checks(conv):
    # the ((3,), (1, 2), (4, 5, 6)) triangle's edges are product-cut noise
    # of about 2e-8, whose half-perimeter gap exceeds the 1e-9 slack
    psi = tensor_product([haar_random_pure([2, 2], 4),
                          haar_random_pure([2], 5),
                          haar_random_pure([2, 2, 2], 6)])
    assert gme_value(psi, conv) == f_total(psi, conv).value == 0.0


def test_near_zero_edges_widen_the_slack_by_their_size():
    labels = ((3,), (1, 2), (4, 5, 6))
    edges = TriangleEdges(2.5809568279517847e-08, 0.0,
                          2.1073424255447017e-08, labels)
    assert heron_area_normalized(edges, EdgeConvention.CONCURRENCE) == 0.0
    # an edge of 1e-7 buys 1e-7 of slack, not more
    edges = TriangleEdges(1e-7, 1.0, 1.0 + 5e-7, labels)
    with pytest.raises(InternalInvariantError, match="polygamy violated"):
        heron_area_normalized(edges, EdgeConvention.CONCURRENCE)
    values = np.array([[1e-7, 1.0, 1.0 + 5e-7]])  # cuts (1,), (2,), (3,)
    with pytest.raises(InternalInvariantError, match="polygamy violated"):
        _measure(values, 3, EdgeConvention.CONCURRENCE)


def test_a_hand_built_squared_triangle_gets_the_stage_slack():
    # the squared edge 5e-7 is a concurrence of about 7e-4, far above
    # ZERO_EDGE_TOL, so it widens the slack neither here nor in the stage
    squared = [5e-7, 0.5, 0.5 + 1e-6]
    edges = TriangleEdges(*squared, ((1,), (2,), (3,)))
    with pytest.raises(InternalInvariantError, match="polygamy violated"):
        heron_area_normalized(edges, EdgeConvention.SQUARED)
    with pytest.raises(InternalInvariantError, match="polygamy violated"):
        _measure(np.sqrt([squared]), 3, EdgeConvention.SQUARED)


def test_rows_stopped_at_a_zero_level_skip_the_later_checks():
    # size-3 cuts of six parties are edges of level 2 only; make every
    # one of them break the triangle inequality
    product = tensor_product([haar_random_pure([2], 50),
                              haar_random_pure([2] * 5, 51)])
    haar = haar_random_pure([2] * 6, 52)
    values = _cut_concurrences(
        np.array([product.amplitudes, haar.amplitudes]), (2,) * 6)
    sizes = np.array([len(cut.parties) for cut in _cut_plan(6).cuts])
    values[:, sizes == 3] = 10.0
    # the product row is zero on level 1, so gme_value never reaches
    # level 2 for it; the batch must not either
    assert _measure(values[:1], 6, EdgeConvention.CONCURRENCE) == [
        ({1: 0.0}, 0.0)]
    with pytest.raises(InternalInvariantError, match="polygamy violated"):
        _measure(values, 6, EdgeConvention.CONCURRENCE)


def test_stopped_rows_leave_the_batch(monkeypatch):
    # the same pair unedited: the product row stops at level 1, so only
    # the Haar row reaches level 2, and no row's numbers change
    states = [tensor_product([haar_random_pure([2], 50),
                              haar_random_pure([2] * 5, 51)]),
              haar_random_pure([2] * 6, 52)]
    values = _cut_concurrences(
        np.array([psi.amplitudes for psi in states]), (2,) * 6)
    rows = []
    original = trigme.triangles._heron

    def spy(raw, *args):
        rows.append(len(raw))
        return original(raw, *args)

    monkeypatch.setattr(trigme.triangles, "_heron", spy)
    for conv in BOTH:
        rows.clear()
        batch = _measure(values, 6, conv)
        assert rows == [2, 1]
        for k, psi in enumerate(states):
            [alone] = _measure(values[k:k + 1], 6, conv)
            assert repr(batch[k]) == repr(alone)
            assert repr(batch[k][1]) == repr(gme_value(psi, conv))


def test_qudit_state_with_unequal_sides_uses_smaller_marginal(monkeypatch):
    # dims (5, 2, 2): the party-1 cut is cheaper on the {2,3} side
    sides = []
    original = trigme.concurrence._pure_marginal

    def recorded(amps, dims, keep0):
        sides.append(list(keep0))
        return original(amps, dims, keep0)

    monkeypatch.setattr(trigme.concurrence, "_pure_marginal", recorded)
    psi = haar_random_pure((5, 2, 2), 9)
    value = all_cut_concurrences(psi, 1).value((1,))
    assert sides == [[1, 2], [1], [2]]
    assert value == pytest.approx(
        brute_concurrence(psi.amplitudes, psi.dims, [0]), abs=1e-12)
