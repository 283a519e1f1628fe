import math

import numpy as np
import pytest

import trigme.triangles
from trigme import (EdgeConvention, InternalInvariantError, LocalChannel,
                    PureState, TriangleEdges, ValidationError,
                    apply_local_channel_branches, basis_state, f3, f_level,
                    f_total, ghz_state, gme_value, haar_random_pure,
                    heron_area_normalized, tensor_product, w_state,
                    all_cut_concurrences)
from trigme.concurrence import _cut_plan
from trigme.states import haar_random_unitary
from trigme.triangles import _level_plan
from trigme.selftest import permute_parties, random_biseparable
from oracles import coordinate_area_normalized, eager_inventory

CONC = EdgeConvention.CONCURRENCE
SQ = EdgeConvention.SQUARED
BELL = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))

VERTS3 = ((1,), (2,), (3,))


def edges(a, b, c):
    return TriangleEdges(a, b, c, VERTS3)


# ------------------------------------------------ heron_area_normalized

def test_equilateral_unit_triangle_has_area_one():
    # (16/3) * (3/2) * (1/2)^3 = 1
    assert heron_area_normalized(edges(1, 1, 1), CONC) == pytest.approx(1.0)
    assert heron_area_normalized(edges(1, 1, 1), SQ) == pytest.approx(1.0)


def test_degenerate_triangle_has_zero_area():
    for conv in (CONC, SQ):
        assert heron_area_normalized(edges(1, 1, 2), conv) == 0.0


def test_w_state_triangle_squared_convention():
    area = heron_area_normalized(edges(0.75, 0.75, 1.0), SQ)
    assert area == pytest.approx((5.0 / 12.0) ** 0.25, abs=1e-12)


def test_w_state_triangle_concurrence_convention():
    s = math.sqrt(3.0) / 2.0
    area = heron_area_normalized(edges(s, s, 1.0), CONC)
    # Q(Q-c) = 1/2, (Q-a)(Q-b) = 1/4, so (16/3) * 1/8 = 2/3
    assert area == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert area == pytest.approx(
        coordinate_area_normalized(s, s, 1.0, 0.5), abs=1e-12)


def test_heron_matches_coordinate_oracle_on_random_triangles():
    rng = np.random.default_rng(12)
    count = 0
    while count < 200:
        a, b, c = rng.uniform(0.01, 1.0, size=3)
        q = 0.5 * (a + b + c)
        if max(a, b, c) >= q:
            continue
        count += 1
        tri = edges(a, b, c)
        for conv in (CONC, SQ):
            assert heron_area_normalized(tri, conv) == pytest.approx(
                coordinate_area_normalized(a, b, c, conv.exponent),
                abs=1e-10)


def test_heron_symmetric_under_edge_permutation():
    a, b, c = 0.3, 0.5, 0.7
    vals = {heron_area_normalized(edges(*perm), CONC)
            for perm in ((a, b, c), (b, c, a), (c, a, b), (a, c, b))}
    assert max(vals) - min(vals) < 1e-12


def test_heron_rejects_polygamy_violations():
    for conv in (CONC, SQ):
        with pytest.raises(InternalInvariantError, match="polygamy violated"):
            heron_area_normalized(edges(1.0, 1.0, 2.5), conv)
    # slack within tolerance clamps to zero instead of raising
    tri = TriangleEdges(1.0, 1.0, 2.0 + 5e-11, VERTS3)
    assert heron_area_normalized(tri, CONC) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
@pytest.mark.parametrize("position", range(3))
def test_edges_must_be_finite_and_nonnegative(bad, position):
    lengths = [1.0, 1.0, 1.0]
    lengths[position] = bad
    with pytest.raises(ValidationError, match=f"edge {'abc'[position]} is"):
        edges(*lengths)


# ----------------------------------------------------------------- f3

def test_f3_ghz_is_one():
    assert f3(ghz_state(3)) == pytest.approx(1.0)
    assert f3(ghz_state(3), SQ) == pytest.approx(1.0)


def test_f3_biseparable_is_exactly_zero():
    psi = tensor_product([basis_state((2,), (0,)), BELL])
    assert f3(psi) == 0.0
    assert f3(psi, SQ) == 0.0


def test_f3_w_state():
    # edges all 2*sqrt(2)/3, so the area is (8/9) under concurrence edges
    assert f3(w_state(3)) == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_f3_needs_three_parties():
    with pytest.raises(ValidationError):
        f3(ghz_state(4))


# ------------------------------------------------------------- f_level

def test_f_level_ghz4():
    assert f_level(ghz_state(4), 1) == pytest.approx(1.0)
    assert f_level(ghz_state(4), 1, SQ) == pytest.approx(1.0)


def test_f_level_w4_both_conventions():
    w4 = w_state(4)
    assert f_level(w4, 1, SQ) == pytest.approx((5.0 / 12.0) ** 0.25,
                                               abs=1e-9)
    assert f_level(w4, 1, CONC) == pytest.approx(math.sqrt(2.0 / 3.0),
                                                 abs=1e-9)


def test_f_level_five_party_biseparable_vanishes_at_both_levels():
    psi = tensor_product([haar_random_pure([2], 1),
                          haar_random_pure([2] * 4, 2)])
    assert f_level(psi, 1) == 0.0
    assert f_level(psi, 2) == 0.0


def test_f_level_range_validation():
    with pytest.raises(ValidationError):
        f_level(ghz_state(4), 2)
    with pytest.raises(ValidationError):
        f_level(ghz_state(5), 0)
    with pytest.raises(ValidationError):
        f_level(ghz_state(3), 1)
    f_level(ghz_state(5), 2)  # N - 3 = 2 is allowed


# ------------------------------------------------------------- f_total

def test_f_total_ghz4_report():
    rep = f_total(ghz_state(4))
    assert rep.value == pytest.approx(1.0)
    assert rep.level_values == {1: pytest.approx(1.0)}
    assert len(rep.triangles) == 12
    assert not rep.zero_triangles
    assert not rep.areas_above_one
    assert rep.is_gme


def test_f_total_ghz6_uses_two_levels():
    rep = f_total(ghz_state(6))
    assert sorted(rep.level_values) == [1, 2]
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    for v in rep.level_values.values():
        assert v == pytest.approx(1.0, abs=1e-9)
    assert len(rep.triangles) == 30 + 60


def test_f_total_wraps_f3_for_three_parties():
    rep = f_total(w_state(3))
    assert rep.value == pytest.approx(f3(w_state(3)), abs=1e-12)
    assert len(rep.triangles) == 1


def test_f_total_needs_three_parties():
    with pytest.raises(ValidationError):
        f_total(BELL)


def test_f_total_zero_iff_zero_triangle_listed():
    biseparable = tensor_product([BELL, BELL])
    rep = f_total(biseparable)
    assert rep.value == 0.0
    assert rep.zero_triangles
    haar = f_total(haar_random_pure([2] * 4, 3))
    assert haar.value > 0.0
    assert not haar.zero_triangles


def test_gme_value_matches_f_total():
    for seed in range(10):
        for n in (3, 4, 5):
            psi = haar_random_pure([2] * n, 5000 + seed)
            for conv in (CONC, SQ):
                assert gme_value(psi, conv) == pytest.approx(
                    f_total(psi, conv).value, abs=1e-12)


def test_gme_value_stops_at_the_first_zero_level(monkeypatch):
    # party 1 is a product factor, so level 1 already vanishes; gme_value
    # computes no later level, while f_total still inventories all three
    psi = tensor_product([haar_random_pure([2], 1),
                          haar_random_pure([2] * 7, 2)])
    seen = []
    original = trigme.triangles._level_areas

    def spy(values, n, level, *args):
        seen.append(level)
        return original(values, n, level, *args)

    monkeypatch.setattr(trigme.triangles, "_level_areas", spy)
    assert gme_value(psi) == 0.0
    assert seen == [1]
    seen.clear()
    assert f_total(psi).value == 0.0
    assert seen == [1, 2, 3]


def test_two_bell_pairs_flag_areas_above_one():
    # parties (1,3) and (2,4) maximally entangled: cut {1,2}|{3,4} has
    # concurrence sqrt(3/2), pushing the (1,2) triangle area to sqrt(5)/2
    pairs = tensor_product([BELL, BELL])
    psi = permute_parties(pairs, [1, 3, 2, 4])
    table = all_cut_concurrences(psi, 2)
    assert table.value((1, 2)) == pytest.approx(math.sqrt(1.5), abs=1e-9)
    rep = f_total(psi)
    assert rep.value == 0.0
    flagged = {frozenset(z.vertex_labels) for z in rep.zero_triangles}
    assert frozenset(((1,), (3,), (2, 4))) in flagged
    assert frozenset(((2,), (4,), (1, 3))) in flagged
    assert rep.areas_above_one
    top = max(t.area for t in rep.areas_above_one)
    assert top == pytest.approx(math.sqrt(1.25), abs=1e-9)
    rep_sq = f_total(psi, SQ)
    assert max(t.area for t in rep_sq.areas_above_one) == pytest.approx(
        1.3125 ** 0.25, abs=1e-9)


# --------------------------------------------------------- properties

def test_zero_characterization_on_constructed_and_haar_states():
    zero_states = []
    for seed in range(20):
        zero_states.append(random_biseparable(4, seed))
        zero_states.append(random_biseparable(5, 100 + seed))
    for psi in zero_states:
        n = psi.nparties
        table = all_cut_concurrences(psi, n // 2)
        assert min(table.entries.values()) <= 1e-6
        assert gme_value(psi) <= 1e-8
    for seed in range(200):
        psi = haar_random_pure([2] * 4, 6000 + seed)
        table = all_cut_concurrences(psi, 2)
        assert min(table.entries.values()) > 1e-6
        assert gme_value(psi) > 0.01


def test_gme_value_invariant_under_local_unitaries():
    for trial in range(20):
        n = 3 + trial % 2
        psi = haar_random_pure([2] * n, 9000 + trial)
        rng = np.random.default_rng(9500 + trial)
        u = haar_random_unitary(2, rng)
        rotated = apply_local_channel_branches(
            psi, LocalChannel(trial % n + 1, (u,)))[0][1]
        for conv in (CONC, SQ):
            assert gme_value(rotated, conv) == pytest.approx(
                gme_value(psi, conv), abs=1e-9)


# ------------------------------------------------------------ level plan

def test_plan_arrays_are_shared_not_rebuilt():
    gme_value(haar_random_pure((2,) * 7, 3))
    first = _level_plan(7, 2)[1]
    gme_value(haar_random_pure((3, 2, 2, 2, 2, 2, 2), 4))
    assert _level_plan(7, 2)[1] is first
    assert isinstance(first, np.ndarray) and first.shape[0] == 3
    assert not first.flags.writeable
    assert _cut_plan.cache_info().maxsize == 32
    assert _level_plan.cache_info().maxsize == 64


def test_inventory_reads_the_cached_level_labels():
    labels = _level_plan(6, 2)[0]
    report = f_total(haar_random_pure([2] * 6, 5))
    level2 = [t.vertex_labels for t in report.triangles if t.level == 2]
    assert len(level2) == len(labels) == 6 * math.comb(5, 2)
    assert all(got is want for got, want in zip(level2, labels))


# The Haar states, GHZ4 and W4, and the biseparable 2^6 golden state
INVENTORY_STATES = {
    **{f"haar-2^{n}": (lambda n=n: haar_random_pure((2,) * n, 700 + n))
       for n in range(3, 9)},
    "ghz4": lambda: ghz_state(4),
    "w4": lambda: w_state(4),
    "biseparable6-4207": lambda: tensor_product(
        [haar_random_pure([2, 2], 4207), haar_random_pure([2] * 4, 4208)]),
}


@pytest.mark.parametrize("conv", [CONC, SQ])
@pytest.mark.parametrize("name", sorted(INVENTORY_STATES))
def test_inventory_views_equal_the_eager_records(name, conv):
    psi = INVENTORY_STATES[name]()
    report = f_total(psi, conv)
    got = (report.triangles, report.zero_triangles, report.areas_above_one)
    assert repr(got) == repr(eager_inventory(psi, conv))
    assert f_total(psi, conv) == report
