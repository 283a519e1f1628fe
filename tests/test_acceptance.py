"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line into the pytest terminal summary
(see conftest) and enforces its runtime budget.  The property criteria
(5, 6, 7 and 9) run the ``trigme selftest`` checks at full size, so
the campaign and the suite share one implementation and one set of
seeds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trigme import (ConvexRoofConfig, DensityMatrix, EdgeConvention,
                    all_cut_concurrences, convex_roof_upper_bound,
                    decomposition_mixture_error, f_total,
                    finest_factorization, ghz_state, hermitian_eig,
                    partial_trace, w_state, witness, wootters_concurrence)
from trigme.selftest import (check_edge_monotonicity, check_f5_equivalence,
                             check_locc_monotonicity, check_theorem1,
                             check_witness_gauge)

from conftest import record_acceptance
from oracles import (GHZ_MIX_ROOF_REFERENCE, coordinate_area_normalized,
                     ghz_000_mixture)

CONC = EdgeConvention.CONCURRENCE
SQ = EdgeConvention.SQUARED
BOTH = (CONC, SQ)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        record_acceptance(f"FAIL criterion {number} ({name}): {exc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        record_acceptance(
            f"FAIL criterion {number} ({name}): runtime {elapsed:.1f}s "
            f"exceeds budget {budget_s:g}s")
        pytest.fail(f"runtime {elapsed:.1f}s exceeds budget {budget_s:g}s")
    record_acceptance(
        f"PASS criterion {number} ({name}) in {elapsed:.2f}s")


def test_criterion_1_ghz_w_golden_values():
    with criterion(1, "GHZ/W golden values", 1.0):
        ghz4, w4 = ghz_state(4), w_state(4)
        for conv in BOTH:
            assert f_total(ghz4, conv).value == pytest.approx(1.0,
                                                              abs=1e-9)
        rep_sq = f_total(w4, SQ)
        target_area = (5.0 / 12.0) ** 0.25
        for tri in rep_sq.triangles:
            got = sorted((tri.edges.a, tri.edges.b, tri.edges.c))
            for e, want in zip(got, (0.75, 0.75, 1.0)):
                assert e == pytest.approx(want, abs=1e-9)
            assert tri.area == pytest.approx(target_area, abs=1e-9)
        assert rep_sq.value == pytest.approx(target_area, abs=1e-9)

        rep_cc = f_total(w4, CONC)
        want_cc = math.sqrt(2.0 / 3.0)
        assert rep_cc.value == pytest.approx(want_cc, abs=1e-9)
        s = math.sqrt(3.0) / 2.0
        oracle = coordinate_area_normalized(s, s, 1.0, 0.5)
        assert rep_cc.value == pytest.approx(oracle, abs=1e-9)


def test_criterion_2_appendix_c_reproduction(appendix_c_pure):
    with criterion(2, "appendix_c reproduction", 1.0):
        psi = appendix_c_pure
        for conv in BOTH:
            rep = f_total(psi, conv)
            assert rep.value == pytest.approx(0.0, abs=1e-6)
            flagged = {frozenset(z.vertex_labels)
                       for z in rep.zero_triangles}
            assert frozenset(((1,), (3,), (2, 4))) in flagged
            assert frozenset(((2,), (4,), (1, 3))) in flagged
        # the published 0.866 is the internal concurrence of the (3,4)
        # pair, visible as the pair's Wootters value and as the cuts
        # isolating party 3 or 4; the bipartition {3,4}|{1,2} itself
        # vanishes, consistently with the {1},{2},{3,4} factorization
        pair = wootters_concurrence(partial_trace(psi, (3, 4)))
        assert pair == pytest.approx(0.866, abs=5e-3)
        table = all_cut_concurrences(psi, 2)
        assert table.value((3,)) == pytest.approx(0.866, abs=5e-3)
        assert table.value((4,)) == pytest.approx(0.866, abs=5e-3)
        assert table.value((3, 4)) == pytest.approx(0.0, abs=1e-4)
        fact = finest_factorization(psi, tol=1e-3)
        assert fact.factors == ((1,), (2,), (3, 4))


def test_criterion_3_appendix_e_reproduction(appendix_e_rho):
    with criterion(3, "appendix_e reproduction", 1.0):
        vals, _ = hermitian_eig(appendix_e_rho)
        assert vals[0] == pytest.approx(0.75, abs=1e-3)
        assert vals[1] == pytest.approx(0.25, abs=1e-3)
        for pair in ((1, 2), (1, 3), (2, 3)):
            c = wootters_concurrence(partial_trace(appendix_e_rho, pair))
            assert c == pytest.approx(0.5, abs=5e-3)
        results = {conv.value: witness(appendix_e_rho, conv).value
                   for conv in BOTH}
        matching = [name for name, v in results.items()
                    if abs(v - 0.8034) <= 5e-3]
        assert matching, f"no convention matches 0.8034: {results}"
        rounded = {name: round(v, 6) for name, v in results.items()}
        record_acceptance(
            f"  criterion 3 note: witness 0.8034 reproduced under the "
            f"{matching[0]} convention (values: {rounded})")


def test_criterion_4_traced_appendix_c_witness(appendix_c_pure):
    with criterion(4, "witness of traced appendix_c", 1.0):
        rho = partial_trace(appendix_c_pure, (1, 2, 4))
        for conv in BOTH:
            rep = witness(rho, conv)
            assert rep.value == pytest.approx(0.0, abs=1e-6)


def test_criterion_5_polygamy_inequalities():
    with criterion(5, "polygamy inequality suite", 60.0):
        check_theorem1()


def test_criterion_6_locc_monotonicity():
    with criterion(6, "LOCC monotonicity", 120.0):
        check_locc_monotonicity()
        check_edge_monotonicity()


def test_criterion_7_five_party_level_equivalence():
    with criterion(7, "five-party level equivalence", 60.0):
        check_f5_equivalence()


def test_criterion_8_convex_roof_sanity():
    with criterion(8, "convex-roof sanity", 300.0):
        rho = DensityMatrix((2, 2, 2), ghz_000_mixture())
        result = convex_roof_upper_bound(rho, CONC,
                                         ConvexRoofConfig(seed=0))
        assert result.value <= result.spectral_value + 1e-9
        assert result.value == pytest.approx(GHZ_MIX_ROOF_REFERENCE,
                                             abs=2e-2)
        # effective two-qubit tangle roof gives exactly 9/16 analytically
        assert result.value == pytest.approx(9.0 / 16.0, abs=2e-3)
        assert decomposition_mixture_error(rho, result.decomposition) < 1e-7
        weights = [p for p, _ in result.decomposition.members]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        hist = result.history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
        classical = np.zeros((8, 8))
        classical[0, 0] = classical[7, 7] = 0.5
        trivial = convex_roof_upper_bound(
            DensityMatrix((2, 2, 2), classical), CONC,
            ConvexRoofConfig(restarts=4, seed=0))
        assert trivial.value <= 1e-6


def test_criterion_9_witness_gauge_invariance():
    with criterion(9, "witness gauge invariance", 10.0):
        check_witness_gauge()
