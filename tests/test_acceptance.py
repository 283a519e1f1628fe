"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line into the pytest terminal summary
(see conftest), with one note per check, and enforces its runtime
budget.  Criteria 1-7 and 9 are rows of one table over the ``trigme
selftest`` checks, so the campaign and the suite share one
implementation and one set of seeds.  Criterion 8 (the default roof
search against the grid oracle) and criterion 1's oracle cross-check
need ``tests/oracles.py``, so they stay here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trigme import (ConvexRoofConfig, DensityMatrix, EdgeConvention,
                    convex_roof_upper_bound, decomposition_mixture_error,
                    f_total, ghz_state, w_state)
from trigme.selftest import (check_appendix_c, check_appendix_e,
                             check_edge_monotonicity, check_f5_equivalence,
                             check_golden_pure, check_locc_monotonicity,
                             check_theorem1, check_traced_witness,
                             check_witness_gauge)

from conftest import record_acceptance
from oracles import (GHZ_MIX_ROOF_REFERENCE, coordinate_area_normalized,
                     ghz_000_mixture)

CONC = EdgeConvention.CONCURRENCE


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


def criterion_test(number: int, name: str, budget_s: float, *checks):
    """A test running ``checks`` as one criterion, each check's detail
    recorded as a note."""
    def test():
        with criterion(number, name, budget_s):
            for check in checks:
                record_acceptance(f"  criterion {number} note: {check()}")
    return test


def w4_matches_coordinate_oracle() -> str:
    s = math.sqrt(3.0) / 2.0
    oracle = coordinate_area_normalized(s, s, 1.0, 0.5)
    value = f_total(w_state(4), CONC).value
    assert value == pytest.approx(oracle, abs=1e-9)
    return f"W4 concurrence value {value:.12f} matches the coordinate oracle"


# One row per criterion: number, name, budget in seconds, checks.  Each
# row is bound to its own test name, so the test ids stay stable.
test_criterion_1_ghz_w_golden_values = criterion_test(
    1, "GHZ/W golden values", 1.0, check_golden_pure,
    w4_matches_coordinate_oracle)
test_criterion_2_appendix_c_reproduction = criterion_test(
    2, "appendix_c reproduction", 1.0, check_appendix_c)
test_criterion_3_appendix_e_reproduction = criterion_test(
    3, "appendix_e reproduction", 1.0, check_appendix_e)
test_criterion_4_traced_appendix_c_witness = criterion_test(
    4, "witness of traced appendix_c", 1.0, check_traced_witness)
test_criterion_5_polygamy_inequalities = criterion_test(
    5, "polygamy inequality suite", 60.0, check_theorem1)
test_criterion_6_locc_monotonicity = criterion_test(
    6, "LOCC monotonicity", 120.0, check_locc_monotonicity,
    check_edge_monotonicity)
test_criterion_7_five_party_level_equivalence = criterion_test(
    7, "five-party level equivalence", 60.0, check_f5_equivalence)
test_criterion_9_witness_gauge_invariance = criterion_test(
    9, "witness gauge invariance", 10.0, check_witness_gauge)


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
