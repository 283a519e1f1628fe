"""The in-house Nelder-Mead of the convex roof against scipy's.

``trigme.mixed.minimize`` does the arithmetic of scipy's adaptive
Nelder-Mead in the same order, so every result must be equal bit for
bit.  scipy is only a test dependency, the reference compared against.
"""

import math

import numpy as np
import pytest

from trigme import EdgeConvention
from trigme.mixed import (FATOL, XATOL, _ensemble_values, _isometry,
                          _param_count, _spectrum, minimize)
from test_golden import ROOF_CASES

scipy_optimize = pytest.importorskip("scipy.optimize")


def assert_matches_scipy(fun, x0, max_iterations):
    ours = minimize(fun, x0, max_iterations)
    ref = scipy_optimize.minimize(
        fun, x0, method="Nelder-Mead",
        options={"maxiter": max_iterations, "xatol": XATOL, "fatol": FATOL,
                 "adaptive": True})
    assert np.array_equal(ours.x, ref.x)
    assert (ours.fun, ours.nit, ours.nfev, ours.success) == \
        (ref.fun, ref.nit, ref.nfev, ref.success)
    return ours


def roof_objective(rho, m: int, conv: EdgeConvention):
    spec = _spectrum(rho)
    r = spec.rank
    sub = spec.vectors[:, :r] * np.sqrt(spec.values[:r])
    tol = spec.cut

    def objective(params):
        [value] = _ensemble_values(sub, [_isometry(m, r, params)], rho.dims,
                                   tol, conv)
        return value

    return objective, _param_count(m, r)


@pytest.mark.parametrize("conv", list(EdgeConvention))
@pytest.mark.parametrize("label", sorted(ROOF_CASES))
def test_roof_searches_match_scipy(label, conv):
    make_rho, _, seed = ROOF_CASES[label]
    rho = make_rho()
    r = _spectrum(rho).rank
    for m in range(r, r + 3):
        fun, nparams = roof_objective(rho, m, conv)
        x0 = np.random.default_rng(seed + m).uniform(0.0, 2.0 * math.pi,
                                                     nparams)
        assert_matches_scipy(fun, x0, 300)


def test_search_capped_at_max_iterations_is_not_a_success():
    make_rho, _, seed = ROOF_CASES["ghz000-mix"]
    fun, nparams = roof_objective(make_rho(), 2, EdgeConvention.CONCURRENCE)
    x0 = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, nparams)
    res = assert_matches_scipy(fun, x0, 100)
    assert res.nit == 100 and not res.success


def test_flat_bottom_ties_shrink_every_iteration():
    # inside the unit ball every vertex scores 0: each iteration reflects,
    # contracts inside, finds no improvement and shrinks
    def flat(x):
        return max(float(x @ x) - 1.0, 0.0)

    x0 = np.array([0.1, 0.0, -0.2, 0.3, 0.0])
    res = assert_matches_scipy(flat, x0, 500)
    n = len(x0)
    assert res.success and res.fun == 0.0
    assert res.nfev == (n + 1) + (res.nit - 1) * (n + 2)


def test_staircase_with_ties_matches_scipy():
    def stairs(x):
        return math.floor(8.0 * float((x - 1.0) @ (x - 1.0))) / 8.0

    for seed in range(3):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 4)
        assert_matches_scipy(stairs, x0, 400)
