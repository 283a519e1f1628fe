"""Mixed-state GME: purification witness and convex-roof upper bound.

The witness evaluates the pure-state measure on a minimal purification,
treating the reference system as party N+1.  The value is invariant
under unitaries on the reference system and under zero-padding of its
dimension, and a value of zero certifies the absence of GME.  A
positive value does not certify GME (classical mixtures of product
states can purify to GHZ-like states), and a rank-1 input degenerates
(its purification has a product reference party), so rank-1 states
bypass the construction and are scored directly.

The convex-roof estimator parameterizes size-m decompositions by m x r
matrices with orthonormal columns acting on the spectral ensemble;
every decomposition of rho arises this way.  The ensemble average is
minimized by derivative-free local search (Nelder-Mead over Givens
rotation angles and column phases) with random restarts.  The result
is an upper bound on the convex roof, never claimed optimal, and never
worse than the spectral decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import InternalInvariantError, ValidationError
from .states import DensityMatrix, PureState, hermitian_eig
from .triangles import EdgeConvention, GmeReport, ZERO_AREA_TOL, f_total, \
    gme_value

RANK_TOL = 1e-9
WEIGHT_FLOOR = 1e-12
MIXTURE_TOL = 1e-7

__all__ = [
    "Purification",
    "WitnessReport",
    "Decomposition",
    "ConvexRoofConfig",
    "ConvexRoofResult",
    "minimal_purification",
    "witness",
    "convex_roof_upper_bound",
    "decomposition_mixture_error",
]


@dataclass(frozen=True)
class Purification:
    """A pure state on dims + (r,) whose reference trace reproduces rho."""

    state: PureState
    reference_party: int
    eigenvalues: tuple[float, ...]

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)


def minimal_purification(rho: DensityMatrix,
                         rank_tol: float = RANK_TOL) -> Purification:
    """Spectral purification keeping eigenvalues above ``rank_tol``.

    The reference dimension equals the numerical rank; amplitudes are
    ``sqrt(l_k)`` on ``|v_k>|k>`` with the reference party appended as
    party N+1.
    """
    vals, vecs = hermitian_eig(rho, tol=rho.tol)
    kept = vals > rank_tol
    r = int(np.sum(kept))
    if r == 0:
        raise ValidationError(
            f"all eigenvalues below rank tolerance {rank_tol!r}")
    amps = (vecs[:, :r] * np.sqrt(vals[:r])).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    state = PureState(rho.dims + (r,), amps, tol=max(rho.tol, 1e-9))
    return Purification(state, rho.nparties + 1, tuple(float(v)
                                                       for v in vals[:r]))


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the purification witness."""

    value: float
    convention: EdgeConvention
    purification_rank: int
    pure_state_bypass: bool
    gme_detected: bool
    verdict: str
    report: GmeReport


def witness(rho: DensityMatrix,
            conv: EdgeConvention = EdgeConvention.CONCURRENCE,
            rank_tol: float = RANK_TOL) -> WitnessReport:
    """Purification witness: the pure measure on a minimal purification.

    Rank-1 inputs are pure states in disguise; their purification would
    carry a product reference party and always score zero, so they are
    scored directly with ``pure_state_bypass`` set.
    """
    if rho.nparties < 3:
        raise ValidationError(
            f"witness needs at least 3 parties, got {rho.nparties}")
    pur = minimal_purification(rho, rank_tol)
    if pur.rank == 1:
        vals, vecs = hermitian_eig(rho, tol=rho.tol)
        psi = PureState(rho.dims, vecs[:, 0] / np.linalg.norm(vecs[:, 0]),
                        tol=max(rho.tol, 1e-9))
        report = f_total(psi, conv)
        bypass = True
    else:
        report = f_total(pur.state, conv)
        bypass = False
    value = report.value
    detected = value > ZERO_AREA_TOL
    verdict = "GME detected" if detected else "no GME detected by witness"
    return WitnessReport(value, conv, pur.rank, bypass, detected, verdict,
                         report)


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state ensemble; weights sum to 1 within 1e-9."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.members:
            raise ValidationError("decomposition needs at least one member")
        total = math.fsum(p for p, _ in self.members)
        if any(p <= 0.0 for p, _ in self.members):
            raise ValidationError("decomposition weights must be positive")
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"decomposition weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.members)


def decomposition_mixture_error(rho: DensityMatrix,
                                decomp: Decomposition) -> float:
    """Max entrywise deviation of sum_i p_i |psi_i><psi_i| from rho."""
    mix = np.zeros_like(rho.entries)
    for p, psi in decomp.members:
        mix = mix + p * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return float(np.max(np.abs(mix - rho.entries)))


@dataclass(frozen=True)
class ConvexRoofConfig:
    """Search configuration for the convex-roof upper bound.

    ``ensemble_sizes`` defaults to (r, r+1, r+2) for rank r; every size
    must be at least r or no decomposition of that size exists.
    """

    ensemble_sizes: tuple[int, ...] | None = None
    restarts: int = 32
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        sizes = self.ensemble_sizes
        if sizes is not None and (not sizes or min(sizes) < 1):
            raise ValidationError(
                f"ensemble sizes must be >= 1, got {sizes!r}")
        for name, low in (("restarts", 0), ("max_iterations", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be >= {low}, got "
                                      f"{getattr(self, name)}")


@dataclass(frozen=True)
class ConvexRoofResult:
    """Upper bound on the convex roof together with its witness ensemble.

    ``history`` records the best value after each completed local
    search, so it is non-increasing.
    """

    value: float
    decomposition: Decomposition
    convention: EdgeConvention
    spectral_value: float
    history: tuple[float, ...] = field(repr=False)


def _givens_unitary(m: int, params: np.ndarray) -> np.ndarray:
    """Product of complex Givens rotations over all index pairs."""
    u = np.eye(m, dtype=complex)
    k = 0
    for p in range(m):
        for q in range(p + 1, m):
            th, ph = params[k], params[k + 1]
            k += 2
            c, s = math.cos(th), math.sin(th)
            e = complex(math.cos(ph), math.sin(ph))
            rot = np.eye(m, dtype=complex)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s * e
            rot[q, p] = -s * e.conjugate()
            u = u @ rot
    return u


def _isometry(m: int, r: int, params: np.ndarray) -> np.ndarray:
    """m x r matrix with orthonormal columns from rotation coordinates.

    Row phases of the isometry only rephase ensemble members, so the
    parameterization is Givens angles plus r column phases.
    """
    n_rot = m * (m - 1)
    u = _givens_unitary(m, params[:n_rot])[:, :r]
    phases = np.exp(1j * params[n_rot:n_rot + r])
    return u * phases


def _param_count(m: int, r: int) -> int:
    return m * (m - 1) + r


def _ensemble_members(sub: np.ndarray, iso: np.ndarray,
                      dims: tuple[int, ...],
                      tol: float) -> list[tuple[float, PureState]]:
    """Members (p_i, psi_i) of the decomposition induced by an isometry."""
    raw = sub @ iso.T  # column i = unnormalized member i
    out = []
    for i in range(raw.shape[1]):
        col = raw[:, i]
        p = float(np.real(np.vdot(col, col)))
        if p >= WEIGHT_FLOOR:
            out.append((p, PureState(dims, col / math.sqrt(p), tol=tol)))
    return out


def convex_roof_upper_bound(
        rho: DensityMatrix,
        conv: EdgeConvention = EdgeConvention.CONCURRENCE,
        config: ConvexRoofConfig | None = None,
        rank_tol: float = RANK_TOL) -> ConvexRoofResult:
    """Upper bound on the convex roof of the GME measure.

    Minimizes ``sum_i p_i F(psi_i)`` over parameterized pure-state
    decompositions of ``rho`` with random restarts; the spectral
    decomposition seeds the search, so the result never exceeds the
    spectral ensemble average.
    """
    if rho.nparties < 3:
        raise ValidationError(
            f"convex roof needs at least 3 parties, got {rho.nparties}")
    config = config or ConvexRoofConfig()

    vals, vecs = hermitian_eig(rho, tol=rho.tol)
    kept = vals > rank_tol
    r = int(np.sum(kept))
    if r == 0:
        raise ValidationError(
            f"all eigenvalues below rank tolerance {rank_tol!r}")
    lam = np.clip(vals[:r], 0.0, None)
    sub = vecs[:, :r] * np.sqrt(lam)  # column k = sqrt(l_k)|v_k>
    state_tol = max(rho.tol, 1e-9)

    sizes = config.ensemble_sizes or tuple(range(r, r + 3))
    for m in sizes:
        if m < r:
            raise ValidationError(
                f"ensemble size {m} < rank {r}: no such decomposition")

    def objective_members(members) -> float:
        return math.fsum(p * gme_value(psi, conv) for p, psi in members)

    def objective(params: np.ndarray, m: int) -> float:
        iso = _isometry(m, r, params)
        return objective_members(
            _ensemble_members(sub, iso, rho.dims, state_tol))

    # Spectral baseline: identity isometry at m = r.
    spectral_members = _ensemble_members(sub, np.eye(r, dtype=complex),
                                         rho.dims, state_tol)
    spectral_value = objective_members(spectral_members)

    best_value = spectral_value
    best = (r, np.zeros(_param_count(r, r)))
    history = [best_value]

    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(len(sizes) * config.restarts)
    idx = 0
    for m in sizes:
        nparams = _param_count(m, r)
        for _ in range(config.restarts):
            rng = np.random.default_rng(children[idx])
            idx += 1
            if best_value <= 1e-10:
                history.append(best_value)
                continue
            x0 = rng.uniform(0.0, 2.0 * math.pi, size=nparams)
            res = minimize(objective, x0, args=(m,), method="Nelder-Mead",
                           options={"maxiter": config.max_iterations,
                                    "xatol": 1e-7, "fatol": 1e-11,
                                    "adaptive": True})
            # require a margin above evaluation noise so the simpler
            # incumbent (e.g. the spectral ensemble) wins ties
            if res.fun < best_value - 1e-12:
                best_value = float(res.fun)
                best = (m, np.array(res.x))
            history.append(best_value)

    m_best, params_best = best
    members = _ensemble_members(sub, _isometry(m_best, r, params_best),
                                rho.dims, state_tol)
    decomp = Decomposition(tuple(members))
    err = decomposition_mixture_error(rho, decomp)
    if err > max(MIXTURE_TOL, 3.0 * rho.tol):
        raise InternalInvariantError(
            f"decomposition fails to reproduce the state: error {err!r}")
    return ConvexRoofResult(best_value, decomp, conv, spectral_value,
                            tuple(history))
