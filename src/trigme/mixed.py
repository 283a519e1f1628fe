"""Mixed-state GME: purification witness and convex-roof upper bound.

The witness evaluates the pure-state measure on a minimal purification,
treating the reference system as party N+1.  The value is invariant
under unitaries on the reference system and under zero-padding of its
dimension, and a value of zero certifies the absence of GME.  A
positive value alone does not certify GME (classical mixtures of
product states can purify to GHZ-like states), so above rank 1 GME is
reported only with a fidelity-witness certificate.  A rank-1 input
degenerates (its purification has a product reference party), so
rank-1 states bypass the construction and are scored directly.

The convex-roof estimator parameterizes size-m decompositions by m x r
matrices with orthonormal columns acting on the spectral ensemble;
every decomposition of rho arises this way.  The ensemble average is
minimized by derivative-free local search (an in-house adaptive
Nelder-Mead over Givens rotation angles and column phases) with random
restarts; the searches of one restart index, one per ensemble size,
advance together and share one objective pass per round.  The result is
an upper bound on the convex roof, never claimed optimal, and never
worse than the spectral decomposition.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .concurrence import _cut_plan, _smaller_side
from .errors import InternalInvariantError, ValidationError
from .states import DensityMatrix, PureState, _check_rows, _pure_marginal, \
    hermitian_eig
from .triangles import EdgeConvention, GmeReport, ZERO_AREA_TOL, \
    _gme_values, f_total, gme_value

RANK_TOL = 1e-9
WEIGHT_FLOOR = 1e-12
MIXTURE_TOL = 1e-7
INCONCLUSIVE = "inconclusive: witness positive, no GME certificate"

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


# Every eigenpair, eigenvalues descending; the rank counts those above
# ``cut``, and ``pure`` is the state itself at rank 1, else None.
Spectrum = namedtuple("Spectrum", "values vectors rank cut pure")


def _spectrum(rho: DensityMatrix | PureState) -> Spectrum:
    """The rank rule: the eigenvalues above max(rho.tol, RANK_TOL) count;
    a PureState is its own rank-1 spectrum."""
    cut = max(rho.tol, RANK_TOL)
    if isinstance(rho, PureState):
        return Spectrum(np.ones(1), rho.amplitudes[:, None], 1, cut, rho)
    vals, vecs = hermitian_eig(rho)
    rank = int(np.sum(vals > cut))
    if rank == 0:
        raise ValidationError(f"all eigenvalues below rank tolerance {cut!r}")
    pure = None if rank > 1 else PureState(
        rho.dims, vecs[:, 0] / np.linalg.norm(vecs[:, 0]), tol=cut)
    return Spectrum(vals, vecs, rank, cut, pure)


def _purify(rho: DensityMatrix | PureState, spec: Spectrum) -> Purification:
    vals, vecs = spec.values[:spec.rank], spec.vectors[:, :spec.rank]
    amps = (vecs * np.sqrt(vals)).reshape(-1)
    state = PureState(rho.dims + (spec.rank,), amps / np.linalg.norm(amps),
                      tol=spec.cut)
    return Purification(state, rho.nparties + 1, tuple(vals.tolist()))


def minimal_purification(rho: DensityMatrix | PureState) -> Purification:
    """Spectral purification keeping eigenvalues above max(rho.tol, 1e-9).

    The reference dimension equals the numerical rank; amplitudes are
    ``sqrt(l_k)`` on ``|v_k>|k>`` with the reference party appended as
    party N+1.  A PureState is its own rank-1 spectrum.
    """
    return _purify(rho, _spectrum(rho))


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


def witness(rho: DensityMatrix | PureState,
            conv: EdgeConvention = EdgeConvention.CONCURRENCE,
            ) -> WitnessReport:
    """Purification witness: the pure measure on a minimal purification.

    The rank counts the eigenvalues above ``max(rho.tol, 1e-9)``.
    Rank-1 inputs are pure states; their purification would carry a
    product reference party and always score zero, so they are scored
    directly with ``pure_state_bypass`` set (a PureState as given).

    A value at most ``ZERO_AREA_TOL`` reports no GME.  A positive value
    reports GME at rank 1, where it is exact, and above rank 1 only when
    ``_certified`` holds; otherwise the verdict is inconclusive.
    """
    if rho.nparties < 3:
        raise ValidationError(
            f"witness needs at least 3 parties, got {rho.nparties}")
    spec = _spectrum(rho)
    bypass = spec.pure is not None
    psi = spec.pure if bypass else _purify(rho, spec).state
    report = f_total(psi, conv)
    if report.value <= ZERO_AREA_TOL:
        detected, verdict = False, "no GME detected by witness"
    elif bypass or _certified(rho, spec):
        detected, verdict = True, "GME detected"
    else:
        detected, verdict = False, INCONCLUSIVE
    return WitnessReport(report.value, conv, spec.rank, bypass, detected,
                         verdict, report)


def _certified(rho: DensityMatrix, spec: Spectrum) -> bool:
    """Whether the fidelity witness ``alpha * 1 - |psi><psi|`` on the
    dominant eigenvector psi proves rho GME (Bourennane et al., PRL 92,
    087902 (2004); Guhne and Toth, Phys. Rep. 474, 1 (2009)).

    alpha, psi's largest squared Schmidt coefficient over every cut,
    bounds the fidelity of every biseparable state with psi.  rho's
    fidelity ``values[0]`` must exceed it by more than ``cut``, the
    eigenvalue error both sides carry.
    """
    psi, dims = spec.vectors[:, 0], rho.dims
    alpha = max(
        np.linalg.eigvalsh(_pure_marginal(
            psi, dims, _smaller_side(dims, [p - 1 for p in cut.parties])))[-1]
        for cut in _cut_plan(len(dims)).cuts)
    return spec.values[0] - alpha > spec.cut


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state ensemble over one list of dims; the weights
    sum to 1 within ``max(1e-9, largest member tol)``."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.members:
            raise ValidationError("decomposition needs at least one member")
        dims = self.members[0][1].dims
        for _, psi in self.members:
            if psi.dims != dims:
                raise ValidationError(
                    f"decomposition members have dims {dims} and {psi.dims}")
        total = math.fsum(p for p, _ in self.members)
        if any(p <= 0.0 for p, _ in self.members):
            raise ValidationError("decomposition weights must be positive")
        if abs(total - 1.0) > max(RANK_TOL, *(s.tol for _, s in self.members)):
            raise ValidationError(
                f"decomposition weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.members)


def decomposition_mixture_error(rho: DensityMatrix | PureState,
                                decomp: Decomposition) -> float:
    """Max entrywise deviation of sum_i p_i |psi_i><psi_i| from rho."""
    dims = decomp.members[0][1].dims
    if dims != rho.dims:
        raise ValidationError(
            f"decomposition dims {dims} differ from the state's {rho.dims}")
    target = (rho.entries if isinstance(rho, DensityMatrix)
              else np.outer(rho.amplitudes, rho.amplitudes.conj()))
    mix = np.zeros_like(target)
    for p, psi in decomp.members:
        mix = mix + p * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return float(np.max(np.abs(mix - target)))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if sizes is not None and not (isinstance(sizes, (tuple, list))
                                      and all(map(_is_int, sizes))):
            raise ValidationError(
                f"ensemble_sizes must be a tuple of integers, got {sizes!r}")
        if sizes is not None and (not sizes or min(sizes) < 1):
            raise ValidationError(
                f"ensemble sizes must be >= 1, got {sizes!r}")
        for name, low in (("restarts", 0), ("max_iterations", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValidationError(
                    f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")


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


def _isometry(m: int, r: int, params: np.ndarray) -> np.ndarray:
    """m x r matrix with orthonormal columns from rotation coordinates:
    the first r columns of the product of complex Givens rotations, one
    (angle, phase) pair per index pair p < q in order, times r column
    phases (row phases only rephase members).  A rotation with p >= r
    mixes only dropped columns, so it is skipped."""
    u = np.eye(m, dtype=complex)
    rot = np.eye(m, dtype=complex)  # reset to the identity after each use
    angles = params.tolist()
    k = 0
    for p in range(r):
        for q in range(p + 1, m):
            th, ph = angles[k], angles[k + 1]
            k += 2
            c, s = math.cos(th), math.sin(th)
            e = complex(math.cos(ph), math.sin(ph))
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s * e
            rot[q, p] = -s * e.conjugate()
            u = u @ rot
            rot[p, p] = rot[q, q] = 1.0
            rot[p, q] = rot[q, p] = 0.0
    n_rot = m * (m - 1)
    return u[:, :r] * np.exp(1j * params[n_rot:n_rot + r])


def _param_count(m: int, r: int) -> int:
    return m * (m - 1) + r


XATOL = 1e-7
FATOL = 1e-11
NONZDELT = 0.05  # relative offset of each axis vertex of the first simplex
ZDELT = 0.00025  # its absolute offset where the coordinate is zero

MinimizeResult = namedtuple("MinimizeResult", "x fun nit nfev success")


def _nelder_mead(x0: np.ndarray, max_iterations: int):
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 259
    (2012)) from the axis simplex around ``x0``, as a generator.

    It yields each batch of points (k, n) it needs, is sent their k
    values, and returns a ``MinimizeResult``.  The caller scores the
    points before it resumes the search, which may overwrite them.  The
    arithmetic is that of ``scipy.optimize.minimize(fun, x0,
    method="Nelder-Mead", options={"maxiter": max_iterations, "xatol":
    XATOL, "fatol": FATOL, "adaptive": True})`` in scipy 1.17's order, so
    every result is the same bit for bit.  ``success`` is False when the
    search stopped at ``max_iterations`` before the simplex shrank below
    XATOL and its values spread less than FATOL.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    axes = np.arange(n)
    sim[axes + 1, axes] = np.where(x0 != 0, (1 + NONZDELT) * x0, ZDELT)
    fsim = np.array((yield sim), dtype=float)
    nfev = n + 1
    for _ in range(2):  # scipy sorts twice here; ties may swap each time
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    nit = 1
    while nit < max_iterations:
        if (np.max(np.abs(sim[1:] - sim[0])) <= XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL):
            break
        xbar = sim[:-1].sum(0) / n
        xr = 2 * xbar - sim[-1]
        [fxr] = yield xr[None]
        nfev += 1
        step = None
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            [fxe] = yield xe[None]
            nfev += 1
            step = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            step = (xr, fxr)
        elif fxr < fsim[-1]:  # outside contraction
            xc = (1 + psi) * xbar - psi * sim[-1]
            [fxc] = yield xc[None]
            nfev += 1
            if fxc <= fxr:
                step = (xc, fxc)
        else:  # inside contraction
            xcc = (1 - psi) * xbar + psi * sim[-1]
            [fxcc] = yield xcc[None]
            nfev += 1
            if fxcc < fsim[-1]:
                step = (xcc, fxcc)
        if step is None:  # shrink towards the best vertex
            sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
            fsim[1:] = yield sim[1:]
            nfev += n
        else:
            sim[-1], fsim[-1] = step
        nit += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return MinimizeResult(sim[0], np.min(fsim), nit, nfev,
                          nit < max_iterations)


def minimize(fun, x0: np.ndarray, max_iterations: int) -> MinimizeResult:
    """``_nelder_mead`` with every point scored by ``fun`` in turn."""
    [(_, result)] = _lockstep({0: (None, _nelder_mead(x0, max_iterations))},
                              lambda batch: [fun(x) for _, x in batch])
    return result


def _lockstep(searches: dict, score):
    """Advance the ``_nelder_mead`` searches ``{key: (m, search)}``
    together, one ``score`` call per round on the (m, point) pairs every
    live search is waiting for; yields (key, result) as each finishes."""
    pending = {key: next(search) for key, (_, search) in searches.items()}
    while pending:
        values = iter(score([(searches[key][0], x)
                             for key, points in pending.items()
                             for x in points]))
        for key, points in list(pending.items()):
            sent = [next(values) for _ in points]
            try:
                pending[key] = searches[key][1].send(sent)
            except StopIteration as done:
                del pending[key]
                yield key, done.value


_ROW_BUDGET = 2 ** 16  # member rows x cuts x D per objective pass


def _ensemble(sub: np.ndarray, iso: np.ndarray
              ) -> tuple[list[float], np.ndarray]:
    """Weights p_i and the stack (m, D) of normalized members psi_i of
    the decomposition induced by an isometry, not yet checked."""
    raw = (sub @ iso.T).T  # row i = unnormalized member i
    weights = [float(np.vdot(row, row).real) for row in raw]
    kept = [i for i, p in enumerate(weights) if p >= WEIGHT_FLOOR]
    weights = [weights[i] for i in kept]
    return weights, raw[kept] / np.sqrt(weights)[:, None]


def _ensemble_values(sub: np.ndarray, isometries: list[np.ndarray],
                     dims: tuple[int, ...], tol: float,
                     conv: EdgeConvention) -> list[float]:
    """``sum_i p_i F(psi_i)`` over the decomposition induced by each
    isometry; equal bit for bit to the sum of ``gme_value`` over
    ``_ensemble_members``.

    The members of consecutive isometries are checked and scored
    together, in passes of at most max(largest size, _ROW_BUDGET //
    (cuts x D)) rows; each isometry's members are built on their own,
    since one product over the stacked isometries may round differently.
    """
    cap = max(max(map(len, isometries)), _ROW_BUDGET // (
        len(_cut_plan(len(dims)).cuts) * math.prod(dims)))
    passes, rows = [[]], 0
    for iso in isometries:
        if rows + len(iso) > cap:
            passes.append([])
            rows = 0
        passes[-1].append(iso)
        rows += len(iso)
    values: list[float] = []
    for chunk in passes:
        ensembles = [_ensemble(sub, iso) for iso in chunk]
        members = np.concatenate([block for _, block in ensembles])
        _check_rows(dims, members, tol)
        scores = iter(_gme_values(members, dims, conv))
        # zip draws the weight first, so it stops at the ensemble's end
        values.extend(math.fsum(p * v for p, v in zip(weights, scores))
                      for weights, _ in ensembles)
    return values


def _ensemble_members(sub: np.ndarray, iso: np.ndarray,
                      dims: tuple[int, ...],
                      tol: float) -> list[tuple[float, PureState]]:
    """Members (p_i, psi_i) of the decomposition induced by an isometry."""
    weights, members = _ensemble(sub, iso)
    return [(p, PureState(dims, psi, tol=tol))
            for p, psi in zip(weights, members)]


def convex_roof_upper_bound(
        rho: DensityMatrix | PureState,
        conv: EdgeConvention = EdgeConvention.CONCURRENCE,
        config: ConvexRoofConfig | None = None) -> ConvexRoofResult:
    """Upper bound on the convex roof of the GME measure.

    Minimizes ``sum_i p_i F(psi_i)`` over parameterized pure-state
    decompositions of ``rho`` with random restarts; the spectral
    decomposition seeds the search, so the result never exceeds the
    spectral ensemble average.  Eigenvalues above ``max(rho.tol, 1e-9)``
    make the rank, and the members carry that tolerance.  At rank 1 the
    decomposition is the spectrum's pure state at weight 1, as the
    witness scores it, with no search, so the bound is its ``gme_value``
    exactly; a PureState is that state itself and is not checked, and
    every other decomposition is checked against ``rho`` entry by entry.
    """
    if rho.nparties < 3:
        raise ValidationError(
            f"convex roof needs at least 3 parties, got {rho.nparties}")
    config = config or ConvexRoofConfig()

    spec = _spectrum(rho)
    r = spec.rank
    sub = spec.vectors[:, :r] * np.sqrt(spec.values[:r])  # sqrt(l_k)|v_k>

    sizes = config.ensemble_sizes or tuple(range(r, r + 3))
    for m in sizes:
        if m < r:
            raise ValidationError(
                f"ensemble size {m} < rank {r}: no such decomposition")

    def score(batch: list) -> list[float]:
        return _ensemble_values(sub, [_isometry(m, r, x) for m, x in batch],
                                rho.dims, spec.cut, conv)

    # Spectral baseline, checked before any search (its weights decide the
    # refusal): the eigen-ensemble, at rank 1 the pure state at weight 1.
    decomp = Decomposition(tuple(
        [(1.0, spec.pure)] if spec.pure is not None
        else _ensemble_members(sub, np.eye(r), rho.dims, spec.cut)))
    spectral_value = best_value = math.fsum(
        p * gme_value(psi, conv) for p, psi in decomp.members)
    history = [best_value]

    # Search k = s * restarts + i starts from the k-th child seed of
    # config.seed, spawned as it starts; the searches of restart i, one
    # per size, run together, and the fold, in size-major order, keeps
    # the winner's isometry arguments.
    restarts = config.restarts
    total = len(sizes) * restarts
    finished, winner = {}, None
    for i in range(restarts):
        # a zero incumbent never rises, and every decomposition of a
        # rank-1 state is the state itself: no search can improve
        if r == 1 or best_value <= 1e-10:
            break
        searches = {}
        for k in range(i, total, restarts):
            m = sizes[k // restarts]
            x0 = np.random.default_rng(np.random.SeedSequence(
                config.seed, spawn_key=(k,))).uniform(
                0.0, 2.0 * math.pi, size=_param_count(m, r))
            searches[k] = (m, _nelder_mead(x0, config.max_iterations))
        for k, res in _lockstep(searches, score):
            finished[k] = res
            while (j := len(history) - 1) in finished:  # fold the prefix
                done = finished.pop(j)
                # require a margin above evaluation noise so the simpler
                # incumbent (e.g. the spectral ensemble) wins ties
                if done.fun < best_value - 1e-12:
                    best_value = float(done.fun)
                    winner = (sizes[j // restarts], r, done.x)
                history.append(best_value)
            if best_value <= 1e-10:  # every later search is dropped
                break
    # a skipped or dropped search keeps the incumbent
    history.extend([best_value] * (1 + total - len(history)))
    if winner is not None:
        decomp = Decomposition(tuple(_ensemble_members(
            sub, _isometry(*winner), rho.dims, spec.cut)))
    err = 0.0 if spec.pure is rho else decomposition_mixture_error(rho, decomp)
    # rho is reproduced up to the eigenvalues the rank cut dropped, whose
    # weight a rank-1 member at weight 1 carries as well
    dropped = math.fsum(np.abs(spec.values[r:]).tolist())
    if err > max(MIXTURE_TOL, 3.0 * rho.tol, dropped):
        raise InternalInvariantError(
            f"decomposition fails to reproduce the state: error {err!r}")
    return ConvexRoofResult(best_value, decomp, conv, spectral_value,
                            tuple(history))
