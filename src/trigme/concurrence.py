"""Bipartite concurrence across cuts of pure states, the two-qubit
Wootters concurrence, and checkers for the polygamy inequalities.

For a pure state and a bipartition S | S^c the concurrence is
``sqrt(2 * (1 - Tr(rho_S^2)))``; the radicand is clamped at zero since
purity can exceed 1 by rounding at the 1e-15 level.  Cut tables call
``concurrence_pure`` on the canonical cuts cached in ``_cut_plan``, once
per state and cut: the state keeps the values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ValidationError
from .states import Cut, DensityMatrix, PureState, _pure_marginal

SLACK_TOL = 1e-9

__all__ = [
    "CutConcurrenceTable",
    "PolygamyReport",
    "concurrence_pure",
    "all_cut_concurrences",
    "wootters_concurrence",
    "check_polygamy",
    "SLACK_TOL",
]

_SIGMA_YY = np.array([[0, 0, 0, -1],
                      [0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [-1, 0, 0, 0]], dtype=complex)


def _smaller_side(dims: tuple[int, ...], keep0: list[int]) -> list[int]:
    """The side of the bipartition with the smaller marginal (ties keep
    ``keep0``)."""
    dk = math.prod(dims[i] for i in keep0)
    return (keep0 if dk <= math.prod(dims) // dk
            else [i for i in range(len(dims)) if i not in keep0])


def _subset_purity(amps: np.ndarray, dims: tuple[int, ...],
                   keep0: list[int]):
    """Tr(rho_S^2) evaluated on the smaller side of the bipartition.

    A float for one state, or an array over the leading batch axes of
    a stack of states (..., D).
    """
    g = _pure_marginal(amps, dims, _smaller_side(dims, keep0))
    pur = (np.abs(g) ** 2).sum(axis=(-2, -1))
    return float(pur) if amps.ndim == 1 else pur


# cuts: canonical cuts by size, then lexicographically; index: either
# side as a sorted party tuple -> position in ``cuts``; ends[s]: the
# number of cuts with |S| <= s.
_CutPlan = namedtuple("_CutPlan", "cuts index ends")


@lru_cache(maxsize=32)  # plans kept, one per number of parties
def _cut_plan(nparties: int) -> _CutPlan:
    cuts = tuple(dict.fromkeys(
        Cut.of(comb, nparties) for size in range(1, nparties // 2 + 1)
        for comb in combinations(range(1, nparties + 1), size)))
    index = {side: k for k, cut in enumerate(cuts)
             for side in (cut.parties, cut.complement)}
    ends = tuple(sum(len(cut.parties) <= s for cut in cuts)
                 for s in range(nparties // 2 + 1))
    return _CutPlan(cuts, index, ends)


def concurrence_pure(psi: PureState, cut) -> float:
    """Concurrence of a pure state across a bipartition.

    Parameters
    ----------
    psi : PureState
    cut : Cut or iterable of int
        Either side of the bipartition; the value is symmetric under
        swapping S and its complement.
    """
    c = cut if isinstance(cut, Cut) else Cut.of(cut, psi.nparties)
    if c.nparties != psi.nparties:
        raise ValidationError(
            f"cut is over {c.nparties} parties, state has {psi.nparties}")
    pur = _subset_purity(psi.amplitudes, psi.dims, [p - 1 for p in c.parties])
    return math.sqrt(max(0.0, 2.0 * (1.0 - pur)))


@dataclass(frozen=True)
class CutConcurrenceTable:
    """Concurrences for every canonical cut up to a subset size."""

    dims: tuple[int, ...]
    max_subset_size: int
    entries: dict[Cut, float]

    def value(self, subset) -> float:
        """Look up a cut given either side of the bipartition."""
        n = len(self.dims)
        cut = subset if isinstance(subset, Cut) else Cut.of(subset, n)
        if cut.nparties != n:
            raise ValidationError(
                f"cut is over {cut.nparties} parties, table has {n}")
        try:
            return self.entries[cut]
        except KeyError:
            raise ValidationError(
                f"cut {cut.parties} exceeds enumerated size "
                f"{self.max_subset_size}") from None

    def __len__(self) -> int:
        return len(self.entries)


def all_cut_concurrences(psi: PureState,
                         max_subset_size: int) -> CutConcurrenceTable:
    """Concurrence of every canonical cut with |S| <= max_subset_size.

    The state keeps the values in plan order, which is by subset size:
    a later table reads them and computes only the cuts it lacks.
    """
    n = psi.nparties
    if not 1 <= max_subset_size <= n // 2:
        raise ValidationError(
            f"max_subset_size {max_subset_size} out of range 1..{n // 2}")
    plan = _cut_plan(n)
    end = plan.ends[max_subset_size]
    kept = psi._cut_values
    start = len(kept)
    if start < end:
        # a slice write, not an append: a thread that filled the same
        # positions meanwhile wrote the same values
        kept[start:end] = [concurrence_pure(psi, cut)
                           for cut in plan.cuts[start:end]]
    return CutConcurrenceTable(psi.dims, max_subset_size,
                               dict(zip(plan.cuts, kept[:end])))


@lru_cache(maxsize=32)  # one per dims
def _cut_groups(dims: tuple[int, ...]) -> tuple:
    """Canonical cuts grouped by the shape (dk, dr) of the marginal on
    their smaller side: per group, the cuts' plan positions, a gather
    index (g, D) that puts each cut's smaller side first, and the shape.
    """
    order = np.arange(math.prod(dims)).reshape(dims)
    groups = {}
    for k, cut in enumerate(_cut_plan(len(dims)).cuts):
        side = _smaller_side(dims, [p - 1 for p in cut.parties])
        rest = [i for i in range(len(dims)) if i not in side]
        dk = math.prod(dims[i] for i in side)
        ks, index = groups.setdefault((dk, order.size // dk), ([], []))
        ks.append(k)
        index.append(order.transpose(side + rest).reshape(-1))
    out = tuple((np.array(ks), np.array(index), shape)
                for shape, (ks, index) in groups.items())
    for ks, index, _ in out:  # shared by every caller, like the plan
        ks.setflags(write=False)
        index.setflags(write=False)
    return out


def _cut_concurrences(amps: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Concurrences (m, K) of every canonical cut, in plan order, for
    each row of a stack of validated states (m, D).

    Each group of equal-shape cuts is one batched marginal over the
    gathered rows (m, g, D) seen as states of dims (dk, dr); every entry
    equals ``concurrence_pure`` of its row and cut bit for bit.
    """
    pur = np.empty((len(amps), len(_cut_plan(len(dims)).cuts)))
    for ks, index, shape in _cut_groups(dims):
        pur[:, ks] = _subset_purity(amps[:, index], shape, [0])
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - pur)))


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence.

    ``max(0, l1 - l2 - l3 - l4)`` where the ``l_k`` are the descending
    square roots of the eigenvalues of
    ``rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y)``; they are
    computed as the singular values of
    ``sqrt(rho) (sigma_y x sigma_y) sqrt(rho)*``, which is the same set
    but avoids the accuracy loss of a non-Hermitian eigensolve near
    zero eigenvalues.
    """
    if rho.dims != (2, 2):
        raise ValidationError(
            f"wootters_concurrence needs dims (2, 2), got {rho.dims}")
    vals, vecs = np.linalg.eigh(
        (rho.entries + rho.entries.conj().T) / 2.0)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lams = np.linalg.svd(root @ _SIGMA_YY @ root.conj(),
                         compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


@dataclass(frozen=True)
class PolygamyReport:
    """Slacks of the entanglement-distribution inequalities.

    All slacks are nonnegative (within ``SLACK_TOL``) for every valid
    pure state.

    Attributes
    ----------
    linear_entropy_slacks : dict
        Per unordered party pair ``(i, j)``: slacks of
        ``|T_i - T_j| <= T_ij`` and ``T_ij <= T_i + T_j`` on the
        two-party marginal.
    squared_slacks : dict
        Per party i: ``sum_{j != i} C_j^2 - C_i^2``.
    plain_slacks : dict
        Per party i: ``sum_{j != i} C_j - C_i``.
    triangle_slacks : dict
        Per unordered pair ``(i, j)``: the three triangle inequalities
        on the edges ``(C_i, C_j, C_{ij})``.
    """

    linear_entropy_slacks: dict[tuple[int, int], tuple[float, float]]
    squared_slacks: dict[int, float]
    plain_slacks: dict[int, float]
    triangle_slacks: dict[tuple[int, int], tuple[float, float, float]]

    def all_slacks(self) -> list[float]:
        out: list[float] = []
        for pair in self.linear_entropy_slacks.values():
            out.extend(pair)
        out.extend(self.squared_slacks.values())
        out.extend(self.plain_slacks.values())
        for triple in self.triangle_slacks.values():
            out.extend(triple)
        return out

    @property
    def min_slack(self) -> float:
        return min(self.all_slacks())

    @property
    def all_hold(self) -> bool:
        return self.min_slack >= -SLACK_TOL


def check_polygamy(psi: PureState) -> PolygamyReport:
    """Evaluate every polygamy inequality slack for a pure state.

    Reads the cut table up to pairs; the linear entropy
    ``1 - Tr(rho_S^2)`` of a side S is ``C_S^2 / 2``.
    """
    n = psi.nparties
    if n < 3:
        raise ValidationError("polygamy checks need at least 3 parties")
    table = all_cut_concurrences(psi, min(2, n // 2))
    conc = {i: table.value((i,)) for i in range(1, n + 1)}
    conc_sq = {i: c * c for i, c in conc.items()}

    squared = {i: sum(conc_sq[j] for j in conc_sq if j != i) - conc_sq[i]
               for i in conc}
    plain = {i: sum(conc[j] for j in conc if j != i) - conc[i]
             for i in conc}

    lin_ent, triangle = {}, {}
    for i, j in combinations(conc, 2):
        c_ij = table.value((i, j))
        t_i, t_j, t_ij = conc_sq[i] / 2, conc_sq[j] / 2, c_ij * c_ij / 2
        lin_ent[(i, j)] = (t_ij - abs(t_i - t_j), t_i + t_j - t_ij)
        triangle[(i, j)] = (conc[i] + conc[j] - c_ij,
                            c_ij + conc[j] - conc[i],
                            c_ij + conc[i] - conc[j])

    return PolygamyReport(lin_ent, squared, plain, triangle)
