"""Bipartite concurrence across cuts of pure states, the two-qubit
Wootters concurrence, and checkers for the polygamy inequalities.

For a pure state and a bipartition S | S^c the concurrence is
``sqrt(2 * (1 - Tr(rho_S^2)))``; the radicand is clamped at zero since
purity can exceed 1 by rounding at the 1e-15 level.  Cut tables call
``concurrence_pure`` on the canonical cuts cached in ``_cut_plan``.
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


def _subset_purity(psi: PureState, keep0: list[int]) -> float:
    """Tr(rho_S^2) evaluated on the smaller side of the bipartition."""
    dk = math.prod(psi.dims[i] for i in keep0)
    side = (keep0 if dk <= psi.dim // dk
            else [i for i in range(psi.nparties) if i not in keep0])
    g = _pure_marginal(psi.amplitudes, psi.dims, side)
    return float(np.sum(np.abs(g) ** 2))


# cuts: canonical cuts by size, then lexicographically; index: either
# side as a sorted party tuple -> position in ``cuts``; levels:
# triangle-edge positions per level, filled in by ``triangles``.
_CutPlan = namedtuple("_CutPlan", "cuts index levels")


@lru_cache(maxsize=32)  # plans kept, one per number of parties
def _cut_plan(nparties: int) -> _CutPlan:
    cuts = tuple(dict.fromkeys(
        Cut.of(comb, nparties) for size in range(1, nparties // 2 + 1)
        for comb in combinations(range(1, nparties + 1), size)))
    index = {side: k for k, cut in enumerate(cuts)
             for side in (cut.parties, cut.complement)}
    return _CutPlan(cuts, index, {})


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
    keep0 = [p - 1 for p in c.parties]
    pur = _subset_purity(psi, keep0)
    return math.sqrt(max(0.0, 2.0 * (1.0 - pur)))


@dataclass(frozen=True)
class CutConcurrenceTable:
    """Concurrences for every canonical cut up to a subset size."""

    dims: tuple[int, ...]
    max_subset_size: int
    entries: dict[Cut, float]

    def value(self, subset) -> float:
        """Look up a cut given either side of the bipartition."""
        cut = (subset if isinstance(subset, Cut)
               else Cut.of(subset, len(self.dims)))
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
    """Concurrence of every canonical cut with |S| <= max_subset_size."""
    n = psi.nparties
    if not 1 <= max_subset_size <= n // 2:
        raise ValidationError(
            f"max_subset_size {max_subset_size} out of range 1..{n // 2}")
    entries = {cut: concurrence_pure(psi, cut) for cut in _cut_plan(n).cuts
               if len(cut.parties) <= max_subset_size}
    return CutConcurrenceTable(psi.dims, max_subset_size, entries)


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
    """Evaluate every polygamy inequality slack for a pure state."""
    n = psi.nparties
    if n < 3:
        raise ValidationError("polygamy checks need at least 3 parties")

    single_purity = {i: _subset_purity(psi, [i - 1]) for i in range(1, n + 1)}
    pair_purity = {(i, j): _subset_purity(psi, [i - 1, j - 1])
                   for i, j in combinations(range(1, n + 1), 2)}

    conc = {i: math.sqrt(max(0.0, 2.0 * (1.0 - single_purity[i])))
            for i in range(1, n + 1)}
    conc_sq = {i: conc[i] ** 2 for i in conc}

    squared = {i: sum(conc_sq[j] for j in conc_sq if j != i) - conc_sq[i]
               for i in range(1, n + 1)}
    plain = {i: sum(conc[j] for j in conc if j != i) - conc[i]
             for i in range(1, n + 1)}

    lin_ent = {}
    for (i, j), pp in pair_purity.items():
        t_i = 1.0 - single_purity[i]
        t_j = 1.0 - single_purity[j]
        t_ij = 1.0 - pp
        lin_ent[(i, j)] = (t_ij - abs(t_i - t_j), t_i + t_j - t_ij)

    triangle = {}
    for (i, j), pp in pair_purity.items():
        c_ij = math.sqrt(max(0.0, 2.0 * (1.0 - pp)))
        triangle[(i, j)] = (conc[i] + conc[j] - c_ij,
                            c_ij + conc[j] - conc[i],
                            c_ij + conc[i] - conc[j])

    return PolygamyReport(lin_ent, squared, plain, triangle)
