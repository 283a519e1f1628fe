"""Triangle-area genuine multipartite entanglement measures.

A tripartition X | Y | Z of the parties defines a concurrence triangle
whose edges are the concurrences of the three cuts X|YZ, Y|XZ, Z|XY.
The normalized area is ``[(16/3) Q (Q-a)(Q-b)(Q-c)]**e`` with Q the
half-perimeter.  Two edge conventions are supported:

* ``CONCURRENCE`` (default): edges are concurrences and e = 1/2.
* ``SQUARED``: edges are squared concurrences and e = 1/4.

The polygamy inequalities guarantee the triangle inequality for the
edges under both conventions, so a breach beyond tolerance signals an
upstream bug and raises; one kernel judges and measures every triangle.

The level-l measure geometrically averages the areas of all tripartitions
``{i} | S | rest`` with |S| = l over ordered pairs (i, S); the total
measure averages the levels ``1 .. floor((N-2)/2)``.  Values are never
clamped from above: areas can exceed 1 for subset-vs-rest cuts of high
local dimension, and such triangles are inventoried instead.

All measures share one engine: a vectorised pass per level over edge
positions kept in the cached level plan, with scalar powers, logs and
``math.fsum``, so values match the scalar formulas bit for bit.  The
engine takes a leading batch axis of states: the convex-roof objective
scores every ensemble member in one pass per cut shape and per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .states import Cut, PureState
from .concurrence import (CutConcurrenceTable, _cut_concurrences, _cut_plan,
                          all_cut_concurrences)

ZERO_AREA_TOL = 1e-8
ZERO_EDGE_TOL = 1e-6
TRIANGLE_SLACK_TOL = 1e-9
UNIT_AREA_TOL = 1e-9

__all__ = [
    "EdgeConvention",
    "TriangleEdges",
    "Triangle",
    "ZeroAreaTriangle",
    "LevelColumns",
    "GmeReport",
    "heron_area_normalized",
    "f3",
    "f_level",
    "f_total",
    "gme_value",
    "ZERO_AREA_TOL",
    "ZERO_EDGE_TOL",
]


class EdgeConvention(Enum):
    """How cut concurrences become triangle edges."""

    CONCURRENCE = "concurrence"
    SQUARED = "squared"

    @property
    def exponent(self) -> float:
        return 0.5 if self is EdgeConvention.CONCURRENCE else 0.25

    def edge(self, concurrence: float) -> float:
        return concurrence if self is EdgeConvention.CONCURRENCE \
            else concurrence * concurrence


@dataclass(frozen=True)
class TriangleEdges:
    """Edge lengths of one concurrence triangle, as a record.

    ``vertex_labels`` holds the three disjoint party subsets (X, Y, Z);
    edge ``a`` belongs to the cut X | YZ, ``b`` to Y | XZ, ``c`` to
    Z | XY.  Edges are finite and nonnegative; the polygamy rule needs
    the edge convention, so it is judged where the triangle is measured.
    """

    a: float
    b: float
    c: float
    vertex_labels: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        labels = self.vertex_labels
        if len(labels) != 3 or any(not v for v in labels):
            raise ValidationError("triangle needs three nonempty vertex "
                                  f"subsets, got {labels}")
        combined = [p for v in labels for p in v]
        if len(set(combined)) != len(combined):
            raise ValidationError(f"vertex subsets overlap: {labels}")
        for name, e in zip("abc", (self.a, self.b, self.c)):
            if not 0.0 <= e < math.inf:
                raise ValidationError(f"edge {name} is {e!r}: edges must "
                                      "be finite and nonnegative")


@dataclass(frozen=True)
class Triangle:
    """A concurrence triangle with its normalized area."""

    level: int
    edges: TriangleEdges
    area: float

    @property
    def vertex_labels(self):
        return self.edges.vertex_labels


@dataclass(frozen=True)
class ZeroAreaTriangle:
    """A degenerate triangle and the vanishing edges that explain it."""

    level: int
    vertex_labels: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    area: float
    zero_edges: tuple[tuple[int, ...], ...]


class LevelColumns(NamedTuple):
    """One level of a triangle inventory as columns: the plan's vertex
    labels, the (3, T) raw edge concurrences and the T areas."""

    level: int
    labels: tuple
    raw: np.ndarray
    areas: np.ndarray

    def above_one(self) -> list[int]:
        """Positions of the triangles with area above ``1 + 1e-9``."""
        return np.flatnonzero(self.areas > 1.0 + UNIT_AREA_TOL).tolist()

    def zeros(self) -> list[tuple[int, tuple]]:
        """(position, vertices whose edge concurrence is at most
        ``ZERO_EDGE_TOL``) of the first of each unordered zero-area
        triangle."""
        first: dict[frozenset, int] = {}
        for k in np.flatnonzero(self.areas <= ZERO_AREA_TOL).tolist():
            first.setdefault(frozenset(self.labels[k]), k)
        return [(k, tuple(v for v, x in zip(self.labels[k], self.raw[:, k])
                          if x <= ZERO_EDGE_TOL)) for k in first.values()]


@dataclass(frozen=True)
class GmeReport:
    """Full triangle inventory behind a total GME value.

    ``value`` is exactly zero whenever some triangle area falls at or
    below ``ZERO_AREA_TOL``, so ``value == 0`` iff ``zero_triangles``
    is nonempty.  Triangles with area above ``1 + 1e-9`` are listed in
    ``areas_above_one`` rather than clamped.  The inventory is kept as
    one ``LevelColumns`` per level, built from the cut table
    ``cut_values``; its triangle records are built on access.
    """

    convention: EdgeConvention
    dims: tuple[int, ...]
    cut_values: dict[Cut, float]
    level_values: dict[int, float]
    value: float
    # equal cut values and convention give equal columns, so reports
    # compare without their arrays
    levels: tuple[LevelColumns, ...] = field(compare=False)

    @property
    def is_gme(self) -> bool:
        return self.value > 0.0

    def _triangle(self, lv: LevelColumns, k: int) -> Triangle:
        edges = map(self.convention.edge, lv.raw[:, k].tolist())
        return Triangle(lv.level, TriangleEdges(*edges, lv.labels[k]),
                        lv.areas[k].item())

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        """Every triangle, level by level in plan order."""
        return tuple(self._triangle(lv, k) for lv in self.levels
                     for k in range(len(lv.labels)))

    @property
    def zero_triangles(self) -> tuple[ZeroAreaTriangle, ...]:
        return tuple(ZeroAreaTriangle(lv.level, lv.labels[k],
                                      lv.areas[k].item(), edges)
                     for lv in self.levels for k, edges in lv.zeros())

    @property
    def areas_above_one(self) -> tuple[Triangle, ...]:
        return tuple(self._triangle(lv, k) for lv in self.levels
                     for k in lv.above_one())


def heron_area_normalized(edges: TriangleEdges,
                          conv: EdgeConvention) -> float:
    """Normalized Heron area ``[(16/3) Q prod(Q - edge)]**exponent``.

    The measures' own kernel on one triangle, whose concurrences are
    the edges, or their square roots under ``SQUARED``: the same zero
    edge rule, the same slack, and a breach raises the same
    ``InternalInvariantError``.
    """
    edge = np.array([[[edges.a], [edges.b], [edges.c]]], float)
    raw = edge if conv is EdgeConvention.CONCURRENCE else np.sqrt(edge)
    return _heron(raw, edge, conv, [edges.vertex_labels])[0][0]


@lru_cache(maxsize=64)  # one per (number of parties, level)
def _level_plan(nparties: int, level: int) -> tuple[tuple, np.ndarray]:
    """Vertex labels ({i}, S, rest) of a level's tripartitions, just
    {1}|{2}|{3} at N=3, and the (3, T) cut-plan positions of their
    edges, read-only since every caller shares them."""
    parties = range(1, nparties + 1)
    raw = [((1,), (2,), (3,))] if nparties == 3 else (
        ((i,), s, tuple(p for p in parties if p != i and p not in s))
        for i in parties
        for s in combinations([p for p in parties if p != i], level))
    index = _cut_plan(nparties).index
    side = {v: v for v in index}  # share the plan's tuples: no 3 per label
    labels = tuple(tuple(side[v] for v in t) for t in raw)
    pos = np.array([[index[v] for v in t] for t in labels]).T
    pos.setflags(write=False)
    return labels, pos


def _heron(raw: np.ndarray, edges: np.ndarray, conv: EdgeConvention,
           labels) -> list[list[float]]:
    """Areas (m lists of T) of triangles with edge concurrences ``raw``
    and ``conv`` edges ``edges``, both (m, 3, T), vertices ``labels``.
    The longest edge may pass the half-perimeter by 1e-9 and the
    radicand fall to -1e-9; a breach raises."""
    q = 0.5 * (edges[:, 0] + edges[:, 1] + edges[:, 2])
    gap = q[:, None] - edges  # Q - a, Q - b, Q - c
    rad = (16.0 / 3.0) * q * gap[:, 0] * gap[:, 1] * gap[:, 2]
    # A vanishing edge forces zero area analytically; rounding noise on
    # a near-zero concurrence otherwise leaks into a spurious tiny area.
    # Such an edge is known only to about its own size, so it widens the
    # half-perimeter slack by that much.
    near = raw <= ZERO_EDGE_TOL
    zero = near.any(axis=1)
    slack = TRIANGLE_SLACK_TOL + (edges * near).sum(axis=1)
    bad = ((edges.max(axis=1) > q + slack)
           | (~zero & (rad < -TRIANGLE_SLACK_TOL)))
    if bad.any():
        i, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise InternalInvariantError(
            f"polygamy violated: edges {tuple(edges[i, :, k].tolist())}, "
            f"Heron radicand {rad[i, k].item()!r}, for vertices {labels[k]}")
    rad[zero] = 0.0
    e = conv.exponent
    return [[r ** e for r in row] for row in np.maximum(rad, 0.0).tolist()]


def _level_areas(values: np.ndarray, n: int, level: int, conv: EdgeConvention
                 ) -> tuple[np.ndarray, list[list[float]]]:
    """Raw edge concurrences (m, 3, T) and ``_heron`` areas (m lists of
    T) of a level, from rows of cut concurrences (m, K) in plan order."""
    labels, pos = _level_plan(n, level)
    raw = values[:, pos]
    edges = raw if conv is EdgeConvention.CONCURRENCE else raw * raw
    return raw, _heron(raw, edges, conv, labels)


def _geometric_mean(values: list[float], floor: float) -> float:
    """Geometric mean with an exact zero when any value is <= ``floor``.

    Log-space accumulation avoids underflow of the raw product; any
    area at or below ``ZERO_AREA_TOL`` makes a level mean zero, which
    keeps the zero-characterization exact on biseparable states.
    """
    if min(values) <= floor:
        return 0.0
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def _measure(values: np.ndarray, n: int, conv: EdgeConvention,
             inventory: list | None = None
             ) -> list[tuple[dict[int, float], float]]:
    """Level values and total of each row of cut concurrences (m, K).

    A row stops at its first zero level and leaves the batch, so later
    levels neither measure nor judge it, unless ``inventory`` is given:
    then every level's ``LevelColumns`` of the first row is appended.
    At N = 3 both are the single triangle's area.
    """
    rows = [{} for _ in range(len(values))]
    live, batch = range(len(values)), values
    for level in range(1, max(1, (n - 2) // 2) + 1):
        raw, areas = _level_areas(batch, n, level, conv)
        if inventory is not None:
            inventory.append(LevelColumns(level, _level_plan(n, level)[0],
                                          raw[0], np.array(areas[0])))
        if n == 3:
            return [({1: v}, v) for v in
                    (a[0] if a[0] > ZERO_AREA_TOL else 0.0 for a in areas)]
        for i, row_areas in zip(live, areas):
            rows[i][level] = _geometric_mean(row_areas, ZERO_AREA_TOL)
        kept = [i for i in live if inventory is not None or rows[i][level]]
        if not kept:
            break
        if len(kept) < len(live):  # copy the batch only once a row stops
            live, batch = kept, values[kept]
    return [(v, _geometric_mean(list(v.values()), 0.0)) for v in rows]


def _table_values(table: CutConcurrenceTable) -> np.ndarray:
    """A cut table as one row (1, K) in plan order."""
    return np.fromiter(table.entries.values(), float, len(table))[None]


def _gme_values(amps: np.ndarray, dims: tuple[int, ...],
                conv: EdgeConvention) -> list[float]:
    """``gme_value`` of each row of a stack of validated states (m, D),
    bit for bit, in one pass per cut and one per level."""
    return [total for _, total in
            _measure(_cut_concurrences(amps, dims), len(dims), conv)]


def f3(psi: PureState, conv: EdgeConvention = EdgeConvention.CONCURRENCE
       ) -> float:
    """Normalized area of the single {1} | {2} | {3} triangle.

    Zero exactly when the state is biseparable across some party.
    """
    if psi.nparties != 3:
        raise ValidationError(
            f"f3 needs exactly 3 parties, got {psi.nparties}")
    return gme_value(psi, conv)


def f_level(psi: PureState, level: int,
            conv: EdgeConvention = EdgeConvention.CONCURRENCE) -> float:
    """Geometric mean area over the level-l triangle family.

    Requires ``N >= 4`` and ``1 <= level <= N - 3`` so that the third
    vertex is nonempty and distinct from the singleton vertex.
    """
    n = psi.nparties
    if n < 4:
        raise ValidationError(f"f_level needs at least 4 parties, got {n}")
    if not 1 <= level <= n - 3:
        raise ValidationError(
            f"level {level} out of range 1..{n - 3} for {n} parties")
    values = _table_values(all_cut_concurrences(psi, min(level + 1, n // 2)))
    return _geometric_mean(_level_areas(values, n, level, conv)[1][0],
                           ZERO_AREA_TOL)


def f_total(psi: PureState,
            conv: EdgeConvention = EdgeConvention.CONCURRENCE) -> GmeReport:
    """Total GME measure with the full triangle inventory.

    For N = 3 this is the single-triangle area; for N >= 4 it is the
    geometric mean of the level values for l = 1 .. floor((N-2)/2).
    """
    n = psi.nparties
    if n < 3:
        raise ValidationError(f"f_total needs at least 3 parties, got {n}")
    levels = []
    table = all_cut_concurrences(psi, n // 2)
    [(level_values, total)] = _measure(_table_values(table), n, conv, levels)
    return GmeReport(conv, psi.dims, table.entries, level_values, total,
                     tuple(levels))


def gme_value(psi: PureState,
              conv: EdgeConvention = EdgeConvention.CONCURRENCE) -> float:
    """Total GME value without materializing the report.

    Same number as ``f_total(psi, conv).value``, stopping at the first
    zero level; used in optimization and property-campaign hot paths.
    """
    if psi.nparties < 3:
        raise ValidationError(
            f"gme_value needs at least 3 parties, got {psi.nparties}")
    n = psi.nparties
    return _measure(_table_values(all_cut_concurrences(psi, n // 2)), n,
                    conv)[0][1]
