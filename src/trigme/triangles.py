"""Triangle-area genuine multipartite entanglement measures.

A tripartition X | Y | Z of the parties defines a concurrence triangle
whose edges are the concurrences of the three cuts X|YZ, Y|XZ, Z|XY.
The normalized area is ``[(16/3) Q (Q-a)(Q-b)(Q-c)]**e`` with Q the
half-perimeter.  Two edge conventions are supported:

* ``CONCURRENCE`` (default): edges are concurrences and e = 1/2.
* ``SQUARED``: edges are squared concurrences and e = 1/4.

The polygamy inequalities guarantee the triangle inequality for the
edges under both conventions, so a negative Heron radicand beyond
tolerance signals an upstream bug and raises.

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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

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
    """Edge lengths of one concurrence triangle.

    ``vertex_labels`` holds the three disjoint party subsets (X, Y, Z);
    edge ``a`` belongs to the cut X | YZ, ``b`` to Y | XZ, ``c`` to
    Z | XY.  Edges must satisfy the triangle inequality within 1e-9
    plus the edges at or below ``ZERO_EDGE_TOL``: a near-zero edge is
    known only to about its own size.
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
        edges = (self.a, self.b, self.c)
        for e in edges:
            if e < 0.0:
                raise ValidationError(f"negative edge length {e!r}")
        slack = TRIANGLE_SLACK_TOL + sum(e for e in edges
                                         if e <= ZERO_EDGE_TOL)
        if max(edges) > self.Q + slack:
            raise InternalInvariantError(
                f"polygamy violated: edge {max(edges)!r} exceeds "
                f"half-perimeter {self.Q!r} for vertices {labels}")

    @property
    def Q(self) -> float:
        """Half-perimeter (a + b + c) / 2."""
        return 0.5 * (self.a + self.b + self.c)


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


@dataclass(frozen=True)
class GmeReport:
    """Full triangle inventory behind a total GME value.

    ``value`` is exactly zero whenever some triangle area falls at or
    below ``ZERO_AREA_TOL``, so ``value == 0`` iff ``zero_triangles``
    is nonempty.  Triangles with area above ``1 + 1e-9`` are listed in
    ``areas_above_one`` rather than clamped.  The triangles are built
    from the cut table ``cut_values``.
    """

    convention: EdgeConvention
    dims: tuple[int, ...]
    cut_values: dict[Cut, float]
    level_values: dict[int, float]
    value: float
    triangles: tuple[Triangle, ...]
    zero_triangles: tuple[ZeroAreaTriangle, ...]
    areas_above_one: tuple[Triangle, ...]

    @property
    def is_gme(self) -> bool:
        return self.value > 0.0


def heron_area_normalized(edges: TriangleEdges,
                          conv: EdgeConvention) -> float:
    """Normalized Heron area ``[(16/3) Q prod(Q - edge)]**exponent``.

    The radicand is clamped at zero when it is within 1e-9 of zero;
    a radicand below -1e-9 raises ``InternalInvariantError`` since the
    polygamy inequalities forbid it for edges derived from a state.
    """
    q = edges.Q
    rad = (16.0 / 3.0) * q * (q - edges.a) * (q - edges.b) * (q - edges.c)
    if rad < -TRIANGLE_SLACK_TOL:
        raise InternalInvariantError(
            f"polygamy violated: Heron radicand {rad!r} < -1e-9 for "
            f"vertices {edges.vertex_labels}")
    return max(rad, 0.0) ** conv.exponent


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


def _level_areas(values: np.ndarray, n: int, level: int,
                 conv: EdgeConvention, live: list[bool] | None = None
                 ) -> tuple[np.ndarray, list[list[float]]]:
    """Raw edge concurrences (m, 3, T) and areas (m lists of T) of a
    level, from rows of cut concurrences (m, K) in plan order.  A breach
    raises unless its row is marked False in ``live``."""
    labels, pos = _level_plan(n, level)
    raw = values[:, pos]
    edges = raw if conv is EdgeConvention.CONCURRENCE else raw * raw
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
    if live is not None and bad.any():
        bad &= np.array(live)[:, None]
    if bad.any():
        i, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise InternalInvariantError(
            f"polygamy violated: edges {tuple(edges[i, :, k].tolist())}, "
            f"Heron radicand {rad[i, k].item()!r}, for vertices {labels[k]}")
    rad[zero] = 0.0
    e = conv.exponent
    return raw, [[r ** e for r in row] for row in
                 np.maximum(rad, 0.0).tolist()]


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

    A row stops at its first zero level unless ``inventory`` is given:
    then every level's (level, raw edges, areas) of the first row is
    appended.  At N = 3 both are the single triangle's area.
    """
    rows = [{} for _ in range(len(values))]
    live = [True] * len(values)
    for level in range(1, max(1, (n - 2) // 2) + 1):
        raw, areas = _level_areas(values, n, level, conv, live)
        for i, row in enumerate(rows):
            if live[i]:
                row[level] = _geometric_mean(areas[i], ZERO_AREA_TOL)
                live[i] = inventory is not None or row[level] != 0.0
        if inventory is not None:
            inventory.append((level, raw[0], areas[0]))
        elif not any(live):
            break
    if n == 3:
        return [({1: v}, v) for v in (a[0] if a[0] > ZERO_AREA_TOL else 0.0
                                      for a in areas)]
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
    triangles, zero = [], {}
    for level, raw, areas in levels:
        for labels, edge_raw, area in zip(_level_plan(n, level)[0],
                                          raw.T.tolist(), areas):
            edges = TriangleEdges(*map(conv.edge, edge_raw), labels)
            triangles.append(Triangle(level, edges, area))
            if area <= ZERO_AREA_TOL:  # first of each unordered triangle
                zero.setdefault((level, frozenset(labels)), ZeroAreaTriangle(
                    level, labels, area,
                    tuple(v for v, x in zip(labels, edge_raw)
                          if x <= ZERO_EDGE_TOL)))
    above = tuple(t for t in triangles if t.area > 1.0 + UNIT_AREA_TOL)
    return GmeReport(conv, psi.dims, table.entries, level_values, total,
                     tuple(triangles), tuple(zero.values()), above)


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
