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
positions kept in the cached cut plan, with scalar powers, logs and
``math.fsum``, so values match the scalar formulas bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .states import PureState
from .concurrence import CutConcurrenceTable, _cut_plan, all_cut_concurrences

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
    Z | XY.  Edges must satisfy the triangle inequality within 1e-9.
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
        for e in (self.a, self.b, self.c):
            if e < 0.0:
                raise ValidationError(f"negative edge length {e!r}")
        if max(self.a, self.b, self.c) > self.Q + TRIANGLE_SLACK_TOL:
            raise InternalInvariantError(
                "polygamy violated: edge "
                f"{max(self.a, self.b, self.c)!r} exceeds half-perimeter "
                f"{self.Q!r} for vertices {self.vertex_labels}")

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
    ``areas_above_one`` rather than clamped.
    """

    convention: EdgeConvention
    dims: tuple[int, ...]
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


def _tripartitions(nparties: int, level: int):
    """Vertex labels ({i}, S, rest) of a level; just {1}|{2}|{3} at N=3."""
    if nparties == 3:
        yield (1,), (2,), (3,)
        return
    parties = range(1, nparties + 1)
    for i in parties:
        others = [p for p in parties if p != i]
        for s in combinations(others, level):
            yield (i,), s, tuple(p for p in others if p not in s)


def _level_areas(table: CutConcurrenceTable, level: int,
                 conv: EdgeConvention) -> tuple[np.ndarray, list[float]]:
    """Raw edge concurrences (3, T) and areas of a level; breaches raise."""
    n, plan = len(table.dims), _cut_plan(len(table.dims))
    if level not in plan.levels:  # (3, T) table positions of the edges
        pos = np.array([[plan.index[v] for v in labels]
                        for labels in _tripartitions(n, level)]).T
        pos.setflags(write=False)  # shared by every caller of the plan
        plan.levels[level] = pos
    values = np.fromiter(table.entries.values(), float, len(table))
    raw = values[plan.levels[level]]
    edges = raw if conv is EdgeConvention.CONCURRENCE else raw * raw
    a, b, c = edges
    q = 0.5 * (a + b + c)
    rad = (16.0 / 3.0) * q * (q - a) * (q - b) * (q - c)
    # A vanishing edge forces zero area analytically; rounding noise on
    # a near-zero concurrence otherwise leaks into a spurious tiny area.
    zero = raw.min(axis=0) <= ZERO_EDGE_TOL
    bad = ((np.maximum(np.maximum(a, b), c) > q + TRIANGLE_SLACK_TOL)
           | (~zero & (rad < -TRIANGLE_SLACK_TOL)))
    if bad.any():
        k = int(np.argmax(bad))
        raise InternalInvariantError(
            f"polygamy violated: edges {tuple(edges[:, k].tolist())}, Heron "
            f"radicand {rad[k].item()!r}, for vertices "
            f"{list(_tripartitions(n, level))[k]}")
    e = conv.exponent
    return raw, [r ** e for r in
                 np.where(zero, 0.0, np.maximum(rad, 0.0)).tolist()]


def _geometric_mean(values: list[float], floor: float) -> float:
    """Geometric mean with an exact zero when any value is <= ``floor``.

    Log-space accumulation avoids underflow of the raw product; any
    area at or below ``ZERO_AREA_TOL`` makes a level mean zero, which
    keeps the zero-characterization exact on biseparable states.
    """
    if min(values) <= floor:
        return 0.0
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def _measure(psi: PureState, conv: EdgeConvention,
             inventory: list | None = None) -> tuple[dict[int, float], float]:
    """Level values and total, stopping at a zero level unless
    ``inventory`` is given: then every level's (level, raw edges, areas)
    is appended.  At N = 3 both are the single triangle's area."""
    n = psi.nparties
    table = all_cut_concurrences(psi, n // 2)
    values = {}
    for level in range(1, max(1, (n - 2) // 2) + 1):
        raw, areas = _level_areas(table, level, conv)
        values[level] = _geometric_mean(areas, ZERO_AREA_TOL)
        if inventory is not None:
            inventory.append((level, raw, areas))
        elif values[level] == 0.0:
            return values, 0.0
    if n == 3:
        values[1] = areas[0] if areas[0] > ZERO_AREA_TOL else 0.0
        return values, values[1]
    return values, _geometric_mean(list(values.values()), 0.0)


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
    table = all_cut_concurrences(psi, min(level + 1, n // 2))
    return _geometric_mean(_level_areas(table, level, conv)[1], ZERO_AREA_TOL)


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
    level_values, total = _measure(psi, conv, levels)
    triangles, zero = [], {}
    for level, raw, areas in levels:
        for labels, edge_raw, area in zip(_tripartitions(n, level),
                                          raw.T.tolist(), areas):
            edges = TriangleEdges(*map(conv.edge, edge_raw), labels)
            triangles.append(Triangle(level, edges, area))
            if area <= ZERO_AREA_TOL:  # first of each unordered triangle
                zero.setdefault((level, frozenset(labels)), ZeroAreaTriangle(
                    level, labels, area,
                    tuple(v for v, x in zip(labels, edge_raw)
                          if x <= ZERO_EDGE_TOL)))
    above = tuple(t for t in triangles if t.area > 1.0 + UNIT_AREA_TOL)
    return GmeReport(conv, psi.dims, level_values, total, tuple(triangles),
                     tuple(zero.values()), above)


def gme_value(psi: PureState,
              conv: EdgeConvention = EdgeConvention.CONCURRENCE) -> float:
    """Total GME value without materializing the report.

    Same number as ``f_total(psi, conv).value``, stopping at the first
    zero level; used in optimization and property-campaign hot paths.
    """
    if psi.nparties < 3:
        raise ValidationError(
            f"gme_value needs at least 3 parties, got {psi.nparties}")
    return _measure(psi, conv)[1]
