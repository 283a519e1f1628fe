"""Analysis reports and their deterministic text/JSON rendering.

JSON output is canonical: keys sorted, floats fixed at 10 significant
digits, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import __version__
from .classify import Factorization
from .concurrence import _cut_plan
from .stateio import indented_json
from .triangles import GmeReport, _level_plan

__all__ = [
    "AnalysisReport",
    "emit_report",
    "canonical_json",
    "fmt10",
]


def fmt10(x: float) -> float:
    """Round a float to 10 significant decimal digits."""
    return float(f"{x:.10g}")


def canonical_json(obj) -> str:
    """Indented JSON with sorted keys and every float value at 10 digits."""
    return indented_json(obj, fmt10)


def _json_list(items: list[str], newline: str = "\n") -> str:
    """Item texts in a list as the JSON writer lays it out, each item on
    a line of its own after ``newline + " "``."""
    inner = newline + " "
    return "[" + inner + ("," + inner).join(items) + newline + "]" \
        if items else "[]"


def _subsets_text(subsets) -> str:
    """Party subsets as report text, such as ``{1},{2,3}``."""
    return ",".join("{" + ",".join(map(str, v)) + "}" for v in subsets)


def _subsets_json(subsets) -> str:
    """Party subsets as the JSON writer lays them out in an inventory row."""
    return _json_list([_json_list(list(map(str, v)), "\n    ")
                       for v in subsets], "\n   ")


@lru_cache(maxsize=128)  # per format, one per (number of parties, level)
def _vertex_texts(nparties: int, level: int, render) -> tuple[str, ...]:
    """``render`` of each triangle's vertices at a level, in plan order."""
    return tuple(map(render, _level_plan(nparties, level)[0]))


@lru_cache(maxsize=32)  # one per number of parties, like the cut plan
def _cut_labels(nparties: int) -> tuple[tuple[int, str], ...]:
    """(plan position, label) of each canonical cut, in sorted-``Cut``
    order."""
    cuts = _cut_plan(nparties).cuts
    return tuple((k, cuts[k].label())
                 for k in sorted(range(len(cuts)), key=cuts.__getitem__))


def _cut_rows(gme: GmeReport) -> list[tuple[str, float]]:
    """(label, value) of each cut in sorted-``Cut`` order, from the
    report's cut table, which is in plan order."""
    values = list(gme.cut_values.values())
    return [(label, values[k]) for k, label in _cut_labels(len(gme.dims))]


def _inventory(gme: GmeReport, render) -> tuple[list, list]:
    """The zero-area and the above-one triangles from the report's
    columns: (level, vertices, area, zero edges) and (level, vertices,
    area), with vertices as ``render`` writes them."""
    zero, above = [], []
    for lv in gme.levels:
        verts = _vertex_texts(len(gme.dims), lv.level, render)
        areas = lv.areas.tolist()
        zero += [(lv.level, verts[k], areas[k], e) for k, e in lv.zeros()]
        above += [(lv.level, verts[k], areas[k]) for k in lv.above_one()]
    return zero, above


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze command reports about one pure state: one
    GME report and one factorization, each carrying the cut values it
    was built from."""

    input_digest: str
    tolerance: float
    seed: int
    gme: GmeReport
    factorization: Factorization
    notices: tuple[str, ...]

    def to_json(self) -> str:
        """Canonical JSON: the inventory rows are written from the GME
        report's columns, byte for byte as the JSON writer would."""
        gme = self.gme
        sections = {
            "tool_version": __version__,
            "input_digest": self.input_digest,
            "dims": list(gme.dims),
            "tolerance": self.tolerance,
            "seed": self.seed,
            "convention": gme.convention.value,
            "cut_concurrences": dict(_cut_rows(gme)),
            "level_values": {str(l): v
                             for l, v in sorted(gme.level_values.items())},
            "f_total": gme.value,
            "is_gme": gme.is_gme,
            "factorization": {
                "factors": [list(f) for f in self.factorization.factors],
                "is_gme": self.factorization.is_gme,
            },
            "marginal_cuts": [c.label()
                              for c in self.factorization.marginal_cuts],
            "notices": list(self.notices),
        }
        # each section is written at the top level, then indented one
        # step: a JSON string never holds a raw newline
        parts = {k: canonical_json(v)[:-1].replace("\n", "\n ")
                 for k, v in sections.items()}
        zero, above = _inventory(gme, _subsets_json)
        row = '{\n   "area": %r,\n   "level": %d,\n   "vertices": %s%s\n  }'
        parts["zero_triangles"] = _json_list([
            row % (fmt10(a), l, v, ',\n   "zero_edges": ' + _subsets_json(e))
            for l, v, a, e in zero], "\n ")
        parts["areas_above_one"] = _json_list([
            row % (fmt10(a), l, v, "") for l, v, a in above], "\n ")
        body = ",\n ".join(f'"{k}": {v}' for k, v in sorted(parts.items()))
        return "{\n " + body + "\n}\n"

    def to_text(self) -> str:
        gme = self.gme
        n = len(gme.dims)
        lines = [
            f"input:       {self.input_digest}",
            f"dims:        {'x'.join(str(d) for d in gme.dims)}",
            f"convention:  {gme.convention.value}",
            f"tolerance:   {self.tolerance:g}",
            f"F_{n} = {gme.value:.6f}",
        ]
        for l, v in sorted(gme.level_values.items()):
            lines.append(f"  level {l}: {v:.6f}")
        lines.append("cut concurrences:")
        for label, v in _cut_rows(gme):
            lines.append(f"  {label:<12} {v:.10g}")
        factors = _subsets_text(self.factorization.factors)
        tag = "GME" if self.factorization.is_gme else "not GME"
        lines.append(f"factorization: {factors}  ({tag})")
        zero, above = _inventory(gme, _subsets_text)
        if zero:
            lines.append("zero-area triangles:")
            lines += [f"  ({v})  area {a:.3g}  zero edges: "
                      + (_subsets_text(e) or "none below edge tolerance")
                      for _, v, a, e in zero]
        if above:
            lines.append("triangles with area above 1:")
            lines += [f"  ({v})  area {a:.10g}" for _, v, a in above]
        if self.factorization.marginal_cuts:
            lines.append("marginal cuts (within 10x of tolerance):")
            for c in self.factorization.marginal_cuts:
                lines.append(f"  {c.label()}")
        for notice in self.notices:
            lines.append(f"note: {notice}")
        lines.append(f"tool version: {__version__}   seed: {self.seed}")
        return "\n".join(lines) + "\n"


def emit_report(report: AnalysisReport, as_json: bool) -> str:
    """Render a report; identical inputs give byte-identical output."""
    return report.to_json() if as_json else report.to_text()
