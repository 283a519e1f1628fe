"""Analysis reports and their deterministic text/JSON rendering.

JSON output is canonical: keys sorted, floats fixed at 10 significant
digits, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .classify import Factorization
from .stateio import indented_json
from .triangles import GmeReport

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


def _subset_text(parties) -> str:
    return "{" + ",".join(str(p) for p in parties) + "}"


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

    def to_dict(self) -> dict:
        gme = self.gme
        return {
            "tool_version": __version__,
            "input_digest": self.input_digest,
            "dims": list(gme.dims),
            "tolerance": self.tolerance,
            "seed": self.seed,
            "convention": gme.convention.value,
            "cut_concurrences": {cut.label(): v
                                 for cut, v in sorted(gme.cut_values.items())},
            "level_values": {str(l): v
                             for l, v in sorted(gme.level_values.items())},
            "f_total": gme.value,
            "is_gme": gme.is_gme,
            "factorization": {
                "factors": [list(f) for f in self.factorization.factors],
                "is_gme": self.factorization.is_gme,
            },
            "zero_triangles": [
                {"level": z.level,
                 "vertices": [list(v) for v in z.vertex_labels],
                 "area": z.area,
                 "zero_edges": [list(e) for e in z.zero_edges]}
                for z in gme.zero_triangles],
            "areas_above_one": [
                {"level": t.level,
                 "vertices": [list(v) for v in t.vertex_labels],
                 "area": t.area}
                for t in gme.areas_above_one],
            "marginal_cuts": [c.label()
                              for c in self.factorization.marginal_cuts],
            "notices": list(self.notices),
        }

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
        for cut, v in sorted(gme.cut_values.items()):
            lines.append(f"  {cut.label():<12} {v:.10g}")
        factors = ",".join(_subset_text(f)
                           for f in self.factorization.factors)
        tag = "GME" if self.factorization.is_gme else "not GME"
        lines.append(f"factorization: {factors}  ({tag})")
        if gme.zero_triangles:
            lines.append("zero-area triangles:")
            for z in gme.zero_triangles:
                verts = ",".join(_subset_text(v) for v in z.vertex_labels)
                edges = (",".join(_subset_text(e) for e in z.zero_edges)
                         or "none below edge tolerance")
                lines.append(f"  ({verts})  area {z.area:.3g}  "
                             f"zero edges: {edges}")
        if gme.areas_above_one:
            lines.append("triangles with area above 1:")
            for t in gme.areas_above_one:
                verts = ",".join(_subset_text(v) for v in t.vertex_labels)
                lines.append(f"  ({verts})  area {t.area:.10g}")
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
    if as_json:
        return canonical_json(report.to_dict())
    return report.to_text()
