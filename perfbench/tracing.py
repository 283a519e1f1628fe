"""Spans and counts recorded around the calls between trigme's layers.

Tracing is installed from the outside: :func:`installed` replaces the
module attributes through which one layer calls the next (for example
``trigme.triangles.all_cut_concurrences``, which is how the triangle
stage reaches the cut table) with wrappers, and restores the originals
on exit.  Nothing under ``src/`` knows about it.

Every span records its name, start and end (``perf_counter_ns``), its
parent span and the benchmark op it belongs to.  Spans are kept in
flat arrays in memory and written out once, after the run.  Integer
nanoseconds keep the nesting exact, so a span's self time (its
duration minus its children's) is never negative.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The span name is ``layer.function``;
# a suffix in brackets names the module whose binding was wrapped when
# the same function is reached from several layers.
TARGETS = (
    ("trigme.states", "PureState.__post_init__", "states.validate"),
    ("trigme.states", "DensityMatrix.__post_init__", "states.validate"),
    ("trigme.concurrence", "_pure_marginal", "states.marginal"),
    ("trigme.classify", "_pure_marginal", "states.marginal"),
    ("trigme.concurrence", "concurrence_pure", "concurrence.cut"),
    ("trigme.triangles", "all_cut_concurrences", "concurrence.table"),
    ("trigme.classify", "all_cut_concurrences", "concurrence.table"),
    ("trigme.cli", "all_cut_concurrences", "concurrence.table"),
    ("trigme.cli", "check_polygamy", "concurrence.polygamy"),
    ("trigme.triangles", "gme_value", "triangles.gme_value"),
    ("trigme.mixed", "gme_value", "triangles.gme_value[mixed]"),
    ("trigme.mixed", "f_total", "triangles.f_total"),
    ("trigme.cli", "f_total", "triangles.f_total"),
    ("trigme.cli", "finest_factorization", "classify.finest_factorization"),
    ("trigme.cli", "marginal_cuts", "classify.marginal_cuts"),
    ("trigme.cli", "witness", "mixed.witness"),
    ("trigme.mixed", "convex_roof_upper_bound", "mixed.convex_roof"),
    ("trigme.mixed", "minimize", "mixed.minimize"),
    ("trigme.cli", "parse_state_file", "stateio.parse"),
    ("trigme.stateio", "parse_state_file", "stateio.parse"),
    ("trigme.cli", "render_state_document", "stateio.render"),
    ("trigme.cli", "emit_report", "reporting.emit"),
    ("trigme.cli", "canonical_json", "reporting.emit"),
    ("trigme.cli", "run_command", "cli.run_command"),
)

OP_SPAN = "bench.op"


def triangle_count(nparties: int) -> int:
    """Triangles in the full inventory of an N-party state, from N alone."""
    if nparties == 3:
        return 1
    return sum(nparties * math.comb(nparties - 1, level)
               for level in range(1, max(1, (nparties - 2) // 2) + 1))


def marginal_cost(dims, keep0) -> tuple[int, int]:
    """Computed (flops, bytes) of one pure-state marginal plus purity.

    Flops: the complex Gram product ``m @ m^H`` of the d_keep x d_rest
    reshape (8 real flops per complex multiply-add) plus the squared
    Frobenius norm.  Bytes: amplitudes read once, the transposed copy
    written and read again when the kept axes are not leading, and the
    Gram matrix written.  Cache misses are not modelled.
    """
    total = math.prod(dims)
    dk = math.prod(dims[i] for i in keep0)
    copied = list(keep0) != list(range(len(keep0)))
    flops = 8 * dk * dk * (total // dk) + 4 * dk * dk
    nbytes = 16 * total * (3 if copied else 1) + 16 * dk * dk
    return flops, nbytes


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self.counts: Counter = Counter()
        self.tables: set = set()
        self.optimizer_runs: list[tuple[int, int, bool]] = []
        self.roof_histories: list[tuple[float, ...]] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark op; layer spans nest inside it."""
        self._op_id = op_id
        idx = self.begin(OP_SPAN)
        try:
            yield
        finally:
            self.finish(idx)
            self._op_id = -1

    def wrap(self, span: str, fn):
        note = _NOTES.get(span.split("[")[0])

        def traced(*args, **kwargs):
            if note is not None:
                note(self, args)
            idx = self.begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if span == "mixed.minimize":
                self.optimizer_runs.append(
                    (int(out.nit), int(out.nfev), bool(out.success)))
            elif span == "mixed.convex_roof":
                self.roof_histories.append(tuple(out.history))
            elif span == "reporting.emit":
                self.counts["reporting.bytes"] += len(out.encode("utf-8"))
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay free to grow after a snapshot.
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.int64),
                "end": np.array(self.end, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32)}

    def self_ns(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=dur.size)
        return dur - covered.astype(np.int64)

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer numbers of a traced run, per op unless the name says."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = tracer.self_ns()
    k = len(tracer.names)
    calls = np.bincount(a["name"], minlength=k)
    total = np.bincount(a["name"], weights=dur, minlength=k)
    selft = np.bincount(a["name"], weights=own, minlength=k)

    def pick(values, span=None, layer=None):
        return float(sum(values[i] for i, n in enumerate(tracer.names)
                         if n == span or n.split(".")[0] == layer))

    def per_call(span):
        n = pick(calls, span)
        return pick(total, span) / n if n else 0.0

    gme = tracer._ids.get("triangles.gme_value[mixed]", -1)
    opt = tracer._ids.get("mixed.minimize", -1)
    under_opt = (a["name"] == gme) & (a["parent"] >= 0)
    under_opt[under_opt] = a["name"][a["parent"][under_opt]] == opt
    runs = tracer.optimizer_runs
    restarts = len(runs)
    attempts = sum(len(h) - 1 for h in tracer.roof_histories)
    improving = sum(1 for h in tracer.roof_histories
                    for prev, cur in zip(h, h[1:]) if cur < prev)
    tables = pick(calls, "concurrence.table")
    tri = tracer.counts["triangles.count"]
    return {
        "states.validate_calls": pick(calls, "states.validate") / ops,
        "states.validate_us": pick(total, "states.validate") / ops / 1e3,
        "states.marginal_flops": tracer.counts["states.marginal_flops"] / ops,
        "states.marginal_bytes": tracer.counts["states.marginal_bytes"] / ops,
        "concurrence.cut_calls": pick(calls, "concurrence.cut") / ops,
        "concurrence.cut_us": per_call("concurrence.cut") / 1e3,
        "concurrence.table_calls": tables / ops,
        "concurrence.self_ms": pick(selft, layer="concurrence") / ops / 1e6,
        "concurrence.table_useful_ratio":
            len(tracer.tables) / tables if tables else 0.0,
        "triangles.count": tri / ops,
        "triangles.self_ms": pick(selft, layer="triangles") / ops / 1e6,
        "triangles.us_per_triangle":
            pick(selft, layer="triangles") / tri / 1e3 if tri else 0.0,
        "classify.self_ms": pick(selft, layer="classify") / ops / 1e6,
        "reporting.emit_ms": pick(total, "reporting.emit") / ops / 1e6,
        "reporting.bytes": tracer.counts["reporting.bytes"] / ops,
        "stateio.parse_ms": pick(total, "stateio.parse") / ops / 1e6,
        "stateio.render_ms": pick(total, "stateio.render") / ops / 1e6,
        "cli.self_ms": pick(selft, layer="cli") / ops / 1e6,
        "mixed.restarts": restarts / ops,
        "mixed.nfev_per_restart":
            sum(r[1] for r in runs) / restarts if restarts else 0.0,
        "mixed.nit_per_restart":
            sum(r[0] for r in runs) / restarts if restarts else 0.0,
        "mixed.converged_ratio":
            sum(r[2] for r in runs) / restarts if restarts else 0.0,
        "mixed.improving_ratio": improving / attempts if attempts else 0.0,
        "mixed.gme_calls": pick(calls, "triangles.gme_value[mixed]") / ops,
        "mixed.gme_us": per_call("triangles.gme_value[mixed]") / 1e3,
        "mixed.optimizer_self_s":
            (pick(total, "mixed.minimize") - float(dur[under_opt].sum()))
            / ops / 1e9,
        "mixed.witness_ms": pick(total, "mixed.witness") / ops / 1e6,
    }


def _note_marginal(tracer: Tracer, args) -> None:
    flops, nbytes = marginal_cost(args[1], args[2])
    tracer.counts["states.marginal_flops"] += flops
    tracer.counts["states.marginal_bytes"] += nbytes


def _note_table(tracer: Tracer, args) -> None:
    psi, size = args[0], args[1]
    # distinct per op: a table rebuilt for the same state within one op
    # is wasted work, the same table in the next op is not
    tracer.tables.add((tracer._op_id, psi.dims,
                       hash(psi.amplitudes.tobytes()), size))


def _note_triangles(tracer: Tracer, args) -> None:
    tracer.counts["triangles.count"] += triangle_count(len(args[0].dims))


_NOTES = {
    "states.marginal": _note_marginal,
    "concurrence.table": _note_table,
    "triangles.gme_value": _note_triangles,
    "triangles.f_total": _note_triangles,
}


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    import importlib

    saved = []
    try:
        for modname, dotted, span in TARGETS:
            owner, attr = _resolve(importlib.import_module(modname), dotted)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
