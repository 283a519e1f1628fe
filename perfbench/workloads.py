"""The four benchmark workloads: seeded inputs, ops and output checks.

Each workload is a *unit*: a fixed list of ops that the closed loop in
``run.py`` repeats.  All inputs are generated here from the workload
seed with numpy alone; trigme only ever receives the generated arrays
or the state documents written from them.  Every op carries a check
that runs on every output, and ``run.py`` additionally requires each
repeat of an op to return bit-identical output.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

GHZ_MIX_REFERENCE = 9.0 / 16.0
GHZ_MIX_NAME = "roof ghz000-mix"
CLASSICAL_MIX_NAME = "roof classical-mix"
# Small fixed optimizer budget for the roof workload: one restart per
# ensemble size and a 100-iteration cap.  At this budget the GHZ/|000>
# mixture still reaches 9/16 to better than 1e-9.
ROOF_RESTARTS = 1
ROOF_MAX_ITERATIONS = 100

WORKLOADS = ("cli-mix", "pure-wide", "pure-deep", "roof")


class CheckFailed(Exception):
    """An op returned a wrong or unexpected output."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(math.isfinite(got) and abs(got - want) <= tol,
           f"{what}: got {got!r}, want {want!r} within {tol:g}")


@dataclass
class Op:
    """One program call (or a short fixed sequence of them)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    key: Callable[[Any], bytes]
    input: Any = field(default=None, repr=False)
    first: bytes | None = field(default=None, repr=False)


# ---------------------------------------------------------------- inputs

def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def haar(dims, rng: np.random.Generator) -> np.ndarray:
    d = math.prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def ghz(n: int, d: int = 2) -> np.ndarray:
    amps = np.zeros(d ** n, dtype=complex)
    amps[::(d ** n - 1) // (d - 1)] = 1.0 / math.sqrt(d)
    return amps


def w(n: int) -> np.ndarray:
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[1 << k for k in range(n)]] = 1.0 / math.sqrt(n)
    return amps


def biseparable(dims, size: int, rng: np.random.Generator):
    """Haar blocks on a random ``size``-party subset and its complement.

    Returns the amplitudes and the two blocks as sorted 1-based labels.
    The block sizes are fixed by the caller so that the cost of an op
    does not depend on the seed.
    """
    n = len(dims)
    left = sorted(int(p) for p in rng.permutation(n)[:size])
    right = [p for p in range(n) if p not in left]
    a = haar([dims[p] for p in left], rng)
    b = haar([dims[p] for p in right], rng)
    t = np.kron(a, b).reshape([dims[p] for p in left + right])
    amps = np.transpose(t, np.argsort(left + right)).reshape(-1)
    blocks = sorted([[p + 1 for p in left], [p + 1 for p in right]])
    return amps, blocks


def rank2(dims, rng: np.random.Generator) -> np.ndarray:
    a, b = haar(dims, rng), haar(dims, rng)
    return 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())


def ghz000_mixture() -> np.ndarray:
    g = ghz(3)
    rho = 0.75 * np.outer(g, g.conj())
    rho[0, 0] += 0.25
    return rho


def classical_mixture() -> np.ndarray:
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    return rho


def read_document(path: Path) -> tuple[tuple[int, ...], np.ndarray]:
    """Dims and amplitudes (or matrix) of a state document."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    data = np.array(doc["data"], dtype=float)
    return tuple(doc["dims"]), data[..., 0] + 1j * data[..., 1]


def write_document(path: Path, dims, values: np.ndarray) -> Path:
    """State document with full-precision floats, pure or mixed."""
    pairs = np.stack([values.real, values.imag], axis=-1).tolist()
    kind = "pure" if values.ndim == 1 else "mixed"
    path.write_text(json.dumps({"dims": list(dims), "kind": kind,
                                "data": pairs}), encoding="utf-8")
    return path


# ------------------------------------------------------------ op helpers

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``trigme.cli.run_command`` in-process with captured output."""
    import trigme.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = trigme.cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def cli_key(result) -> bytes:
    return f"{result[0]}\n{result[1]}".encode("utf-8")


def float_key(value) -> bytes:
    return repr(value).encode("ascii")


def cli_json(result) -> dict:
    code, out, err = result
    expect(code == 0, f"exit code {code}: {err.strip()}")
    return json.loads(out)


def gme_op(name: str, dims, amps: np.ndarray, check) -> Op:
    """``gme_value`` on a ``PureState`` built from the generated amplitudes."""
    import trigme.states
    import trigme.triangles

    dims = tuple(dims)
    return Op(name,
              lambda: trigme.triangles.gme_value(
                  trigme.states.PureState(dims, amps)),
              check, float_key, amps)


def reference(amps: np.ndarray, dims) -> Callable[[], float]:
    """Oracle value, computed once, the first time a check needs it."""
    return cache(lambda: oracle.gme_reference(amps, tuple(dims)))


def haar_gme_op(name: str, dims, amps: np.ndarray) -> Op:
    ref = reference(amps, dims)

    def check(v):
        expect(0.0 < v < 2.0, f"{name}: value {v!r} outside (0, 2)")
        close(v, ref(), 1e-9, name)

    return gme_op(name, dims, amps, check)


def analyze_op(name: str, path: Path, check, *extra: str) -> Op:
    argv = ["analyze", str(path), "--json", *extra]
    return Op(name, lambda: run_cli(argv), lambda r: check(cli_json(r)),
              cli_key, path)


def analyze_haar(name: str, path: Path, dims, amps) -> Op:
    ref = reference(amps, dims)
    whole = [list(range(1, len(dims) + 1))]

    def check(doc):
        close(doc["f_total"], ref(), 1e-9, name)
        expect(doc["is_gme"] and doc["factorization"]["factors"] == whole,
               f"{name}: Haar state not reported GME")

    return analyze_op(name, path, check)


def analyze_value(name: str, path: Path, want: float) -> Op:
    return analyze_op(name, path,
                      lambda doc: close(doc["f_total"], want, 1e-9, name))


def analyze_biseparable(name: str, path: Path, blocks) -> Op:
    def check(doc):
        expect(doc["f_total"] == 0.0, f"{name}: F = {doc['f_total']!r}")
        got = doc["factorization"]["factors"]
        expect(got == blocks, f"{name}: factors {got}, built {blocks}")

    return analyze_op(name, path, check)


# ------------------------------------------------------------- workloads

def cli_mix(seed: int, workdir: Path) -> list[Op]:
    """The user's command traffic: analyze, classify, witness, random,
    check-inequalities, all through ``run_command`` in-process."""
    from trigme.stateio import fixture_path

    ops: list[Op] = []
    for k, dims in enumerate([(2,) * 4, (2,) * 5, (2,) * 6, (2,) * 7,
                              (2,) * 8, (3, 3, 3), (3, 3, 3, 3)]):
        amps = haar(dims, rng_for(seed, 1, k))
        label = "x".join(map(str, dims))
        path = write_document(workdir / f"haar-{label}.json", dims, amps)
        ops.append(analyze_haar(f"analyze haar {label}", path, dims, amps))
    for k, (dims, size) in enumerate([((2,) * 5, 2), ((2,) * 8, 3),
                                      ((3, 3, 3, 3), 2)]):
        amps, blocks = biseparable(dims, size, rng_for(seed, 2, k))
        label = "x".join(map(str, dims))
        path = write_document(workdir / f"bisep-{label}.json", dims, amps)
        ops.append(analyze_biseparable(f"analyze bisep {label}", path,
                                       blocks))
    for label, dims, amps, want in [
            ("ghz4", (2,) * 4, ghz(4), 1.0),
            ("ghz8", (2,) * 8, ghz(8), 1.0),
            ("w3", (2,) * 3, w(3), 8.0 / 9.0),
            ("w4", (2,) * 4, w(4), math.sqrt(2.0 / 3.0))]:
        path = write_document(workdir / f"{label}.json", dims, amps)
        ops.append(analyze_value(f"analyze {label}", path, want))

    appendix_c = fixture_path("appendix_c.json")

    def check_appendix_c(doc):
        expect(doc["f_total"] == 0.0, f"appendix_c: F = {doc['f_total']!r}")
        got = doc["factorization"]["factors"]
        expect(got == [[1], [2], [3, 4]], f"appendix_c: factors {got}")

    ops.append(analyze_op("analyze appendix_c", appendix_c,
                          check_appendix_c, "--tol", "1e-3"))
    classify_argv = ["classify", str(appendix_c), "--tol", "1e-3"]

    def check_classify(result):
        code, out, err = result
        expect(code == 0, f"classify exit {code}: {err.strip()}")
        expect("factors: {1},{2},{3,4}\nnot GME\n" in out,
               f"classify appendix_c: {out!r}")

    ops.append(Op("classify appendix_c", lambda: run_cli(classify_argv),
                  check_classify, cli_key, appendix_c))

    def witness_op(name: str, path: Path, want: dict[str, float]) -> Op:
        def check(result):
            doc = cli_json(result)
            expect(doc["purification_rank"] == 2, f"{name}: rank "
                   f"{doc['purification_rank']}")
            for conv, value in want.items():
                close(doc["witness"][conv], value, 1e-9, f"{name} {conv}")

        argv = ["witness", str(path), "--json"]
        return Op(name, lambda: run_cli(argv), check, cli_key, path)

    ops.append(witness_op("witness appendix_e",
                          fixture_path("appendix_e.json"),
                          {"concurrence": math.sqrt(2.0 / 3.0),
                           "squared": (5.0 / 12.0) ** 0.25}))
    mix = rank2((2, 2, 2), rng_for(seed, 3))
    pur, rank = oracle.purification(mix)
    mix_path = write_document(workdir / "rank2-2x2x2.json", (2, 2, 2), mix)
    ops.append(witness_op(
        "witness rank2 2x2x2", mix_path,
        {"concurrence": oracle.gme_reference(pur, (2, 2, 2, rank)),
         "squared": oracle.gme_reference(pur, (2, 2, 2, rank), True)}))

    ops.append(random_op(workdir / "random-out.json", (2,) * 5,
                         int(rng_for(seed, 4).integers(2 ** 31))))

    ineq_argv = ["check-inequalities", "--dims", "2,2,2,2", "--trials", "4",
                 "--seed", str(int(rng_for(seed, 5).integers(2 ** 31)))]

    def check_ineq(result):
        code, out, err = result
        expect(code == 0 and out.endswith("all inequalities hold\n"),
               f"check-inequalities exit {code}: {out!r} {err!r}")

    ops.append(Op("check-inequalities 2x2x2x2", lambda: run_cli(ineq_argv),
                  check_ineq, cli_key, ineq_argv))
    return ops


def random_op(path: Path, dims, seed: int) -> Op:
    """``random --out`` followed by a re-parse of the written file.

    trigme documents its generator as PCG64 seeded with ``seed``
    drawing real then imaginary standard normals, so the expected
    amplitudes are rebuilt here and compared bit for bit.
    """
    import trigme.stateio

    argv = ["random", "--dims", ",".join(map(str, dims)), "--seed",
            str(seed), "--out", str(path)]
    want = haar(dims, np.random.default_rng(seed))

    def run():
        code, _, err = run_cli(argv)
        return code, err, trigme.stateio.parse_state_file(path).amplitudes

    def check(result):
        code, err, amps = result
        expect(code == 0, f"random exit {code}: {err.strip()}")
        expect(np.array_equal(amps, want),
               "random --out does not round-trip bit-exactly")

    return Op("random --out + reparse", run, check,
              lambda _: path.read_bytes(), (tuple(dims), seed))


def pure_wide(seed: int, workdir: Path) -> list[Op]:
    """Many parties, qubits: the triangle stage dominates."""
    ops = []
    for n in (10, 11, 12):
        dims = (2,) * n
        ops.append(haar_gme_op(f"gme haar 2^{n}", dims,
                               haar(dims, rng_for(seed, 10, n))))
    ops.append(gme_op("gme ghz10", (2,) * 10, ghz(10),
                      lambda v: close(v, 1.0, 1e-9, "ghz10")))
    # the zero triangles of a 5|6 split appear only at the last level
    # (4), so the op still builds the whole cut table and every level
    amps, _ = biseparable((2,) * 11, 5, rng_for(seed, 11))
    ops.append(gme_op("gme bisep 2^11", (2,) * 11, amps,
                      lambda v: expect(v == 0.0, f"bisep 2^11: value {v!r}")))
    return ops


def pure_deep(seed: int, workdir: Path) -> list[Op]:
    """Few parties, large local dimension: the marginal kernel dominates."""
    ops = []
    for r in range(2):
        for dims in ((16,) * 4, (12,) * 5, (24,) * 4):
            label = f"{dims[0]}^{len(dims)}"
            ops.append(haar_gme_op(f"gme haar {label} #{r}", dims,
                                   haar(dims, rng_for(seed, 20, dims[0], r))))
    # every cut of a qudit GHZ state has purity 1/d, so every triangle
    # is equilateral with edge sqrt(2 (1 - 1/d)) and area 2 (1 - 1/d)
    ops.append(gme_op("gme ghz 16^4", (16,) * 4, ghz(4, 16),
                      lambda v: close(v, 2.0 * (1.0 - 1.0 / 16.0), 1e-9,
                                      "ghz 16^4")))
    return ops


def roof(seed: int, workdir: Path) -> list[Op]:
    """Convex-roof upper bounds: the optimizer in ``mixed`` dominates."""
    from trigme.stateio import fixture_path

    _, appendix_e = read_document(fixture_path("appendix_e.json"))
    instances = [
        (GHZ_MIX_NAME, (2, 2, 2), ghz000_mixture()),
        ("roof appendix_e", (2, 2, 2), appendix_e),
        ("roof rank2 3x3x3", (3, 3, 3), rank2((3, 3, 3), rng_for(seed, 30))),
        ("roof rank2 2x2x2x2", (2,) * 4, rank2((2,) * 4, rng_for(seed, 31))),
    ]
    # Two optimizer seeds per instance: the iteration count per restart
    # is capped, but the evaluations per iteration depend on the start
    # point, so one seed alone makes the unit's cost seed-dependent.
    ops = [roof_op(f"{name} #{k}", dims, rho,
                   int(rng_for(seed, 32, i, k).integers(2 ** 31)))
           for k in range(2) for i, (name, dims, rho) in enumerate(instances)]
    ops.append(roof_op(CLASSICAL_MIX_NAME, (2, 2, 2), classical_mixture(),
                       int(rng_for(seed, 33).integers(2 ** 31))))
    return ops


def roof_op(name: str, dims, rho: np.ndarray, seed: int) -> Op:
    import trigme.mixed
    import trigme.states
    from trigme.triangles import EdgeConvention

    config = trigme.mixed.ConvexRoofConfig(
        restarts=ROOF_RESTARTS, max_iterations=ROOF_MAX_ITERATIONS, seed=seed)

    def run():
        return trigme.mixed.convex_roof_upper_bound(
            trigme.states.DensityMatrix(dims, rho),
            EdgeConvention.CONCURRENCE, config)

    def check(res):
        expect(math.isfinite(res.value) and res.value >= 0.0,
               f"{name}: value {res.value!r}")
        expect(res.value <= res.spectral_value + 1e-9,
               f"{name}: {res.value!r} above spectral {res.spectral_value!r}")
        if name.startswith(GHZ_MIX_NAME):
            close(res.value, GHZ_MIX_REFERENCE, 2e-3, name)
        if name == CLASSICAL_MIX_NAME:
            expect(res.value <= 1e-6, f"{name}: value {res.value!r}")
            expect(set(res.history) == {res.spectral_value},
                   f"{name}: optimizer ran on a zero-value ensemble")

    return Op(name, run, check, lambda res: float_key(res.value),
              (rho, seed))


BUILDERS = {"cli-mix": cli_mix, "pure-wide": pure_wide,
            "pure-deep": pure_deep, "roof": roof}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The unit of ops for ``workload``, generated from ``seed``."""
    return BUILDERS[workload](seed, workdir)
