"""trigme benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload pure-wide --seed 1 --seconds 15 \
        --trace 0

The loop repeats the workload's unit of ops until ``--seconds`` have
passed, always finishing the unit it is in, so every run measures the
same mix.  Every output is checked.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` the layer wrappers from ``tracing.py`` are installed for
the first half of the time, the same units then run again untraced to
measure the tracing overhead, and the object holds the per-layer
metrics instead.  The run record and
the spans go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STARTUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
P90_MIN_OPS = 100

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "states.validate_calls": "count", "states.validate_us": "us",
    "states.marginal_flops": "flop", "states.marginal_bytes": "B",
    "concurrence.cut_calls": "count", "concurrence.cut_us": "us",
    "concurrence.table_calls": "count", "concurrence.self_ms": "ms",
    "concurrence.table_useful_ratio": "ratio",
    "triangles.count": "count", "triangles.self_ms": "ms",
    "triangles.us_per_triangle": "us",
    "classify.self_ms": "ms", "reporting.emit_ms": "ms",
    "reporting.bytes": "B", "stateio.parse_ms": "ms",
    "stateio.render_ms": "ms", "cli.self_ms": "ms",
    "cli.import_scipy_s": "s",
    "mixed.restarts": "count", "mixed.nfev_per_restart": "count",
    "mixed.nit_per_restart": "count", "mixed.converged_ratio": "ratio",
    "mixed.improving_ratio": "ratio", "mixed.gme_calls": "count",
    "mixed.gme_us": "us", "mixed.optimizer_self_s": "s",
    "mixed.bound_excess": "1", "mixed.witness_ms": "ms",
    "trace.overhead_pct": "%",
}


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def startup_seconds(samples: int) -> float:
    """Median wall time of a fresh ``python -m trigme.cli --version``.

    One unmeasured run first, so bytecode compilation is not counted.
    """
    cmd = [sys.executable, "-m", "trigme.cli", "--version"]
    times = []
    for k in range(samples + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=cli_env(), cwd=ROOT, timeout=120,
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith("trigme "):
            raise RuntimeError(f"trigme --version failed: {proc.stderr}")
        if k:
            times.append(elapsed)
    return statistics.median(times)


def scipy_import_seconds(samples: int) -> float:
    """Median cumulative import time of scipy modules imported from
    outside scipy, read from ``python -X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-m", "trigme.cli",
           "--version"]
    values = []
    for _ in range(samples):
        proc = subprocess.run(cmd, env=cli_env(), cwd=ROOT, timeout=120,
                              capture_output=True, text=True, check=True)
        values.append(scipy_cumulative_us(proc.stderr) / 1e6)
    return statistics.median(values)


def scipy_cumulative_us(importtime: str) -> int:
    """Sum of the cumulative times of top-level scipy imports.

    ``-X importtime`` prints each module after its children, indented
    by depth; reading the lines backwards gives parents first.
    """
    total = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split("|")
        if not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += int(fields[1])
        stack.append((depth, name))
    return total


def read_cache_size(index: int) -> str:
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def cache_bytes(size: str) -> int:
    """Bytes in a sysfs cache size such as ``2048K``; 0 if unknown."""
    scale = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}
    if size[:-1].isdigit() and size[-1] in scale:
        return int(size[:-1]) * scale[size[-1]]
    return int(size) if size.isdigit() else 0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30
                                ).stdout.strip() or "not a git checkout"
    except OSError:
        commit = "git not available"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2": read_cache_size(2),
        "l3": read_cache_size(3),
        "commit": commit,
        "seed": seed,
    }


def run_op(op, index: int, tracer):
    """Run and check one op; returns (output, seconds in the program,
    error message or None)."""
    from workloads import CheckFailed

    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op_span(index):
                out = op.run()
        elapsed = time.perf_counter() - start
    except Exception as exc:  # the loop keeps going; the op counts failed
        return None, time.perf_counter() - start, \
            f"{type(exc).__name__}: {exc}"
    try:
        op.check(out)
        key = op.key(out)
        if op.first is None:
            op.first = key
        elif key != op.first:
            raise CheckFailed("output differs from its first run")
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return out, elapsed, f"{type(exc).__name__}: {exc}"
    return out, elapsed, None


class Loop:
    """Closed loop, one client: the next op starts when the last ends."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.units = 0
        self.ghz_mix_values: list[float] = []

    def unit(self, tracer=None) -> None:
        from workloads import GHZ_MIX_NAME

        for op in self.ops:
            out, elapsed, error = run_op(op, len(self.latencies), tracer)
            self.latencies.append(elapsed)
            if error is not None:
                self.errors.append(f"{op.name}: {error}")
            elif op.name.startswith(GHZ_MIX_NAME):
                self.ghz_mix_values.append(out.value)
        self.units += 1

    def for_seconds(self, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        while self.units == 0 or time.perf_counter() - start < seconds:
            self.unit(tracer)


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.first or b"")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS/OpenMP pinned to one thread before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the CLI takes its default seed from GME_SEED; reports must not
    # depend on the caller's environment
    os.environ.pop("GME_SEED", None)
    if not (SRC / "trigme" / "__init__.py").is_file():
        print(f"perfbench: no trigme sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trigme
    if Path(trigme.__file__).resolve().parent != SRC / "trigme":
        print(f"perfbench: imported trigme from {trigme.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    import tracing
    import workloads

    env = environment(args.seed)
    ops = workloads.build(args.workload, args.seed, workdir)
    loop = Loop(ops)
    # warm-up: the first op once, unmeasured, so lazy imports and
    # first-call set-up inside numpy and scipy are not timed
    warm = Loop(ops[:1])
    warm.unit()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, 1 client", "env": env}
    if args.trace:
        # half the time traced, then the same units again untraced
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            loop.for_seconds(args.seconds / 2, tracer)
        traced_s = sum(loop.latencies)
        replay = Loop(ops)
        for _ in range(loop.units):
            replay.unit()
        untraced_s = sum(replay.latencies)
        metrics = tracing.layer_metrics(tracer, len(loop.latencies))
        metrics["cli.import_scipy_s"] = scipy_import_seconds(
            IMPORTTIME_SAMPLES)
        metrics["mixed.bound_excess"] = max(
            (v - workloads.GHZ_MIX_REFERENCE for v in loop.ghz_mix_values),
            default=0.0)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1)
        if int(tracer.self_ns().min(initial=0)) < 0:
            loop.errors.append("span nesting: negative self time")
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        unit_of = LAYER_UNITS
        errors = warm.errors + loop.errors + replay.errors
        attempted = (len(warm.latencies) + len(loop.latencies)
                     + len(replay.latencies))
    else:
        loop.for_seconds(args.seconds)
        lat = loop.latencies
        metrics = {
            "setup_s": startup_seconds(STARTUP_SAMPLES),
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(lat) >= P90_MIN_OPS:
            record["latency_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
        unit_of = END_TO_END_UNITS
        errors = warm.errors + loop.errors
        attempted = len(warm.latencies) + len(lat)

    per_op = {op.name: statistics.median(loop.latencies[k::len(ops)]) * 1e3
              for k, op in enumerate(ops)}
    record.update(ops=len(loop.latencies), units=loop.units,
                  op_median_ms=per_op,
                  error_rate=len(errors) / attempted,
                  errors=errors[:20], output_sha256=digest(ops),
                  metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for error in errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, "
          f"1 client  {loop.units} units x {len(ops)} ops  "
          f"error_rate {record['error_rate']:g}")
    print("env " + json.dumps(env))
    if args.workload == "pure-deep":
        sizes = sorted({op.input.nbytes for op in ops})
        l3 = cache_bytes(env["l3"])
        verdict = ("none exceeds L3" if l3 and sizes[-1] <= l3
                   else "L3 size unknown" if not l3 else "some exceed L3")
        print("working set: amplitude vectors "
              + ", ".join(f"{b / 2 ** 20:.1f}" for b in sizes)
              + f" MiB against L2 {env['l2']} per core and L3 {env['l3']}; "
              + verdict)
    print(f"output sha256 {record['output_sha256']}")
    if "latency_p90_ms" in record:
        print(f"latency_p90_ms {record['latency_p90_ms']:.6g} ms "
              f"({len(loop.latencies)} ops)")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {unit_of[key]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
