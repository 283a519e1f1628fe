"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def same_input(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_input, a, b))
    if isinstance(a, Path):
        return a.read_bytes() == b.read_bytes()
    return a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    dirs = [tmp_path / k for k in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a, b, c = (workloads.build(name, seed, d)
               for seed, d in zip((7, 7, 8), dirs))
    assert [op.name for op in a] == [op.name for op in b]
    assert all(same_input(x.input, y.input) for x, y in zip(a, b))
    assert not all(same_input(x.input, y.input) for x, y in zip(a, c))


def test_wrong_expected_value_counts_as_failed_op():
    amps = workloads.ghz(4)
    good = workloads.gme_op("ghz4", (2,) * 4, amps,
                            lambda v: workloads.close(v, 1.0, 1e-9, "ghz4"))
    wrong = workloads.gme_op("ghz4 wrong", (2,) * 4, amps,
                             lambda v: workloads.close(v, 0.5, 1e-9, "ghz4"))
    loop = run.Loop([good, wrong])
    loop.unit()
    assert len(loop.latencies) == 2
    assert len(loop.errors) == 1 and loop.errors[0].startswith("ghz4 wrong")


def test_changing_output_and_exception_count_as_failed_ops():
    values = iter([1.0, 2.0])
    flaky = workloads.Op("flaky", lambda: next(values), lambda v: None,
                         workloads.float_key)

    def broken():
        raise ValueError("boom")

    raising = workloads.Op("raising", broken, lambda v: None,
                           workloads.float_key)
    loop = run.Loop([flaky, raising])
    loop.unit()
    loop.unit()
    assert len(loop.latencies) == 4
    assert [e.split(":")[0] for e in loop.errors] == ["raising", "flaky",
                                                      "raising"]


def traced(ops):
    tracer = tracing.Tracer()
    loop = run.Loop(ops)
    with tracing.installed(tracer):
        loop.unit(tracer)
    assert loop.errors == []
    return tracer, len(loop.latencies)


def test_spans_nest_and_self_times_are_not_negative(tmp_path):
    import trigme.triangles

    original = trigme.triangles.all_cut_concurrences
    amps = workloads.haar((2,) * 6, workloads.rng_for(0, 1))
    path = workloads.write_document(tmp_path / "s.json", (2,) * 6, amps)
    tracer, _ = traced([workloads.haar_gme_op("gme", (2,) * 6, amps),
                        workloads.analyze_haar("analyze", path, (2,) * 6,
                                               amps)])
    assert trigme.triangles.all_cut_concurrences is original
    a = tracer.arrays()
    assert a["name"].size > 100
    inner = a["parent"] >= 0
    parent = a["parent"][inner]
    assert np.all(a["start"][parent] <= a["start"][inner])
    assert np.all(a["end"][inner] <= a["end"][parent])
    assert np.all(a["op"][inner] == a["op"][parent])
    assert tracer.self_ns().min() >= 0
    names = {tracer.names[i] for i in a["name"]}
    assert {"bench.op", "cli.run_command", "triangles.f_total",
            "classify.finest_factorization", "concurrence.table",
            "concurrence.cut", "states.marginal",
            "reporting.emit", "stateio.parse"} <= names


def test_cut_calls_and_triangle_count_match_closed_forms():
    n = 6
    amps = workloads.haar((2,) * n, workloads.rng_for(0, 2))
    tracer, ops = traced([workloads.haar_gme_op("gme", (2,) * n, amps)])
    metrics = tracing.layer_metrics(tracer, ops)
    # one table of every canonical cut: 2^(N-1) - 1 bipartitions
    assert metrics["concurrence.cut_calls"] == 2 ** (n - 1) - 1
    # levels 1..(N-2)//2, each with N * C(N-1, l) ordered (i, S) pairs
    assert metrics["triangles.count"] == n * (math.comb(n - 1, 1)
                                              + math.comb(n - 1, 2))
    assert metrics["concurrence.table_useful_ratio"] == 1.0


def test_oracle_matches_golden_values():
    assert oracle.gme_reference(workloads.ghz(5), (2,) * 5) == \
        pytest.approx(1.0, abs=1e-12)
    assert oracle.gme_reference(workloads.w(3), (2,) * 3) == \
        pytest.approx(8.0 / 9.0, abs=1e-12)
    assert oracle.gme_reference(workloads.w(4), (2,) * 4, squared=True) == \
        pytest.approx((5.0 / 12.0) ** 0.25, abs=1e-12)


def test_scipy_import_time_counts_top_level_scipy_imports_only():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.linalg._x",
        "import time:        40 |         45 |     scipy.optimize",
        "import time:         1 |         80 |   trigme.mixed",
        "import time:         2 |          2 |   scipy.sparse",
        "import time:         3 |         85 | trigme",
    ])
    assert run.scipy_cumulative_us(text) == 30 + 45 + 2


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roof",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
