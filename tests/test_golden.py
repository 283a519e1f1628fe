"""Byte-for-byte regression against reports and values in ``golden/``.

The golden files pin the exact output of the pure-state pipeline: the
``analyze --json`` report of every shipped pure or rank-1 fixture and
of two seeded 3-party Haar states, the text and ``analyze --json``
reports of seeded Haar 2^5, 2^6 and 2^8 states and biseparable 2^6
and 3|5 2^8 products (triangles above one, and zero triangles), the
``witness --json`` outcome of the two mixed fixtures, the text and
``witness --json`` reports of the GHZ4 and W4 pure documents, the
``check-inequalities`` summary on seeded 2^4 and 3x3x3 Haar states,
the ``classify`` output and the text and ``analyze --json`` reports
of a GME 2^4 state with a marginal cut,
``repr`` of ``gme_value`` on seeded Haar states under both edge
conventions, the same and every cut concurrence on seeded qudit states
where some cuts are cheaper on their complement side, and
``repr`` of every number a small convex-roof search returns (value,
spectral value, history and decomposition weights).  Each
CLI golden holds the exit code, stdout and stderr, so a refusal (the
rounded ``appendix_e_alt`` fails the witness's 1e-9 trace check) is
pinned as well.  A change that alters any value in its last bit, or
any report byte, fails here.

Regenerate (only when a value is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from trigme import (ConvexRoofConfig, DensityMatrix, EdgeConvention,
                    PureState, all_cut_concurrences, convex_roof_upper_bound,
                    ghz_state, gme_value, haar_random_pure, parse_state_file,
                    tensor_product)
from trigme.cli import run_command
from trigme.stateio import fixture_path, write_state_file
from oracles import ghz_000_mixture

GOLDEN = Path(__file__).parent / "golden"

ANALYZE_CASES = {
    f"analyze-{name}-{conv}": (
        ["analyze", name + ".json", "--json", "--convention", conv]
        + extra)
    for name, extra in (("ghz4", []), ("w4", []),
                        ("appendix_c", ["--tol", "1e-3"]),
                        ("haar3-4003", []), ("haar3-4054", []))
    for conv in ("concurrence", "squared")
}


def near_product_ghz4(eps: float) -> PureState:
    """A 2|2 Haar product plus ``eps`` GHZ4, normalised."""
    product = tensor_product([haar_random_pure([2, 2], 4207),
                              haar_random_pure([2, 2], 4208)])
    v = product.amplitudes + eps * ghz_state(4).amplitudes
    return PureState((2, 2, 2, 2), v / np.linalg.norm(v))


# Seeded states, written out at test time.  Under the concurrence
# convention, seed 4054's unrounded total and level value were once
# exp(log(area)), one bit off the area that gme_value gives; they are
# the area now.  The report rounds to 10 significant digits, so its
# bytes are the same either way (these goldens predate the fix).
STATE_FILES = {
    "haar3-4003.json": lambda: haar_random_pure((2, 2, 2), 4003),
    "haar3-4054.json": lambda: haar_random_pure((2, 2, 2), 4054),
    "haar5-4205.json": lambda: haar_random_pure((2,) * 5, 4205),
    "haar6-4206.json": lambda: haar_random_pure((2,) * 6, 4206),
    "biseparable6-4207.json": lambda: tensor_product(
        [haar_random_pure([2, 2], 4207), haar_random_pure([2] * 4, 4208)]),
    "haar8-4218.json": lambda: haar_random_pure((2,) * 8, 4218),
    "biseparable8-4219.json": lambda: tensor_product(
        [haar_random_pure([2] * 3, 4219), haar_random_pure([2] * 5, 4220)]),
    "marginal4-4207.json": lambda: near_product_ghz4(3e-6),
}
WITNESS_CASES = {
    f"witness-{name}": ["witness", name + ".json", "--json"]
    for name in ("appendix_e", "appendix_e_alt")
}
CHECK_CASES = {
    "check-inequalities-2x2x2x2": ["check-inequalities", "--dims", "2,2,2,2",
                                   "--trials", "4"],
    "check-inequalities-3x3x3": ["check-inequalities", "--dims", "3,3,3"],
}
# C(12|34) = 3.84e-6 is within 10x of the classifier's tolerance, so
# the cut is reported as marginal by classify and analyze.
CLASSIFY_CASES = {"classify-marginal4-4207": ["classify",
                                             "marginal4-4207.json"]}
CLI_CASES = {**ANALYZE_CASES, **WITNESS_CASES, **CHECK_CASES,
             **CLASSIFY_CASES}
# A pure document is scored as loaded; each file holds the text report
# followed by the --json one.
PURE_WITNESS_CASES = {
    f"witness-{name}": (["witness", name + ".json"],
                        ["witness", name + ".json", "--json"])
    for name in ("ghz4", "w4")
}
# Laid out as the pure witness cases.  Of the 20 triangles of the 2^5
# state, 18 (concurrence) and 10 (squared) are above area one; of the
# 90 of the 2^6 state, 88 and 80; of the 504 of the 2^8 state, all,
# over three levels.  The products have zero triangles: the 2^8 one
# has 8, at levels 2 and 3, beside 458 and 434 above one.  The GME
# 2^4 state near a 2|2 product has the marginal cut 1,2|3,4.
ANALYZE_TEXT_CASES = {
    f"analyze-{name}-{conv}": (
        ["analyze", name + ".json", "--convention", conv],
        ["analyze", name + ".json", "--convention", conv, "--json"])
    for name in ("haar5-4205", "haar6-4206", "biseparable6-4207",
                 "haar8-4218", "biseparable8-4219", "marginal4-4207")
    for conv in ("concurrence", "squared")
}
GME_STATES = ([(f"haar-2^{n}", (2,) * n, 4000 + n) for n in range(4, 13)]
              + [("haar-3x3x3x3", (3, 3, 3, 3), 4100),
                 ("haar-3x2x4x2x3", (3, 2, 4, 2, 3), 4101)])
# Each has cuts whose marginal is smaller on the complement side: 1|2,3
# of 5x2x2, the three 2|2 cuts of 6x2x2x2 and 1,2|3,4 of 2x7x2x3.
COMPLEMENT_STATES = [("haar-5x2x2", (5, 2, 2), 4400),
                     ("haar-6x2x2x2", (6, 2, 2, 2), 4401),
                     ("haar-2x7x2x3", (2, 7, 2, 3), 4402)]


def rank2_mixture(dims, seed: int) -> DensityMatrix:
    """5/8 and 3/8 of two seeded Haar states."""
    a, b = (haar_random_pure(dims, seed + k).amplitudes for k in (0, 1))
    return DensityMatrix(dims, 0.625 * np.outer(a, a.conj())
                         + 0.375 * np.outer(b, b.conj()))


# Mixed states and (restarts, seed) of a small roof search on each:
# every search runs under both conventions, capped at 100 iterations.
ROOF_CASES = {
    "ghz000-mix": (lambda: DensityMatrix((2, 2, 2), ghz_000_mixture()),
                   1, 4300),
    "appendix_e": (lambda: parse_state_file(fixture_path("appendix_e.json")),
                   2, 4301),
    "rank2-3x3x3": (lambda: rank2_mixture((3, 3, 3), 4302), 1, 4303),
    "rank2-2^4": (lambda: rank2_mixture((2,) * 4, 4304), 1, 4305),
}


def state_path(name: str, tmp: str) -> str:
    if name not in STATE_FILES:
        return str(fixture_path(name))
    path = Path(tmp) / name
    write_state_file(STATE_FILES[name](), path)
    return str(path)


def cli_output(argv: list[str]) -> str:
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[1].endswith(".json"):
            argv[1] = state_path(argv[1], tmp)
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(argv)
    # the state file's path is machine-specific; its name is not
    stderr = err.getvalue().replace(argv[1], Path(argv[1]).name)
    return (f"exit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{stderr}")


def gme_lines() -> str:
    lines = []
    for label, dims, seed in GME_STATES:
        psi = haar_random_pure(dims, seed)
        for conv in EdgeConvention:
            lines.append(f"{label} seed={seed} {conv.value} "
                         f"{gme_value(psi, conv)!r}")
    return "\n".join(lines) + "\n"


def complement_lines() -> str:
    lines = []
    for label, dims, seed in COMPLEMENT_STATES:
        psi = haar_random_pure(dims, seed)
        for conv in EdgeConvention:
            lines.append(f"{label} seed={seed} {conv.value} "
                         f"{gme_value(psi, conv)!r}")
        table = all_cut_concurrences(psi, len(dims) // 2)
        for cut, value in table.entries.items():
            lines.append(f"{label} seed={seed} cut {cut.label()} {value!r}")
    return "\n".join(lines) + "\n"


def roof_lines() -> str:
    lines = []
    for label, (make_rho, restarts, seed) in ROOF_CASES.items():
        rho = make_rho()
        config = ConvexRoofConfig(restarts=restarts, max_iterations=100,
                                  seed=seed)
        for conv in EdgeConvention:
            res = convex_roof_upper_bound(rho, conv, config)
            weights = tuple(p for p, _ in res.decomposition.members)
            lines += [f"{label} restarts={restarts} seed={seed} {conv.value}",
                      f"  value {res.value!r}",
                      f"  spectral {res.spectral_value!r}",
                      f"  history {res.history!r}",
                      f"  weights {weights!r}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_report_bytes_match_golden(name):
    argv = CLI_CASES[name]
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert cli_output(argv) == want


@pytest.mark.parametrize("name", sorted(PURE_WITNESS_CASES))
def test_pure_witness_bytes_match_golden(name):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert "".join(map(cli_output, PURE_WITNESS_CASES[name])) == want


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT_CASES))
def test_analyze_text_and_json_bytes_match_golden(name):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert "".join(map(cli_output, ANALYZE_TEXT_CASES[name])) == want


def test_gme_values_match_golden_bit_for_bit():
    want = (GOLDEN / "gme_values.txt").read_text(encoding="utf-8")
    assert gme_lines() == want


def test_complement_side_cuts_match_golden_bit_for_bit():
    want = (GOLDEN / "complement_values.txt").read_text(encoding="utf-8")
    assert complement_lines() == want


def test_roof_searches_match_golden_bit_for_bit():
    want = (GOLDEN / "roof_values.txt").read_text(encoding="utf-8")
    assert roof_lines() == want


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CLI_CASES.items():
        (GOLDEN / f"{name}.out").write_text(cli_output(argv),
                                            encoding="utf-8")
    for name, argvs in {**PURE_WITNESS_CASES, **ANALYZE_TEXT_CASES}.items():
        (GOLDEN / f"{name}.out").write_text(
            "".join(map(cli_output, argvs)), encoding="utf-8")
    (GOLDEN / "gme_values.txt").write_text(gme_lines(), encoding="utf-8")
    (GOLDEN / "complement_values.txt").write_text(complement_lines(),
                                                  encoding="utf-8")
    (GOLDEN / "roof_values.txt").write_text(roof_lines(), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
