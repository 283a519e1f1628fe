"""Byte-for-byte regression against reports and values in ``golden/``.

The golden files pin the exact output of the pure-state pipeline: the
``analyze --json`` report of every shipped pure or rank-1 fixture and
of two seeded 3-party Haar states, the
``witness --json`` outcome of the two mixed fixtures, and ``repr`` of
``gme_value`` on seeded Haar states under both edge conventions.  Each
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

import pytest

from trigme import EdgeConvention, gme_value, haar_random_pure
from trigme.cli import run_command
from trigme.stateio import fixture_path, write_state_file

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
# Seeded 3-party states, written out at test time.  Under the
# concurrence convention, seed 4054's unrounded total and level value
# were once exp(log(area)), one bit off the area that gme_value gives;
# they are the area now.  The report rounds to 10 significant digits,
# so its bytes are the same either way (these goldens predate the fix).
HAAR_FILES = {"haar3-4003.json": ((2, 2, 2), 4003),
              "haar3-4054.json": ((2, 2, 2), 4054)}
WITNESS_CASES = {
    f"witness-{name}": ["witness", name + ".json", "--json"]
    for name in ("appendix_e", "appendix_e_alt")
}
CLI_CASES = {**ANALYZE_CASES, **WITNESS_CASES}
GME_STATES = ([(f"haar-2^{n}", (2,) * n, 4000 + n) for n in range(4, 13)]
              + [("haar-3x3x3x3", (3, 3, 3, 3), 4100),
                 ("haar-3x2x4x2x3", (3, 2, 4, 2, 3), 4101)])


def state_path(name: str, tmp: str) -> str:
    if name not in HAAR_FILES:
        return str(fixture_path(name))
    dims, seed = HAAR_FILES[name]
    path = Path(tmp) / name
    write_state_file(haar_random_pure(dims, seed), path)
    return str(path)


def cli_output(argv: list[str]) -> str:
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
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


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_report_bytes_match_golden(name):
    argv = CLI_CASES[name]
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert cli_output(argv) == want


def test_gme_values_match_golden_bit_for_bit():
    want = (GOLDEN / "gme_values.txt").read_text(encoding="utf-8")
    assert gme_lines() == want


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CLI_CASES.items():
        (GOLDEN / f"{name}.out").write_text(cli_output(argv),
                                            encoding="utf-8")
    (GOLDEN / "gme_values.txt").write_text(gme_lines(), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
