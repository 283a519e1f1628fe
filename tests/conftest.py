import sys
from pathlib import Path

import numpy as np
import pytest

from trigme.stateio import fixture_path

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    """Directory of the fixtures shipped as package data."""
    return fixture_path("ghz4.json").parent


@pytest.fixture(scope="session")
def appendix_c_pure():
    """Dominant eigenvector of the appendix_c fixture as a PureState."""
    from trigme import PureState, hermitian_eig, parse_state_file

    rho = parse_state_file(fixture_path("appendix_c.json"), tol=1e-3)
    vals, vecs = hermitian_eig(rho)
    assert vals[1] <= 1e-3
    return PureState(rho.dims, vecs[:, 0] / np.linalg.norm(vecs[:, 0]))


@pytest.fixture(scope="session")
def appendix_e_rho():
    from trigme import parse_state_file

    return parse_state_file(fixture_path("appendix_e.json"))
