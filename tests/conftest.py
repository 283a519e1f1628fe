import sys
from pathlib import Path

import pytest

from trigme.selftest import appendix_c_state
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
    return appendix_c_state()


@pytest.fixture(scope="session")
def appendix_e_rho():
    from trigme import parse_state_file

    return parse_state_file(fixture_path("appendix_e.json"))
