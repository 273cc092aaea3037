from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from pmmobility import analyze_mechanism, parse_mechanism_file

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def tricept():
    return parse_mechanism_file(FIXTURES / "tricept.mech")


@pytest.fixture(scope="session")
def three_rrc():
    return parse_mechanism_file(FIXTURES / "three_rrc.mech")


@pytest.fixture(scope="session")
def tricept_report(tricept):
    return analyze_mechanism(tricept)


@pytest.fixture(scope="session")
def three_rrc_report(three_rrc):
    return analyze_mechanism(three_rrc)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class CliRunner:
    """Calls a console-script style ``main(args)`` with the output captured."""

    def __init__(self, capsys, monkeypatch) -> None:
        self._capsys = capsys
        self._monkeypatch = monkeypatch

    def invoke(self, main, args, env=None) -> CliResult:
        for name, value in (env or {}).items():
            self._monkeypatch.setenv(name, value)
        self._capsys.readouterr()  # drop anything printed before this call
        try:
            main(args)
            code = 0
        except SystemExit as exit_:
            code = 0 if exit_.code is None else exit_.code
        out, err = self._capsys.readouterr()
        return CliResult(code, out, err)


@pytest.fixture()
def runner(capsys, monkeypatch) -> CliRunner:
    return CliRunner(capsys, monkeypatch)
