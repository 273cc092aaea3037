"""The command line's usage contract, byte for byte.

Each case runs ``python -m pmmobility`` in a fresh interpreter with ``src`` on
its path and compares the exit code, stdout and stderr with the exact text
the command line has always printed: help screens, the three-part usage
errors (usage line, hint, ``Error:`` line), the two parser errors that print
only the ``Error:`` line, and a few accepted spellings.  COLUMNS and LINES are
removed from the environment, so help screens are laid out at 80 columns.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pmmobility import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
HINGE = "tests/fixtures/toy_hinge.mech"
TRICEPT = "tests/fixtures/tricept.mech"
RRC_PAIR = "tests/fixtures/rrc_pair.mech"

GROUP_USAGE = (
    "Usage: python -m pmmobility [OPTIONS] COMMAND [ARGS]...\n"
    "Try 'python -m pmmobility --help' for help.\n\n"
)
ANALYZE_USAGE = (
    "Usage: python -m pmmobility analyze [OPTIONS] FILES...\n"
    "Try 'python -m pmmobility analyze --help' for help.\n\n"
)
GROUP_HELP = """\
Usage: python -m pmmobility [OPTIONS] COMMAND [ARGS]...

  Mobility analysis of parallel mechanisms from topology files.

Options:
  --help  Show this message and exit.

Commands:
  analyze  Analyze mechanism topology FILES.
"""
ANALYZE_HELP = """\
Usage: python -m pmmobility analyze [OPTIONS] FILES...

  Analyze mechanism topology FILES.

Options:
  --format [human|structured]  Output shape: plain text or JSON.  [default:
                               human]
  --trace                      Include the analysis walkthrough.
  --policy [general|strict]    How to treat relations the topology leaves
                               open: assume general position or fail.
                               [default: general]
  --oracle                     Cross-check against the numeric oracle.
  --seeds INTEGER RANGE        Number of numeric oracle seeds.  [default: 20;
                               x>=1]
  --seed INTEGER RANGE         Base oracle seed [default: 0, or POC_SEED from
                               the environment].  [x>=0]
  --help                       Show this message and exit.
"""


def _usage_error(usage: str, message: str) -> tuple[int, str, str]:
    return 2, "", f"{usage}Error: {message}\n"


# (test id, arguments, POC_SEED or None, (exit code, stdout, stderr));
# stdout may name a golden file instead of giving the text.
CASES = [
    ("no-arguments", [], None, (2, "", GROUP_HELP)),
    ("group-help", ["--help"], None, (0, GROUP_HELP, "")),
    ("analyze-help", ["analyze", "--help"], None, (0, ANALYZE_HELP, "")),
    (
        "missing-files",
        ["analyze"],
        None,
        _usage_error(ANALYZE_USAGE, "Missing argument 'FILES...'."),
    ),
    (
        "unknown-option",
        ["analyze", "--x", HINGE],
        None,
        _usage_error(ANALYZE_USAGE, "No such option '--x'."),
    ),
    (
        "unknown-option-suggestions",
        ["analyze", "--orcle", HINGE],
        None,
        _usage_error(
            ANALYZE_USAGE,
            "No such option '--orcle'. (Did you mean one of: '--oracle', '--trace'?)",
        ),
    ),
    (
        "unknown-command",
        ["analyz"],
        None,
        _usage_error(GROUP_USAGE, "No such command 'analyz'. Did you mean 'analyze'?"),
    ),
    (
        "bad-choice",
        ["analyze", "--format", "xml", HINGE],
        None,
        _usage_error(
            ANALYZE_USAGE,
            "Invalid value for '--format': 'xml' is not one of 'human', 'structured'.",
        ),
    ),
    (
        "seeds-out-of-range",
        ["analyze", "--seeds=0", HINGE],
        None,
        _usage_error(
            ANALYZE_USAGE, "Invalid value for '--seeds': 0 is not in the range x>=1."
        ),
    ),
    (
        "seed-not-an-integer",
        ["analyze", "--seed", "x", HINGE],
        None,
        _usage_error(
            ANALYZE_USAGE, "Invalid value for '--seed': 'x' is not a valid integer range."
        ),
    ),
    (
        "negative-env-seed",
        ["analyze", HINGE],
        "-1",
        _usage_error(
            ANALYZE_USAGE, "Invalid value for '--seed': -1 is not in the range x>=0."
        ),
    ),
    (
        "non-integer-env-seed",
        ["analyze", HINGE],
        "abc",
        _usage_error(
            ANALYZE_USAGE,
            "Invalid value for '--seed': 'abc' is not a valid integer range.",
        ),
    ),
    (
        "option-without-its-value",
        ["analyze", HINGE, "--seed"],
        None,
        (2, "", "Error: Option '--seed' requires an argument.\n"),
    ),
    (
        "flag-with-a-value",
        ["analyze", "--trace=1", HINGE],
        None,
        (2, "", "Error: Option '--trace' does not take a value.\n"),
    ),
    (
        "options-after-files",
        ["analyze", TRICEPT, "--format=structured", "--trace"],
        None,
        (0, GOLDEN / "tricept.json", ""),
    ),
    (
        "repeated-option-takes-the-last",
        ["analyze", "--policy", "general", RRC_PAIR, "--policy=strict"],
        None,
        (
            1,
            "",
            f"{RRC_PAIR}: error: loop 1 (adding leg 2): cannot decide whether the axis "
            "of joint 1.1 is parallel to the axis of joint 2.1\n",
        ),
    ),
    (
        "double-dash-ends-options",
        ["analyze", "--", "--trace"],
        None,
        (2, "", "--trace: No such file or directory\n"),
    ),
]


def _environment(poc_seed: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("POC_SEED", "COLUMNS", "LINES")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    if poc_seed is not None:
        env["POC_SEED"] = poc_seed
    return env


@pytest.mark.parametrize(
    "args, poc_seed, expected", [pytest.param(*case[1:], id=case[0]) for case in CASES]
)
def test_usage_contract(args, poc_seed, expected):
    code, stdout, stderr = expected
    if isinstance(stdout, Path):
        stdout = stdout.read_text(encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pmmobility", *args],
        cwd=ROOT,
        env=_environment(poc_seed),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, EOFError])
def test_interrupt_returns_130_after_a_newline(monkeypatch, capsys, interrupt):
    def interrupted(*args, **kwargs):
        raise interrupt

    monkeypatch.setattr(cli, "parse_mechanism_text", interrupted)
    assert cli.run(["analyze", str(ROOT / HINGE)]) == 130
    assert capsys.readouterr() == ("", "\n")


def test_broken_stdout_pipe_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read: the first flush fails with EPIPE
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pmmobility", "analyze", "--trace", TRICEPT],
            cwd=ROOT,
            env=_environment(None),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, b"")  # no traceback, no message
