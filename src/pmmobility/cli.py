"""Command line interface.

``analyze`` reads one or more mechanism files and prints a mobility report
per file.  Exit codes: 0 on success, 1 when an analysis fails, 2 when a
file cannot be read or parsed or the command line is wrong, 3 when the
numeric oracle disagrees with the symbolic result, 130 when interrupted.
A batch run exits with the worst code among its files.  The base oracle
seed comes from --seed or the POC_SEED environment variable.  numpy and
the oracle module load only when --oracle runs.

The command line is read by hand, with the rules and messages of the click
front end it replaced: ``--opt value`` or ``--opt=value``, options anywhere
among the files, ``--`` ending the options, the last of a repeated option
winning.  A usage error goes to stderr as a usage line, a hint and an
``Error:`` line, and exits 2.  Reports and messages are written verbatim.
"""

from __future__ import annotations

import os
import sys
from difflib import get_close_matches
from typing import TYPE_CHECKING, Any, NamedTuple

from .mobility import analyze_mechanism
from .parser import ParseError, parse_mechanism_text
from .relations import InconsistentRelations, Unsatisfiable
from . import report as _report
from .report import render_human, render_json
from .topology import TopologyError

if TYPE_CHECKING:
    from .mobility import MobilityReport
    from .oracle import OracleResult
    from .topology import MechanismTopology

# Not called here: the benchmark's tracer wraps this name as the structured
# report layer, and reports a missing wrap point as an absent layer.
render_structured = _report.render_structured

OK = 0
ANALYSIS_ERROR = 1
PARSE_ERROR = 2
ORACLE_MISMATCH = 3


def verify_mechanism(mech: MechanismTopology, report: MobilityReport, seeds) -> OracleResult:
    """The numeric oracle's verify_mechanism, imported on first call."""
    from .oracle import verify_mechanism as verify

    return verify(mech, report, seeds)


class _Settings(NamedTuple):
    """The values of an ``analyze`` command line."""

    files: list[str]
    format: str
    trace: bool
    strict: bool
    oracle: bool
    seed: int
    seeds: int


def _read(path: str) -> bytes:
    """The bytes of the file at path, read by one loop of os.read, without
    the buffered reader that open() builds around the descriptor."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def _analyze_file(path: str, settings: _Settings, messages: list[str]) -> tuple[int, Any]:
    """The exit code and rendered report (None when there is none) of one
    file; its warnings and errors go onto messages."""
    try:
        text = _read(path).decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        messages.append(f"{path}: {getattr(err, 'strerror', None) or err}")
        return PARSE_ERROR, None
    try:
        mech = parse_mechanism_text(
            text, on_warning=lambda msg: messages.append(f"{path}: warning: {msg}")
        )
    except ParseError as err:
        messages.append(f"{path}: {err}")
        return PARSE_ERROR, None
    try:
        report = analyze_mechanism(mech)
        if settings.strict and report.assumptions:
            messages.append(f"{path}: error: {report.assumptions[0]}")
            return ANALYSIS_ERROR, None
        result = None
        if settings.oracle:
            seeds = range(settings.seed, settings.seed + settings.seeds)
            result = verify_mechanism(mech, report, seeds)
    except (InconsistentRelations, Unsatisfiable, TopologyError) as err:
        messages.append(f"{path}: error: {err}")
        return ANALYSIS_ERROR, None
    code = OK
    if result is not None and not result.all_agree:
        code = ORACLE_MISMATCH
        messages.append(
            f"{path}: oracle mismatch on "
            + ", ".join(f"seed {c.seed}" for c in result.comparisons if not c.agrees)
        )
    render = render_human if settings.format == "human" else render_json
    return code, render(report, trace=settings.trace, oracle=result)


GROUP_HELP = """\
Usage: {prog} [OPTIONS] COMMAND [ARGS]...

  Mobility analysis of parallel mechanisms from topology files.

Options:
  --help  Show this message and exit.

Commands:
  analyze  Analyze mechanism topology FILES.
"""

ANALYZE_HELP = """\
Usage: {prog} analyze [OPTIONS] FILES...

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

# Usage-line arguments by command path after the program name.
_USAGE = {"": "[OPTIONS] COMMAND [ARGS]...", " analyze": "[OPTIONS] FILES..."}

# The analyze options in declaration order, which is also the order in which
# the values of those not given are checked.  Flags take no value.
_OPTIONS = ("--format", "--trace", "--policy", "--oracle", "--seeds", "--seed", "--help")
_FLAGS = frozenset(("--trace", "--oracle", "--help"))
_CHOICES = {"--format": ("human", "structured"), "--policy": ("general", "strict")}
_MINIMUM = {"--seeds": 1, "--seed": 0}
_DEFAULTS = {"--format": "human", "--policy": "general", "--seeds": "20", "--seed": "0"}


class _UsageError(Exception):
    """A command line that cannot run.  ``command`` is the command path whose
    usage line and help hint come before the message: ``""`` for the group,
    ``" analyze"``, or None for the parser errors that print neither."""

    def __init__(self, message: str, command: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.command = command

    def text(self) -> str:
        if self.command is None:
            return f"Error: {self.message}\n"
        path = _program_name() + self.command
        return (
            f"Usage: {path} {_USAGE[self.command]}\n"
            f"Try '{path} --help' for help.\n\n"
            f"Error: {self.message}\n"
        )


def _program_name() -> str:
    """The program name for usage lines: ``python -m pmmobility`` when run
    as a module, else the base name of the script."""
    path = sys.argv[0]
    package = getattr(sys.modules.get("__main__"), "__package__", None)
    if not package:
        return os.path.basename(path)
    name = os.path.splitext(os.path.basename(path))[0]
    module = package if name == "__main__" else f"{package}.{name}"
    return f"python -m {module.lstrip('.')}"


def _unknown(kind: str, name: str, known: tuple[str, ...], command: str) -> _UsageError:
    """No such option or command, with difflib's close matches as suggestions."""
    matches = sorted(get_close_matches(name, known))
    listed = ", ".join(map(repr, matches))
    if len(matches) > 1:
        hint = f" (Did you mean one of: {listed}?)"
    elif matches:
        hint = f" Did you mean {listed}?"
    else:
        hint = ""
    return _UsageError(f"No such {kind} {name!r}.{hint}", command)


def _option_name(arg: str, known: tuple[str, ...], command: str) -> tuple[str, str | None]:
    """Split ``--name=value`` and check the name; an unknown single-dash
    argument is reported by its first letter, as a short option."""
    name, eq, value = arg.partition("=")
    if name in known:
        return name, value if eq else None
    if arg[1] != "-":
        raise _UsageError(f"No such option {arg[:2]!r}.", command)
    raise _unknown("option", name, known, command)


def _read_group(args: list[str]) -> tuple[bool, list[str]]:
    """Read the options before the command (only --help): whether help was
    asked for, and the arguments from the command on."""
    wants_help = False
    for i, arg in enumerate(args):
        if arg == "--":
            return wants_help, args[i + 1 :]
        if arg[:1] != "-" or len(arg) == 1:
            return wants_help, args[i:]
        _, value = _option_name(arg, ("--help",), "")
        if value is not None:
            raise _UsageError("Option '--help' does not take a value.")
        wants_help = True
    return wants_help, []


def _read_analyze(args: list[str]) -> str | _Settings:
    """The settings of ``analyze ARGS``, or its help screen when asked for."""
    given: dict[str, Any] = {}  # option -> last value (None for a flag), in order of first use
    files: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            files += args[i:]
            break
        if arg[:1] != "-" or len(arg) == 1:
            files.append(arg)
            continue
        name, value = _option_name(arg, _OPTIONS, " analyze")
        if name in _FLAGS:
            if value is not None:
                raise _UsageError(f"Option {name!r} does not take a value.")
        elif value is None:
            if i == len(args):
                raise _UsageError(f"Option {name!r} requires an argument.")
            value = args[i]
            i += 1
        given[name] = value
    if "--help" in given:
        return ANALYZE_HELP
    env_seed = os.environ.get("POC_SEED")
    values = {**_DEFAULTS, **({"--seed": env_seed} if env_seed else {}), **given}
    # Checked in order of first use, then FILES, then in declaration order.
    for name in (*given, "FILES", *_OPTIONS):
        if name == "FILES":
            if not files:
                raise _UsageError("Missing argument 'FILES...'.", " analyze")
        elif name in _CHOICES:
            if values[name] not in _CHOICES[name]:
                choices = ", ".join(map(repr, _CHOICES[name]))
                raise _UsageError(
                    f"Invalid value for {name!r}: {values[name]!r} is not one of {choices}.",
                    " analyze",
                )
        elif name in _MINIMUM:
            values[name] = _integer(name, values[name])
    return _Settings(
        files,
        values["--format"],
        "--trace" in given,
        values["--policy"] == "strict",
        "--oracle" in given,
        values["--seed"],
        values["--seeds"],
    )


def _integer(name: str, value: str | int) -> int:
    try:
        number = int(value)
    except ValueError:
        message = f"{value!r} is not a valid integer range."
    else:
        if number >= _MINIMUM[name]:
            return number
        message = f"{number} is not in the range x>={_MINIMUM[name]}."
    raise _UsageError(f"Invalid value for {name!r}: {message}", " analyze")


def _read_command_line(args: list[str]) -> str | _Settings:
    """The ``analyze`` settings, or the help screen the command line asks for."""
    wants_help, rest = _read_group(args)
    if wants_help:
        return GROUP_HELP
    if not rest:
        raise _UsageError("Missing command.", "")
    if rest[0] != "analyze":
        # an option-like command name is read again as a group option
        if rest[0][:1] and not rest[0][:1].isalnum() and _read_group(rest)[0]:
            return GROUP_HELP
        raise _unknown("command", rest[0], ("analyze",), "")
    return _read_analyze(rest[1:])


def _write(stream, text: str) -> None:
    """Write and flush; a stream closed at start-up (None) drops the text."""
    if stream is not None:
        stream.write(text)
        stream.flush()


def _analyze(settings: _Settings) -> int:
    messages: list[str] = []
    outcomes = [_analyze_file(path, settings, messages) for path in settings.files]
    if messages:
        _write(sys.stderr, "".join(f"{m}\n" for m in messages))
    reports = [report for _, report in outcomes if report is not None]
    if settings.format == "structured" and reports:
        text = reports[0]
        if len(settings.files) > 1:
            # a JSON string holds no raw newline, so this indents each document
            text = "[\n  " + ",\n  ".join([r.replace("\n", "\n  ") for r in reports]) + "\n]"
        _write(sys.stdout, text + "\n")
    else:
        _write(sys.stdout, "\n".join(reports))
    return max(code for code, _ in outcomes)


def run(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        if not args:
            _write(sys.stderr, GROUP_HELP.format(prog=_program_name()))
            return PARSE_ERROR
        try:
            command = _read_command_line(args)
        except _UsageError as err:
            _write(sys.stderr, err.text())
            return PARSE_ERROR
        if isinstance(command, str):
            _write(sys.stdout, command.format(prog=_program_name()))
            return OK
        return _analyze(command)
    except (EOFError, KeyboardInterrupt):
        _write(sys.stderr, "\n")
        return 130
    except BrokenPipeError:
        # The reader went away: exit 1 quietly, with stdout on devnull so
        # that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def main(argv: list[str] | None = None) -> None:
    """Console-script entry point: run the command line and exit with its code."""
    sys.exit(run(argv))
