"""Command line interface.

``analyze`` reads one or more mechanism files and prints a mobility report
per file.  Exit codes: 0 on success, 1 when an analysis fails, 2 when a
file cannot be read or parsed, 3 when the numeric oracle disagrees with
the symbolic result.  A batch run exits with the worst code among its
files.  The base oracle seed comes from --seed or the POC_SEED environment
variable.  numpy and the oracle module load only when --oracle runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import click

from .mobility import analyze_mechanism
from .parser import ParseError, parse_mechanism_text
from .relations import InconsistentRelations, Unsatisfiable
from .report import render_human, render_structured
from .topology import TopologyError

if TYPE_CHECKING:
    from .mobility import MobilityReport
    from .oracle import OracleResult
    from .topology import MechanismTopology

OK = 0
ANALYSIS_ERROR = 1
PARSE_ERROR = 2
ORACLE_MISMATCH = 3


def verify_mechanism(mech: MechanismTopology, report: MobilityReport, seeds) -> OracleResult:
    """The numeric oracle's verify_mechanism, imported on first call."""
    from .oracle import verify_mechanism as verify

    return verify(mech, report, seeds)


@dataclass
class _FileOutcome:
    path: str
    code: int = OK
    stdout: str = ""
    structured: dict[str, Any] | None = None
    messages: list[str] = field(default_factory=list)


def _analyze_file(
    path: str,
    fmt: str,
    trace: bool,
    strict: bool,
    oracle: bool,
    seed: int,
    seeds: int,
) -> _FileOutcome:
    outcome = _FileOutcome(path=path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        outcome.code = PARSE_ERROR
        outcome.messages.append(f"{path}: {getattr(err, 'strerror', None) or err}")
        return outcome
    try:
        mech = parse_mechanism_text(
            text, on_warning=lambda msg: outcome.messages.append(f"{path}: warning: {msg}")
        )
    except ParseError as err:
        outcome.code = PARSE_ERROR
        outcome.messages.append(f"{path}: {err}")
        return outcome
    try:
        report = analyze_mechanism(mech)
        if strict and report.assumptions:
            outcome.code = ANALYSIS_ERROR
            outcome.messages.append(f"{path}: error: {report.assumptions[0]}")
            return outcome
        result = None
        if oracle:
            result = verify_mechanism(mech, report, range(seed, seed + seeds))
    except (InconsistentRelations, Unsatisfiable, TopologyError) as err:
        outcome.code = ANALYSIS_ERROR
        outcome.messages.append(f"{path}: error: {err}")
        return outcome
    if result is not None and not result.all_agree:
        outcome.code = ORACLE_MISMATCH
        outcome.messages.append(
            f"{path}: oracle mismatch on "
            + ", ".join(f"seed {c.seed}" for c in result.comparisons if not c.agrees)
        )
    if fmt == "human":
        outcome.stdout = render_human(report, trace=trace, oracle=result)
    else:
        outcome.structured = render_structured(report, trace=trace, oracle=result)
    return outcome


@click.group()
def main() -> None:
    """Mobility analysis of parallel mechanisms from topology files."""


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path())
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["human", "structured"]),
    default="human",
    show_default=True,
    help="Output shape: plain text or JSON.",
)
@click.option("--trace", is_flag=True, help="Include the analysis walkthrough.")
@click.option(
    "--policy",
    type=click.Choice(["general", "strict"]),
    default="general",
    show_default=True,
    help="How to treat relations the topology leaves open: assume general "
    "position or fail.",
)
@click.option("--oracle", is_flag=True, help="Cross-check against the numeric oracle.")
@click.option(
    "--seeds",
    type=click.IntRange(min=1),
    default=20,
    show_default=True,
    help="Number of numeric oracle seeds.",
)
@click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=None,
    envvar="POC_SEED",
    help="Base oracle seed [default: 0, or POC_SEED from the environment].",
)
@click.pass_context
def analyze(
    ctx: click.Context,
    files: tuple[str, ...],
    fmt: str,
    trace: bool,
    policy: str,
    oracle: bool,
    seeds: int,
    seed: int | None,
) -> None:
    """Analyze mechanism topology FILES."""
    base_seed = 0 if seed is None else seed
    strict = policy == "strict"
    outcomes = [
        _analyze_file(path, fmt, trace, strict, oracle, base_seed, seeds) for path in files
    ]
    for outcome in outcomes:
        for message in outcome.messages:
            click.echo(message, err=True)
    documents = [o.structured for o in outcomes if o.structured is not None]
    if fmt == "structured" and documents:
        payload = documents[0] if len(files) == 1 else documents
        click.echo(json.dumps(payload, indent=2))
    else:
        texts = [o.stdout for o in outcomes if o.stdout]
        click.echo("\n".join(texts), nl=False)
    code = max((o.code for o in outcomes), default=OK)
    if code != OK:
        ctx.exit(code)


def run(argv: list[str] | None = None) -> int:
    """Invoke the CLI programmatically, returning its exit code."""
    try:
        result = main.main(args=argv, standalone_mode=False)
    except click.ClickException as err:
        err.show()
        return PARSE_ERROR
    except click.exceptions.Abort:
        return 130
    return int(result) if isinstance(result, int) else OK
