"""Rendering of mobility reports.

Two output shapes: a fixed-width human text report and a JSON-friendly
dict.  Both are deterministic functions of the report, so rendered output
can be compared byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .mobility import MobilityReport, classify
from .poc import PocMatrix

if TYPE_CHECKING:
    from .oracle import OracleResult

FORMAT_VERSION = 1


def _fmt_row(row: tuple[int, ...]) -> str:
    return "[" + " ".join(map(str, row)) + "]"


def _join_names(labels: tuple[str, ...]) -> str:
    if len(labels) == 1:
        return labels[0]
    return ", ".join(labels[:-1]) + " and " + labels[-1]


def _describe_translation(poc: PocMatrix, labels: tuple[str, ...]) -> str:
    if poc.xi_t == 0:
        return "no translation"
    if poc.xi_t >= 3:
        return "translation in all directions"
    values = [v for v in poc.t if v]
    parts = []
    for label, value in zip(labels, values):
        if label.startswith("P"):
            parts.append(f"along {label}")
        elif value == 2:
            parts.append(f"in the plane normal to {label}")
        else:
            parts.append(f"normal to {label}")
    return "translation " + ", ".join(parts)


def _describe_rotation(poc: PocMatrix, labels: tuple[str, ...]) -> str:
    if poc.xi_r == 0:
        return "no rotation"
    if poc.xi_r >= 3:
        return "rotation in all directions"
    return "rotation about " + _join_names(labels)


def _trace_steps(report: MobilityReport) -> list[dict[str, Any]]:
    """The analysis walkthrough, rebuilt from the report's results."""
    topology = {f"leg {lp.leg.label}": f"{lp.leg.signature} (f={lp.leg.f})" for lp in report.legs}
    leg_pocs = {
        f"leg {lp.leg.label}": " + ".join(s.kind.value for s in lp.segments)
        + f"; t={_fmt_row(lp.matrix.t)} r={_fmt_row(lp.matrix.r)}"
        for lp in report.legs
    }
    sections: list[tuple[str, dict[str, Any]]] = [
        ("topology", {"legs": topology}),
        ("leg POC matrices", leg_pocs),
        ("joint DOF total", {"sum": report.total_joint_dof}),
    ]
    for i, (rank, sub) in enumerate(zip(report.loop_ranks, report.sub_pocs), start=1):
        loop = {
            "xi_t": rank.xi_t,
            "xi_r": rank.xi_r,
            "xi": rank.xi,
            "sub-PM t": _fmt_row(sub.t),
            "sub-PM r": _fmt_row(sub.r),
        }
        sections.append((f"loop {i}: legs 1..{i} with leg {i + 1}", loop))
    xi_sum = sum(rank.xi for rank in report.loop_ranks)
    poc = {"t": _fmt_row(report.poc.t), "r": _fmt_row(report.poc.r), "class": report.classification}
    sections.append(("DOF", {"F": f"{report.total_joint_dof} - {xi_sum} = {report.dof}"}))
    sections.append(("moving platform POC", poc))
    return [{"step": n, "title": t, "data": d} for n, (t, d) in enumerate(sections, start=1)]


def _trace_lines(report: MobilityReport) -> list[str]:
    lines = ["trace"]
    for step in _trace_steps(report):
        lines.append(f"  {step['step']}. {step['title']}")
        for key, value in step["data"].items():
            if isinstance(value, dict):
                for sub_key, sub_value in value.items():
                    lines.append(f"     {sub_key}: {sub_value}")
            else:
                lines.append(f"     {key}: {value}")
    return lines


def render_human(
    report: MobilityReport,
    trace: bool = False,
    oracle: OracleResult | None = None,
) -> str:
    """Plain text report, one mechanism per call."""
    lines = [
        f"mechanism {report.mechanism}",
        f"joints: {report.total_joint_dof} in {len(report.legs)} legs",
        "",
        "leg POC",
    ]
    for lp in report.legs:
        lines.append(
            f"  leg {lp.leg.label}  {lp.leg.signature:<6}  f={lp.leg.f}"
            f"  t={_fmt_row(lp.matrix.t)}  r={_fmt_row(lp.matrix.r)}"
            f"  {classify(lp.matrix)}"
        )
    lines.append("")
    lines.append("loops")
    for idx, rank in enumerate(report.loop_ranks, start=1):
        lines.append(f"  loop {idx}  xi_t={rank.xi_t}  xi_r={rank.xi_r}  xi={rank.xi}")
    xi_sum = sum(rank.xi for rank in report.loop_ranks)
    lines.append("")
    lines.append("DOF")
    lines.append(f"  joint dof {report.total_joint_dof}, loop ranks {xi_sum}")
    lines.append(f"  DOF = {report.dof}")
    if report.rigid:
        lines.append("  rigid structure")
    lines.append("")
    lines.append("moving platform POC")
    lines.append(
        f"  t={_fmt_row(report.poc.t)}  "
        + _describe_translation(report.poc, report.translation_joints)
    )
    lines.append(
        f"  r={_fmt_row(report.poc.r)}  "
        + _describe_rotation(report.poc, report.rotation_joints)
    )
    lines.append(f"  class = {report.classification}")
    if oracle is not None:
        lines.append("")
        lines.append(oracle_summary(oracle))
        for comparison in oracle.comparisons:
            if not comparison.agrees:
                lines.append(f"  seed {comparison.seed}: {comparison.detail}")
    if trace:
        lines.append("")
        lines.extend(_trace_lines(report))
    return "\n".join(lines) + "\n"


def oracle_summary(result: OracleResult) -> str:
    return f"oracle: {result.agreement}/{len(result.comparisons)} agree"


def render_structured(
    report: MobilityReport,
    trace: bool = False,
    oracle: OracleResult | None = None,
) -> dict[str, Any]:
    """JSON-friendly dict with the full analysis result."""
    out: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "mechanism": report.mechanism,
        "joint_dof_total": report.total_joint_dof,
        "dof": report.dof,
        "class": report.classification,
        "rigid": report.rigid,
        "loops": [
            {"xi_t": rank.xi_t, "xi_r": rank.xi_r, "xi": rank.xi}
            for rank in report.loop_ranks
        ],
        "poc": {
            "t": list(report.poc.t),
            "r": list(report.poc.r),
            "owners": list(report.poc.owners),
            "translation_joints": list(report.translation_joints),
            "rotation_joints": list(report.rotation_joints),
        },
        "legs": [
            {
                "leg": lp.leg.label,
                "joints": lp.leg.signature,
                "f": lp.leg.f,
                "t": list(lp.matrix.t),
                "r": list(lp.matrix.r),
                "class": classify(lp.matrix),
                "segments": [segment.kind.value for segment in lp.segments],
            }
            for lp in report.legs
        ],
    }
    if trace:
        out["trace"] = _trace_steps(report)
    if oracle is not None:
        out["oracle"] = {
            "seeds": list(oracle.seeds),
            "agreement": oracle.agreement,
            "all_agree": oracle.all_agree,
            "mismatches": [
                {"seed": c.seed, "detail": c.detail}
                for c in oracle.comparisons
                if not c.agrees
            ],
        }
    return out
