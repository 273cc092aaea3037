"""Rendering of mobility reports.

Two output shapes: a fixed-width human text report and a JSON document.
Both are deterministic functions of the report, so rendered output can be
compared byte for byte.  Both are written straight from the report, the
--trace walkthrough too, and each distinct POC row and list of plain
values is formatted once per process, from bounded caches.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Callable

from .mobility import MobilityReport, classify
from .poc import PocMatrix

if TYPE_CHECKING:
    from .legs import LegPoc
    from .oracle import OracleResult

FORMAT_VERSION = 1


# typed: True == 1, but a row holding True prints True
@lru_cache(maxsize=256, typed=True)
def _fmt_row(*row: int) -> str:
    """A POC row as ``[3 0 0 0 0 0]``, formatted once per distinct row."""
    return "[" + " ".join(map(str, row)) + "]"


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON array (or, with brackets "{}", object) at indent of items
    already written at indent + 2."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


# the JSON text of a leaf, by the exact type of its value
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda value: "null",
}


# typed: each item's exact type is part of the key, as 1 == True
@lru_cache(maxsize=1024, typed=True)
def _leaf_list(indent: str, *items: Any) -> str:
    """The JSON text of a list of leaves at indent, written once per distinct
    list and indent."""
    return _block([_LEAVES[type(item)](item) for item in items], indent)


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


def _leg_entry(lp: LegPoc) -> str:
    """A leg's walkthrough entry: its sub-chain kinds and its POC rows."""
    # an enum's stored _value_, as its .value is a Python-level property
    kinds = " + ".join([s.kind._value_ for s in lp.segments])
    return f"{kinds}; t={_fmt_row(*lp.matrix.t)} r={_fmt_row(*lp.matrix.r)}"


def _trace_text(report: MobilityReport) -> str:
    """The analysis walkthrough as render_human prints it: a numbered line
    per step, then a ``key: value`` line per result of the step."""
    out = ["trace\n  1. topology"]
    out += [f"\n     leg {lp.leg.label}: {lp.leg.signature} (f={lp.leg.f})" for lp in report.legs]
    out.append("\n  2. leg POC matrices")
    out += [f"\n     leg {lp.leg.label}: {_leg_entry(lp)}" for lp in report.legs]
    out.append(f"\n  3. joint DOF total\n     sum: {report.total_joint_dof}")
    n = 3
    for n, (rank, sub) in enumerate(zip(report.loop_ranks, report.sub_pocs), start=4):
        out.append(
            f"\n  {n}. loop {n - 3}: legs 1..{n - 3} with leg {n - 2}\n     xi_t: {rank.xi_t}\n"
            f"     xi_r: {rank.xi_r}\n     xi: {rank.xi}\n     sub-PM t: {_fmt_row(*sub.t)}\n"
            f"     sub-PM r: {_fmt_row(*sub.r)}"
        )
    xi_sum = sum(rank.xi for rank in report.loop_ranks)
    out.append(
        f"\n  {n + 1}. DOF\n     F: {report.total_joint_dof} - {xi_sum} = {report.dof}\n"
        f"  {n + 2}. moving platform POC\n     t: {_fmt_row(*report.poc.t)}\n"
        f"     r: {_fmt_row(*report.poc.r)}\n     class: {report.classification}"
    )
    return "".join(out)


def _trace_json(report: MobilityReport) -> str:
    """The walkthrough as render_json writes its "trace" array at indent 2:
    the steps of render_human's trace block, one object each."""
    legs = report.legs
    topology = [f'"leg {lp.leg.label}": {_quote(f"{lp.leg.signature} (f={lp.leg.f})")}' for lp in legs]
    # sub-chain kinds and rows hold no character that JSON escapes
    leg_pocs = [f'"leg {lp.leg.label}": "{_leg_entry(lp)}"' for lp in legs]
    out = [
        f'[\n    {{\n      "step": 1,\n      "title": "topology",\n      "data": {{\n'
        f'        "legs": {_block(topology, "        ", "{}")}\n      }}\n    }},\n'
        f'    {{\n      "step": 2,\n      "title": "leg POC matrices",\n'
        f'      "data": {_block(leg_pocs, "      ", "{}")}\n    }},\n'
        f'    {{\n      "step": 3,\n      "title": "joint DOF total",\n      "data": {{\n'
        f'        "sum": {report.total_joint_dof}\n      }}\n    }}'
    ]
    n = 3
    for n, (rank, sub) in enumerate(zip(report.loop_ranks, report.sub_pocs), start=4):
        out.append(
            f',\n    {{\n      "step": {n},\n      "title": "loop {n - 3}: legs 1..{n - 3} with leg {n - 2}",\n'
            f'      "data": {{\n        "xi_t": {rank.xi_t},\n        "xi_r": {rank.xi_r},\n'
            f'        "xi": {rank.xi},\n        "sub-PM t": "{_fmt_row(*sub.t)}",\n'
            f'        "sub-PM r": "{_fmt_row(*sub.r)}"\n      }}\n    }}'
        )
    xi_sum = sum(rank.xi for rank in report.loop_ranks)
    out.append(
        f',\n    {{\n      "step": {n + 1},\n      "title": "DOF",\n      "data": {{\n'
        f'        "F": "{report.total_joint_dof} - {xi_sum} = {report.dof}"\n      }}\n    }},\n'
        f'    {{\n      "step": {n + 2},\n      "title": "moving platform POC",\n      "data": {{\n'
        f'        "t": "{_fmt_row(*report.poc.t)}",\n        "r": "{_fmt_row(*report.poc.r)}",\n'
        f'        "class": {_quote(report.classification)}\n      }}\n    }}\n  ]'
    )
    return "".join(out)


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
            f"  t={_fmt_row(*lp.matrix.t)}  r={_fmt_row(*lp.matrix.r)}"
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
        f"  t={_fmt_row(*report.poc.t)}  "
        + _describe_translation(report.poc, report.translation_joints)
    )
    lines.append(
        f"  r={_fmt_row(*report.poc.r)}  "
        + _describe_rotation(report.poc, report.rotation_joints)
    )
    lines.append(f"  class = {report.classification}")
    if oracle is not None:
        lines.append("")
        lines.append(f"oracle: {oracle.agreement}/{len(oracle.comparisons)} agree")
        for comparison in oracle.comparisons:
            if not comparison.agrees:
                lines.append(f"  seed {comparison.seed}: {comparison.detail}")
    if trace:
        lines += ["", _trace_text(report)]
    return "\n".join(lines) + "\n"


def render_json(
    report: MobilityReport,
    trace: bool = False,
    oracle: OracleResult | None = None,
) -> str:
    """The structured report: the format_version 1 JSON document with the
    full analysis result, as ``json.dumps(doc, indent=2)`` writes it."""
    poc = report.poc
    loops = [
        f'{{\n      "xi_t": {rank.xi_t},\n      "xi_r": {rank.xi_r},\n'
        f'      "xi": {rank.xi}\n    }}'
        for rank in report.loop_ranks
    ]
    legs = [
        f'{{\n      "leg": {lp.leg.label},\n      "joints": {_quote(lp.leg.signature)},\n'
        f'      "f": {lp.leg.f},\n      "t": {_leaf_list("      ", *lp.matrix.t)},\n'
        f'      "r": {_leaf_list("      ", *lp.matrix.r)},\n'
        f'      "class": {_quote(classify(lp.matrix))},\n'
        f'      "segments": {_leaf_list("      ", *[s.kind._value_ for s in lp.segments])}\n    }}'
        for lp in report.legs
    ]
    out = [
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "mechanism": {_quote(report.mechanism)},\n'
        f'  "joint_dof_total": {report.total_joint_dof},\n  "dof": {report.dof},\n'
        f'  "class": {_quote(report.classification)},\n'
        f'  "rigid": {"true" if report.rigid else "false"},\n'
        f'  "loops": {_block(loops, "  ")},\n'
        f'  "poc": {{\n    "t": {_leaf_list("    ", *poc.t)},\n'
        f'    "r": {_leaf_list("    ", *poc.r)},\n'
        f'    "owners": {_leaf_list("    ", *poc.owners)},\n'
        f'    "translation_joints": {_leaf_list("    ", *report.translation_joints)},\n'
        f'    "rotation_joints": {_leaf_list("    ", *report.rotation_joints)}\n  }},\n'
        f'  "legs": {_block(legs, "  ")}'
    ]
    if trace:
        out.append(f',\n  "trace": {_trace_json(report)}')
    if oracle is not None:
        mismatches = [
            f'{{\n        "seed": {c.seed},\n        "detail": {_quote(c.detail)}\n      }}'
            for c in oracle.comparisons
            if not c.agrees
        ]
        out.append(
            f',\n  "oracle": {{\n    "seeds": {_leaf_list("    ", *oracle.seeds)},\n'
            f'    "agreement": {oracle.agreement},\n'
            f'    "all_agree": {"true" if oracle.all_agree else "false"},\n'
            f'    "mismatches": {_block(mismatches, "    ")}\n  }}'
        )
    out.append("\n}")
    return "".join(out)


def render_structured(
    report: MobilityReport,
    trace: bool = False,
    oracle: OracleResult | None = None,
) -> dict[str, Any]:
    """The structured report as a dict: render_json's document, parsed."""
    return json.loads(render_json(report, trace=trace, oracle=oracle))
