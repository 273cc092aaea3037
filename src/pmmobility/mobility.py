"""Mechanism-level mobility analysis.

Legs are folded into the moving platform one at a time.  Each fold closes
one independent loop: the loop's rank is the union dimension of the
sub-mechanism output so far with the next leg's output, and the new
sub-mechanism output is their intersection.  The DOF is the total joint
DOF minus the sum of the loop ranks, and the final intersection is the
moving platform's POC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .legs import LegPoc, analyze_leg
from .poc import (
    AlongAxis,
    DirectionDescriptor,
    IndeterminateRelation,
    LoopRank,
    MeetLine,
    NormalLine,
    NormalPlane,
    PocMatrix,
    Policy,
    SpanPlane,
    intersect_rotation,
    intersect_translation,
    rotation_view,
    translation_view,
    union_dim,
)
from .relations import AxisRef, RelationGraph, build_relation_graph
from .topology import InvalidMechanism, MechanismTopology, validate_mechanism


@dataclass(frozen=True)
class TraceStep:
    """One step of the analysis walkthrough."""

    step: int
    title: str
    data: dict[str, Any]


@dataclass(frozen=True)
class MobilityReport:
    """Full analysis result for one mechanism."""

    mechanism: str
    dof: int
    total_joint_dof: int
    loop_ranks: tuple[LoopRank, ...]
    poc: PocMatrix
    classification: str
    rigid: bool
    legs: tuple[LegPoc, ...]
    translation_joints: tuple[str, ...]
    rotation_joints: tuple[str, ...]
    trace: tuple[TraceStep, ...]


def classify(poc: PocMatrix) -> str:
    """Motion pattern name, e.g. '1T2R'."""
    return f"{poc.xi_t}T{poc.xi_r}R"


def _anchor_axis(form) -> AxisRef:
    """Joint axis whose column anchors a direction form in the POC matrix."""
    if isinstance(form, (AlongAxis, NormalLine, NormalPlane)):
        return form.axis
    if isinstance(form, SpanPlane):
        return _anchor_axis(form.u)
    if isinstance(form, MeetLine):
        return _anchor_axis(form.a)
    raise TypeError(f"no anchor for {form!r}")


def _row_from_descriptor(desc: DirectionDescriptor) -> tuple[tuple[int, ...], int | None]:
    """Rebuild one POC matrix row (width 6) from a direction descriptor."""
    row = [0] * 6
    if desc.rank == 0:
        return tuple(row), None
    if desc.rank == 3:
        row[0] = 3
        return tuple(row), None
    if desc.rank == 1:
        axis = _anchor_axis(desc.line)
        row[axis.joint - 1] = 1
        return tuple(row), axis.leg
    plane = desc.plane
    if isinstance(plane, NormalPlane):
        axis = plane.axis
        row[axis.joint - 1] = 2
        return tuple(row), axis.leg
    ua, va = _anchor_axis(plane.u), _anchor_axis(plane.v)
    row[ua.joint - 1] += 1
    row[va.joint - 1] += 1
    return tuple(row), ua.leg


def _matrix_from_descriptors(
    t_desc: DirectionDescriptor, r_desc: DirectionDescriptor
) -> PocMatrix:
    t_row, t_owner = _row_from_descriptor(t_desc)
    r_row, r_owner = _row_from_descriptor(r_desc)
    return PocMatrix(t_row, r_row, (t_owner, r_owner))


def _joint_labels(g: RelationGraph, row: tuple[int, ...], owner: int | None) -> tuple[str, ...]:
    if owner is None:
        return ()
    labels = []
    for col, value in enumerate(row):
        if value:
            labels.append(g.label(AxisRef(owner, col + 1)))
    return tuple(labels)


def fmt_row(row: tuple[int, ...]) -> str:
    return "[" + " ".join(str(v) for v in row) + "]"


def analyze_mechanism(
    mech: MechanismTopology, policy: Policy = Policy.GENERAL
) -> MobilityReport:
    """Analyze a parallel mechanism topology.

    Raises InvalidMechanism when validate_mechanism reports violations and
    propagates relation graph and POC algebra errors.  The computation is
    pure: equal inputs give equal reports.
    """
    problems = validate_mechanism(mech)
    if problems:
        raise InvalidMechanism(problems)
    g = build_relation_graph(mech)

    trace: list[TraceStep] = []
    trace.append(
        TraceStep(
            1,
            "topology",
            {
                "legs": {
                    f"leg {leg.label}": f"{leg.signature} (f={leg.f})" for leg in mech.legs
                }
            },
        )
    )

    leg_pocs = tuple(analyze_leg(leg, g, policy) for leg in mech.legs)
    leg_data: dict[str, Any] = {}
    for lp in leg_pocs:
        seg_names = " + ".join(s.kind.value for s in lp.segments)
        leg_data[f"leg {lp.leg.label}"] = (
            f"{seg_names}; t={fmt_row(lp.matrix.t)} r={fmt_row(lp.matrix.r)}"
        )
    trace.append(TraceStep(2, "leg POC matrices", leg_data))

    total = mech.total_joint_dof
    trace.append(TraceStep(3, "joint DOF total", {"sum": total}))

    state_t = translation_view(leg_pocs[0].matrix, g)
    state_r = rotation_view(leg_pocs[0].matrix, g)
    state_matrix = leg_pocs[0].matrix
    loops: list[LoopRank] = []
    for idx, lp in enumerate(leg_pocs[1:], start=2):
        step_no = 4 + len(loops)
        leg_t = translation_view(lp.matrix, g)
        leg_r = rotation_view(lp.matrix, g)
        try:
            rank = LoopRank(
                union_dim(state_t, leg_t, g, policy),
                union_dim(state_r, leg_r, g, policy),
            )
            state_t = intersect_translation(state_t, leg_t, g, policy)
            state_r = intersect_rotation(state_r, leg_r, g, policy)
        except IndeterminateRelation as err:
            raise IndeterminateRelation(
                f"loop {idx - 1} (adding leg {lp.leg.label}): {err}", step=idx - 1
            ) from err
        state_matrix = _matrix_from_descriptors(state_t, state_r)
        loops.append(rank)
        trace.append(
            TraceStep(
                step_no,
                f"loop {idx - 1}: legs 1..{idx - 1} with leg {idx}",
                {
                    "xi_t": rank.xi_t,
                    "xi_r": rank.xi_r,
                    "xi": rank.xi,
                    "sub-PM t": fmt_row(state_matrix.t),
                    "sub-PM r": fmt_row(state_matrix.r),
                },
            )
        )

    xi_sum = sum(rank.xi for rank in loops)
    dof = total - xi_sum
    trace.append(
        TraceStep(
            4 + len(loops),
            "DOF",
            {"F": f"{total} - {xi_sum} = {dof}"},
        )
    )
    classification = classify(state_matrix)
    trace.append(
        TraceStep(
            5 + len(loops),
            "moving platform POC",
            {
                "t": fmt_row(state_matrix.t),
                "r": fmt_row(state_matrix.r),
                "class": classification,
            },
        )
    )

    return MobilityReport(
        mechanism=mech.name,
        dof=dof,
        total_joint_dof=total,
        loop_ranks=tuple(loops),
        poc=state_matrix,
        classification=classification,
        rigid=dof <= 0,
        legs=leg_pocs,
        translation_joints=_joint_labels(g, state_matrix.t, state_matrix.owners[0]),
        rotation_joints=_joint_labels(g, state_matrix.r, state_matrix.owners[1]),
        trace=tuple(trace),
    )
