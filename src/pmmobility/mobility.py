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
class MobilityReport:
    """Full analysis result for one mechanism.

    sub_pocs[i] is the sub-mechanism POC after loop i + 1 closes; the last
    entry is the moving platform's POC.
    """

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
    sub_pocs: tuple[PocMatrix, ...]


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
    leg_pocs = tuple(analyze_leg(leg, g, policy) for leg in mech.legs)

    state_t = translation_view(leg_pocs[0].matrix, g)
    state_r = rotation_view(leg_pocs[0].matrix, g)
    loops: list[LoopRank] = []
    sub_pocs: list[PocMatrix] = []
    for idx, lp in enumerate(leg_pocs[1:], start=2):
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
        loops.append(rank)
        sub_pocs.append(_matrix_from_descriptors(state_t, state_r))

    total = mech.total_joint_dof
    dof = total - sum(rank.xi for rank in loops)
    poc = sub_pocs[-1]
    return MobilityReport(
        mechanism=mech.name,
        dof=dof,
        total_joint_dof=total,
        loop_ranks=tuple(loops),
        poc=poc,
        classification=classify(poc),
        rigid=dof <= 0,
        legs=leg_pocs,
        translation_joints=_joint_labels(g, poc.t, poc.owners[0]),
        rotation_joints=_joint_labels(g, poc.r, poc.owners[1]),
        sub_pocs=tuple(sub_pocs),
    )
