"""Mechanism-level mobility analysis.

Legs are folded into the moving platform one at a time.  Each fold closes
one independent loop and intersects the sub-mechanism output so far with
the next leg's output, row by row.  The loop's rank is the dimension of
the union, which the identity dim(A u B) = dim A + dim B - dim(A n B)
gives from the direction intersection, so a fold asks each direction
question once.  The new sub-mechanism output is the intersection, with
rotations line bound.  The DOF is the total joint DOF minus the sum of
the loop ranks, and the final intersection is the moving platform's POC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .legs import LegPoc, analyze_leg
from .poc import (
    LoopRank,
    PocMatrix,
    intersect_rotation,
    intersect_translation,
    matrix_from_forms,
    rotation_view,
    translation_view,
)
from .relations import RelationGraph, build_relation_graph, leg_axes
from .topology import InvalidMechanism, MechanismTopology, validate_mechanism


@dataclass(frozen=True)
class MobilityReport:
    """Full analysis result for one mechanism.

    sub_pocs[i] is the sub-mechanism POC after loop i + 1 closes; the last
    entry is the moving platform's POC.  assumptions lists the direction
    questions the seeded relations left open, in the order asked, each
    answered no (general position); loop questions carry a
    "loop i (adding leg n): " prefix.  Empty means all were decided.
    graph is the relation graph the analysis ran on, handed to the numeric
    oracle so it is built once; it takes no part in equality or repr.
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
    assumptions: tuple[str, ...]
    graph: RelationGraph = field(compare=False, repr=False)


def classify(poc: PocMatrix) -> str:
    """Motion pattern name, e.g. '1T2R'."""
    return f"{poc.xi_t}T{poc.xi_r}R"


def _joint_labels(g: RelationGraph, row: tuple[int, ...], owner: int | None) -> tuple[str, ...]:
    if owner is None:
        return ()
    axes = leg_axes(owner, len(row))
    return tuple(g.label(axis) for axis, value in zip(axes, row) if value)


def analyze_mechanism(mech: MechanismTopology) -> MobilityReport:
    """Analyze a parallel mechanism topology.

    Raises InvalidMechanism when validate_mechanism reports violations and
    propagates relation graph and POC algebra errors.  Direction questions
    the seeded relations leave open do not raise: they are answered in
    general position and listed in the report's assumptions.  The
    computation is pure: equal inputs give equal reports.
    """
    problems = validate_mechanism(mech)
    if problems:
        raise InvalidMechanism(problems)
    g = build_relation_graph(mech)
    assumptions: list[str] = []
    leg_pocs = tuple(analyze_leg(leg, g, assumptions) for leg in mech.legs)

    state_t = translation_view(leg_pocs[0].matrix, g)
    state_r = rotation_view(leg_pocs[0].matrix, g)
    loops: list[LoopRank] = []
    sub_pocs: list[PocMatrix] = []
    for idx, lp in enumerate(leg_pocs[1:], start=2):
        leg_t = translation_view(lp.matrix, g)
        leg_r = rotation_view(lp.matrix, g)
        asked: list[str] = []
        meet_t = intersect_translation(state_t, leg_t, g, asked)
        meet_r = intersect_translation(state_r, leg_r, g, asked)
        assumptions.extend(f"loop {idx - 1} (adding leg {lp.leg.label}): {q}" for q in asked)
        loops.append(
            LoopRank(
                state_t.rank + leg_t.rank - meet_t.rank,
                state_r.rank + leg_r.rank - meet_r.rank,
            )
        )
        if state_r.rank == leg_r.rank == 1:
            # two rotation lines: the line-bound rule, which asks no question
            meet_r = intersect_rotation(state_r, leg_r, g)
        state_t, state_r = meet_t, meet_r
        sub_pocs.append(matrix_from_forms(state_t, state_r))

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
        assumptions=tuple(assumptions),
        graph=g,
    )
