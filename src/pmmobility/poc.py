"""Position and orientation characteristic (POC) algebra.

A POC matrix is a 2 x f integer matrix describing the independent motion
output of a chain: row t for translations, row r for rotations, entries 0
to 3.  Column i attributes an output to joint i of the owning leg.  A value
of 3 means the full three dimensional output with no attributed direction.

Direction bookkeeping is symbolic.  A rank 1 or rank 2 output carries a
direction form built from joint axis references; the relation graph decides
parallelism and containment questions.  When a question cannot be decided
from seeded relations the general position policy assumes the generic
answer, while the strict policy raises IndeterminateRelation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .relations import AxisRef, RelationGraph
from .topology import JointKind, RelationCode


class Policy(Enum):
    """How to resolve direction questions the seeded relations leave open."""

    GENERAL = "general"
    STRICT = "strict"


class IndeterminateRelation(ValueError):
    """A direction question affects the result but is not decidable."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class OverlappingSupport(ValueError):
    """poc_or received matrices with a common nonzero column."""


# --------------------------------------------------------------------------
# direction forms


@dataclass(frozen=True)
class AlongAxis:
    """Direction along the referenced joint axis."""

    axis: AxisRef

    def __str__(self) -> str:
        return f"the axis of joint {self.axis}"


@dataclass(frozen=True)
class NormalLine:
    """Some direction in the plane perpendicular to the referenced axis.

    The exact direction inside the plane depends on link geometry and is
    not determined by the topology.
    """

    axis: AxisRef

    def __str__(self) -> str:
        return f"a line normal to joint {self.axis}"


@dataclass(frozen=True)
class NormalPlane:
    """The full plane of directions perpendicular to the referenced axis."""

    axis: AxisRef

    def __str__(self) -> str:
        return f"the normal plane of joint {self.axis}"


@dataclass(frozen=True)
class SpanPlane:
    """Plane spanned by two independent line directions."""

    u: "LineForm"
    v: "LineForm"

    def __str__(self) -> str:
        return f"the plane of {self.u} and {self.v}"


@dataclass(frozen=True)
class MeetLine:
    """Intersection direction of two non-parallel planes."""

    a: "PlaneForm"
    b: "PlaneForm"

    def __str__(self) -> str:
        return f"the meet of {self.a} and {self.b}"


LineForm = AlongAxis | NormalLine | MeetLine
PlaneForm = NormalPlane | SpanPlane


@dataclass(frozen=True)
class DirectionDescriptor:
    """A direction subspace of rank 0..3 with a symbolic basis.

    rank 0 and rank 3 carry no basis; rank 1 carries a LineForm; rank 2 a
    PlaneForm.
    """

    rank: int
    line: LineForm | None = None
    plane: PlaneForm | None = None

    def __post_init__(self) -> None:
        if self.rank not in (0, 1, 2, 3):
            raise ValueError(f"rank {self.rank} out of range")
        if (self.rank == 1) != (self.line is not None):
            raise ValueError("rank 1 descriptors carry exactly one line form")
        if (self.rank == 2) != (self.plane is not None):
            raise ValueError("rank 2 descriptors carry exactly one plane form")


EMPTY_DIRECTION = DirectionDescriptor(0)
FULL_DIRECTION = DirectionDescriptor(3)


def line_direction(line: LineForm) -> DirectionDescriptor:
    return DirectionDescriptor(1, line=line)


def plane_direction(plane: PlaneForm) -> DirectionDescriptor:
    return DirectionDescriptor(2, plane=plane)


# --------------------------------------------------------------------------
# tri-state relation predicates: True / False / None (not decidable)


def _axes_parallel(g: RelationGraph, a: AxisRef, b: AxisRef) -> bool | None:
    rel = g.relation_between(a, b)
    if rel in (RelationCode.PARALLEL, RelationCode.COAXIAL):
        return True
    if rel is RelationCode.PERPENDICULAR:
        return False
    return None


def _axes_perpendicular(g: RelationGraph, a: AxisRef, b: AxisRef) -> bool | None:
    rel = g.relation_between(a, b)
    if rel is RelationCode.PERPENDICULAR:
        return True
    if rel in (RelationCode.PARALLEL, RelationCode.COAXIAL):
        return False
    return None


def _plane_normal(plane: PlaneForm) -> AxisRef | None:
    return plane.axis if isinstance(plane, NormalPlane) else None


def lines_parallel(g: RelationGraph, p: LineForm, q: LineForm) -> bool | None:
    """Are two line directions the same direction?"""
    if p == q:
        return True
    if isinstance(p, AlongAxis) and isinstance(q, AlongAxis):
        return _axes_parallel(g, p.axis, q.axis)
    if isinstance(p, AlongAxis) and isinstance(q, NormalLine):
        # a direction in the plane perpendicular to q.axis is never parallel
        # to an axis parallel to q.axis
        if _axes_parallel(g, p.axis, q.axis):
            return False
        return None
    if isinstance(p, NormalLine) and isinstance(q, AlongAxis):
        return lines_parallel(g, q, p)
    if isinstance(p, MeetLine) and isinstance(q, AlongAxis):
        return _meet_parallel_to_axis(g, p, q.axis)
    if isinstance(p, AlongAxis) and isinstance(q, MeetLine):
        return _meet_parallel_to_axis(g, q, p.axis)
    return None


def _meet_parallel_to_axis(g: RelationGraph, meet: MeetLine, axis: AxisRef) -> bool | None:
    na, nb = _plane_normal(meet.a), _plane_normal(meet.b)
    if na is not None and nb is not None:
        pa = _axes_perpendicular(g, axis, na)
        pb = _axes_perpendicular(g, axis, nb)
        if pa and pb:
            # in 3-space the direction perpendicular to two non-parallel
            # normals is unique, and the meet line is that direction
            return True
        if _axes_parallel(g, axis, na) or _axes_parallel(g, axis, nb):
            # the meet lies in both planes, an axis parallel to a normal
            # cannot lie in that plane
            return False
    return None


def line_in_plane(g: RelationGraph, line: LineForm, plane: PlaneForm) -> bool | None:
    """Does a line direction lie inside a plane of directions?"""
    if isinstance(line, MeetLine):
        for parent in (line.a, line.b):
            if planes_parallel(g, parent, plane):
                return True
    if isinstance(plane, NormalPlane):
        if isinstance(line, AlongAxis):
            return _axes_perpendicular(g, line.axis, plane.axis)
        if isinstance(line, NormalLine):
            if _axes_parallel(g, line.axis, plane.axis):
                return True
            return None
        if isinstance(line, MeetLine):
            na, nb = _plane_normal(line.a), _plane_normal(line.b)
            if na is not None and _axes_parallel(g, na, plane.axis):
                return True
            if nb is not None and _axes_parallel(g, nb, plane.axis):
                return True
            if (
                na is not None
                and nb is not None
                and _axes_perpendicular(g, plane.axis, na)
                and _axes_perpendicular(g, plane.axis, nb)
            ):
                # the plane normal is then parallel to the meet direction
                return False
            return None
    if isinstance(plane, SpanPlane):
        for gen in (plane.u, plane.v):
            if lines_parallel(g, line, gen):
                return True
        if isinstance(line, NormalLine) and _span_perpendicular_to(g, plane, line.axis):
            # a span perpendicular to the axis is exactly the axis' normal
            # plane, which contains every line perpendicular to the axis
            return True
        if isinstance(line, AlongAxis) and _span_perpendicular_to(g, plane, line.axis):
            return False
        return None
    return None


def planes_parallel(g: RelationGraph, p: PlaneForm, q: PlaneForm) -> bool | None:
    """Are two planes of directions the same plane?"""
    if p == q:
        return True
    np_, nq = _plane_normal(p), _plane_normal(q)
    if np_ is not None and nq is not None:
        return _axes_parallel(g, np_, nq)
    if np_ is not None and isinstance(q, SpanPlane):
        return _span_perpendicular_to(g, q, np_)
    if nq is not None and isinstance(p, SpanPlane):
        return _span_perpendicular_to(g, p, nq)
    # two span planes: contained generators would prove equality
    if isinstance(p, SpanPlane) and isinstance(q, SpanPlane):
        pu = line_in_plane(g, p.u, q)
        pv = line_in_plane(g, p.v, q)
        if pu and pv:
            return True
        if pu is False or pv is False:
            return False
    return None


def _span_perpendicular_to(g: RelationGraph, span: SpanPlane, axis: AxisRef) -> bool | None:
    """Is every direction of the span perpendicular to the axis?"""
    results = []
    for gen in (span.u, span.v):
        if isinstance(gen, AlongAxis):
            results.append(_axes_perpendicular(g, gen.axis, axis))
        elif isinstance(gen, NormalLine):
            results.append(True if _axes_parallel(g, gen.axis, axis) else None)
        else:
            results.append(None)
    if all(r is True for r in results):
        return True
    if any(r is False for r in results):
        return False
    return None


def _plane_meet_line(g: RelationGraph, p: PlaneForm, q: PlaneForm) -> LineForm:
    """Meet line of two non-parallel planes, named when recognizable.

    Two spans sharing a (direction-wise) generator meet exactly in that
    generator, which keeps the line tied to a named axis.
    """
    if isinstance(p, SpanPlane) and isinstance(q, SpanPlane):
        for gp in (p.u, p.v):
            for gq in (q.u, q.v):
                if lines_parallel(g, gp, gq):
                    return gp
    return MeetLine(p, q)


def _resolve(value: bool | None, policy: Policy, question: str) -> bool:
    """Collapse a tri-state answer according to the policy."""
    if value is not None:
        return value
    if policy is Policy.STRICT:
        raise IndeterminateRelation(f"cannot decide whether {question}")
    return False


# --------------------------------------------------------------------------
# POC matrices


@dataclass(frozen=True)
class PocMatrix:
    """2 x f POC matrix with per-row owning leg numbers.

    owners = (l1, l2): the legs whose joints the t row and r row entries
    refer to.  None when a row has no attributed entries (rank 0 or 3).
    """

    t: tuple[int, ...]
    r: tuple[int, ...]
    owners: tuple[int | None, int | None] = (None, None)

    def __post_init__(self) -> None:
        if len(self.t) != len(self.r):
            raise ValueError("t and r rows must have the same width")
        for row in (self.t, self.r):
            for value in row:
                if value not in (0, 1, 2, 3):
                    raise ValueError(f"POC entry {value} out of range 0..3")
            if 3 in row and (row[0] != 3 or sum(row) != 3):
                raise ValueError("an entry of 3 must be alone in the first column")

    @property
    def width(self) -> int:
        return len(self.t)

    @property
    def xi_t(self) -> int:
        return sum(self.t)

    @property
    def xi_r(self) -> int:
        return sum(self.r)

    @property
    def rank(self) -> int:
        return self.xi_t + self.xi_r

    def widen(self, width: int) -> "PocMatrix":
        """Zero-pad both rows on the right to the requested width."""
        if width < self.width:
            raise ValueError("cannot shrink a POC matrix")
        pad = (0,) * (width - self.width)
        return PocMatrix(self.t + pad, self.r + pad, self.owners)

    def with_owner(self, leg: int) -> "PocMatrix":
        return replace(
            self,
            owners=(
                leg if any(self.t) else None,
                leg if any(self.r) else None,
            ),
        )


def poc_or(parts: list[PocMatrix]) -> PocMatrix:
    """Combine segment POC matrices with disjoint column support.

    The union of a serial chain's segment outputs before normalization is
    the cellwise sum; overlapping nonzero cells are a usage error.
    """
    if not parts:
        raise ValueError("poc_or needs at least one matrix")
    width = parts[0].width
    for m in parts:
        if m.width != width:
            raise ValueError("poc_or parts must share the same width")
    t = [0] * width
    r = [0] * width
    owners = [None, None]
    for m in parts:
        for row_idx, (row, acc) in enumerate(((m.t, t), (m.r, r))):
            for col, value in enumerate(row):
                if value == 0:
                    continue
                if acc[col] != 0:
                    raise OverlappingSupport(
                        f"column {col + 1} of row {'tr'[row_idx]} is claimed twice"
                    )
                acc[col] = value
            if m.owners[row_idx] is not None:
                if owners[row_idx] is None:
                    owners[row_idx] = m.owners[row_idx]
                elif owners[row_idx] != m.owners[row_idx]:
                    raise ValueError("poc_or parts belong to different legs")
    return PocMatrix(tuple(t), tuple(r), (owners[0], owners[1]))


# --------------------------------------------------------------------------
# views: matrix rows as direction descriptors


def _row_axis(owner: int | None, col: int) -> AxisRef:
    if owner is None:
        raise ValueError("row has entries but no owning leg")
    return AxisRef(owner, col + 1)


def _translation_atom(g: RelationGraph, axis: AxisRef, value: int) -> DirectionDescriptor:
    if value == 2:
        return plane_direction(NormalPlane(axis))
    if g.kind(axis) is JointKind.PRISMATIC:
        return line_direction(AlongAxis(axis))
    # translation attributed to a revolute joint lies in its normal plane
    return line_direction(NormalLine(axis))


def translation_view(m: PocMatrix, g: RelationGraph) -> DirectionDescriptor:
    """Direction descriptor of the t row."""
    rank = m.xi_t
    if rank == 0:
        return EMPTY_DIRECTION
    if rank >= 3:
        return FULL_DIRECTION
    atoms = [
        _translation_atom(g, _row_axis(m.owners[0], col), value)
        for col, value in enumerate(m.t)
        if value
    ]
    if len(atoms) == 1:
        return atoms[0]
    return plane_direction(SpanPlane(atoms[0].line, atoms[1].line))


def rotation_view(m: PocMatrix, g: RelationGraph) -> DirectionDescriptor:
    """Direction descriptor of the r row."""
    rank = m.xi_r
    if rank == 0:
        return EMPTY_DIRECTION
    if rank >= 3:
        return FULL_DIRECTION
    lines = [AlongAxis(_row_axis(m.owners[1], col)) for col, v in enumerate(m.r) if v]
    if rank == 1:
        return DirectionDescriptor(1, line=lines[0])
    return DirectionDescriptor(2, plane=SpanPlane(lines[0], lines[1]))


# --------------------------------------------------------------------------
# intersection and union over direction descriptors


def _inside(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    policy: Policy,
) -> bool:
    """Does the lower-rank operand lie inside the other?

    Both operands have rank 1 or 2; on a tie a is asked about.  This is the
    one question behind both the union and the intersection: parallel
    lines, a line in a plane, or equal planes.  It asks about directions
    only, so rotations about parallel axes count as one direction, exactly
    like parallel translations; the relative translation two parallel axes
    of one leg give is booked in the t row by normalize.
    """
    if b.rank < a.rank:
        a, b = b, a
    if b.rank == 1:
        return _resolve(lines_parallel(g, a.line, b.line), policy, f"{a.line} is parallel to {b.line}")
    if a.rank == 1:
        return _resolve(line_in_plane(g, a.line, b.plane), policy, f"{a.line} lies in {b.plane}")
    return _resolve(planes_parallel(g, a.plane, b.plane), policy, f"{a.plane} equals {b.plane}")


def intersect_translation(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    policy: Policy = Policy.GENERAL,
) -> DirectionDescriptor:
    """Intersection of translation direction subspaces.

    Translations are free vectors, so the case analysis is exactly the
    subspace one: parallel lines intersect in the line, a line inside a
    plane survives, two distinct planes meet in a line.
    """
    if a.rank == 0 or b.rank == 0:
        return EMPTY_DIRECTION
    if a.rank == 3:
        return b
    if b.rank == 3 or a == b:
        return a
    if _inside(a, b, g, policy):
        return b if b.rank < a.rank else a
    if a.rank == b.rank == 2:
        return line_direction(_plane_meet_line(g, a.plane, b.plane))
    return EMPTY_DIRECTION


def intersect_rotation(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    policy: Policy = Policy.GENERAL,
) -> DirectionDescriptor:
    """Intersection of rotation outputs.

    Rotations are line bound: two chains share a rank 1 rotation only when
    the axes are the same line.  Rotations about distinct parallel axes do
    not compose to a common rotation, so parallel but not coaxial lines
    intersect to rank 0.  Every other case is the direction subspace
    analysis of intersect_translation.
    """
    if a.rank == 1 and b.rank == 1 and a != b:
        if (
            isinstance(a.line, AlongAxis)
            and isinstance(b.line, AlongAxis)
            and g.same_axis(a.line.axis, b.line.axis)
        ):
            return a
        return EMPTY_DIRECTION
    return intersect_translation(a, b, g, policy)


def union(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    policy: Policy = Policy.GENERAL,
) -> DirectionDescriptor:
    """Union of two translation or two rotation direction subspaces.

    One rule serves both rows, because the r row counts rotation
    directions (the angular part of a twist), not axis lines.  Two
    independent lines span the plane _pair_plane names.
    """
    if a.rank == 0:
        return b
    if b.rank == 0 or a == b:
        return a
    if a.rank == 3 or b.rank == 3:
        return FULL_DIRECTION
    if _inside(a, b, g, policy):
        return b if b.rank > a.rank else a
    if a.rank == b.rank == 1:
        return plane_direction(_pair_plane(a.line, b.line, g, policy))
    return FULL_DIRECTION


@dataclass(frozen=True)
class LoopRank:
    """Union rank of one independent loop: translation and rotation parts."""

    xi_t: int
    xi_r: int

    @property
    def xi(self) -> int:
        return self.xi_t + self.xi_r


# --------------------------------------------------------------------------
# normalization of a serial chain's combined POC matrix


def _pair_plane(a: LineForm, b: LineForm, g: RelationGraph, policy: Policy) -> PlaneForm:
    """Plane spanned by two independent translation lines.

    Two translations in the normal plane of parallel axes fill that plane,
    and a translation along an axis perpendicular to a revolute joins the
    joint's normal plane; both cases must come out as the concrete normal
    plane so later membership tests can recognize it.
    """
    if isinstance(a, NormalLine) and isinstance(b, NormalLine):
        if _resolve(_axes_parallel(g, a.axis, b.axis), policy, f"{a} and {b} share a plane"):
            return NormalPlane(a.axis)
    for line, other in ((a, b), (b, a)):
        if isinstance(line, NormalLine) and isinstance(other, AlongAxis):
            if _resolve(
                _axes_perpendicular(g, line.axis, other.axis),
                policy,
                f"{other} lies in the plane of {line}",
            ):
                return NormalPlane(line.axis)
    return SpanPlane(a, b)


def normalize(m: PocMatrix, g: RelationGraph, policy: Policy = Policy.GENERAL) -> PocMatrix:
    """Reduce a combined serial-chain POC matrix to independent outputs.

    Rotation entries are grouped by parallel class: only the first column
    of a class keeps its rotation, later columns turn into translations in
    the class' normal plane, except that a column repeating an earlier
    axis line is dropped outright.  More than three independent rotation
    classes collapse the r row to (3, 0, ...) and feed the surplus into
    translations as well.  Translation entries that add no new direction
    are dropped, and a translation span of three collapses the t row to
    (3, 0, ...).  The result is a fixed point of this function.
    """
    width = m.width
    t_owner, r_owner = m.owners

    # rotation bookkeeping
    extra_translations: list[tuple[int, int]] = []  # (col, value) in the owning leg
    if m.xi_r >= 3 and m.r[0] == 3:
        r_row = m.r
        rotation_full = True
    else:
        classes: dict[AxisRef, int] = {}
        seen_lines: set[AxisRef] = set()
        kept_cols: list[int] = []
        converted: list[int] = []
        for col, value in enumerate(m.r):
            if not value:
                continue
            axis = _row_axis(r_owner, col)
            line = g.coaxial_class(axis)
            if line in seen_lines:
                # a rotation about an already counted line adds nothing,
                # not even the relative translation a parallel pair gives
                continue
            seen_lines.add(line)
            root = g.parallel_class(axis)
            if root in classes:
                converted.append(col)
            else:
                classes[root] = col
                kept_cols.append(col)
        rotation_full = len(kept_cols) > 3
        if rotation_full:
            converted.extend(kept_cols[3:])
            kept_cols = kept_cols[:3]
            r_row = (3,) + (0,) * (width - 1)
        else:
            row = [0] * width
            for col in kept_cols:
                row[col] = 1
            r_row = tuple(row)
        for col in sorted(converted):
            extra_translations.append((col, 1))

    # translation bookkeeping: fold atoms in column order, keeping gains
    if m.xi_t >= 3 and m.t[0] == 3:
        t_row = m.t
    else:
        per_col: dict[int, int] = {}
        for col, value in enumerate(m.t):
            if value:
                per_col[col] = per_col.get(col, 0) + value
        for col, value in extra_translations:
            per_col[col] = per_col.get(col, 0) + value
        acc = EMPTY_DIRECTION
        gains: dict[int, int] = {}
        owner = t_owner if t_owner is not None else r_owner
        for col in sorted(per_col):
            atom = _translation_atom(g, _row_axis(owner, col), min(per_col[col], 2))
            grown = union(acc, atom, g, policy)
            gains[col] = grown.rank - acc.rank
            acc = grown
        if acc.rank >= 3:
            t_row = (3,) + (0,) * (width - 1)
        else:
            row = [0] * width
            for col, gain in gains.items():
                row[col] = gain
            t_row = tuple(row)

    new_t_owner = None if not any(t_row) else (t_owner if t_owner is not None else r_owner)
    if t_row and t_row[0] == 3 and sum(t_row) == 3:
        new_t_owner = None
    new_r_owner = r_owner if (any(r_row) and not rotation_full) else None
    return PocMatrix(t_row, r_row, (new_t_owner, new_r_owner))
