"""Position and orientation characteristic (POC) algebra.

A POC matrix is a 2 x f integer matrix describing the independent motion
output of a chain: row t for translations, row r for rotations, entries 0
to 3.  Column i attributes an output to joint i of the owning leg.  A value
of 3 means the full three dimensional output with no attributed direction.

Direction bookkeeping is symbolic.  A direction subspace is its form: a
line (AlongAxis, NormalLine, MeetLine) or a plane (NormalPlane, SpanPlane)
built from joint axis references, or EMPTY_DIRECTION / FULL_DIRECTION
with no basis.  The rank is a class attribute of each line and plane form.
The relation graph decides parallelism and containment questions.  A
question the seeded relations leave open is answered no (general position)
and appended to the caller's ledger when one is passed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import partial
from typing import ClassVar

from .relations import COAXIAL, PARALLEL, PERPENDICULAR, AxisRef, RelationGraph, leg_axes
from .topology import JointKind

# bound once, as reading a member off its enum class is a Python-level lookup
PRISMATIC = JointKind.PRISMATIC


# --------------------------------------------------------------------------
# direction forms


@dataclass(frozen=True)
class AlongAxis:
    """Direction along the referenced joint axis."""

    rank: ClassVar[int] = 1
    axis: AxisRef

    def __str__(self) -> str:
        return f"the axis of joint {self.axis}"


@dataclass(frozen=True)
class NormalLine:
    """Some direction in the plane perpendicular to the referenced axis.

    The exact direction inside the plane depends on link geometry and is
    not determined by the topology.
    """

    rank: ClassVar[int] = 1
    axis: AxisRef

    def __str__(self) -> str:
        return f"a line normal to joint {self.axis}"


@dataclass(frozen=True)
class NormalPlane:
    """The full plane of directions perpendicular to the referenced axis."""

    rank: ClassVar[int] = 2
    axis: AxisRef

    def __str__(self) -> str:
        return f"the normal plane of joint {self.axis}"


@dataclass(frozen=True)
class SpanPlane:
    """Plane spanned by two independent line directions."""

    rank: ClassVar[int] = 2
    u: "LineForm"
    v: "LineForm"

    def __str__(self) -> str:
        return f"the plane of {self.u} and {self.v}"


@dataclass(frozen=True)
class MeetLine:
    """Intersection direction of two non-parallel planes."""

    rank: ClassVar[int] = 1
    a: "PlaneForm"
    b: "PlaneForm"

    def __str__(self) -> str:
        return f"the meet of {self.a} and {self.b}"


LineForm = AlongAxis | NormalLine | MeetLine
PlaneForm = NormalPlane | SpanPlane


@dataclass(frozen=True)
class NoBasis:
    """The rank 0 or rank 3 direction subspace, which needs no basis."""

    rank: int


EMPTY_DIRECTION = NoBasis(0)
FULL_DIRECTION = NoBasis(3)
DirectionDescriptor = NoBasis | LineForm | PlaneForm


# --------------------------------------------------------------------------
# tri-state relation predicates: True / False / None (not decidable)


def _axes_parallel(g: RelationGraph, a: AxisRef, b: AxisRef) -> bool | None:
    rel = g.relation_between(a, b)
    if rel in (PARALLEL, COAXIAL):
        return True
    if rel is PERPENDICULAR:
        return False
    return None


def _axes_perpendicular(g: RelationGraph, a: AxisRef, b: AxisRef) -> bool | None:
    rel = g.relation_between(a, b)
    if rel is PERPENDICULAR:
        return True
    if rel in (PARALLEL, COAXIAL):
        return False
    return None


def _all(answers: Iterable[bool | None]) -> bool | None:
    """True when every answer is True, False when one is False, else None."""
    answers = list(answers)
    if False in answers:
        return False
    return True if all(answers) else None


def _inside_both(g: RelationGraph, span: SpanPlane, plane: PlaneForm) -> bool | None:
    """Does a span lie in a plane?  It does when both its generators do."""
    return _all(line_in_plane(g, gen, plane) for gen in (span.u, span.v))


def lines_parallel(g: RelationGraph, p: LineForm, q: LineForm) -> bool | None:
    """Are two line directions the same direction?"""
    if p == q:
        return True
    if isinstance(q, AlongAxis):
        p, q = q, p
    if not isinstance(p, AlongAxis):
        return None
    if isinstance(q, AlongAxis):
        return _axes_parallel(g, p.axis, q.axis)
    if isinstance(q, NormalLine):
        # a direction in the plane perpendicular to q.axis is never parallel
        # to an axis parallel to q.axis
        return False if _axes_parallel(g, p.axis, q.axis) else None
    return _meet_parallel_to_axis(g, q, p.axis)


def _meet_parallel_to_axis(g: RelationGraph, meet: MeetLine, axis: AxisRef) -> bool | None:
    """Is the meet of two normal planes along the axis?

    In 3-space the meet is the one direction in both planes, so it is the
    axis exactly when the axis lies in both.  Span parents are left open.
    """
    if isinstance(meet.a, NormalPlane) and isinstance(meet.b, NormalPlane):
        return _all(line_in_plane(g, AlongAxis(axis), parent) for parent in (meet.a, meet.b))
    return None


def line_in_plane(g: RelationGraph, line: LineForm, plane: PlaneForm) -> bool | None:
    """Does a line direction lie inside a plane of directions?"""
    if isinstance(line, MeetLine) and any(
        planes_parallel(g, parent, plane) for parent in (line.a, line.b)
    ):
        return True
    if isinstance(plane, NormalPlane):
        if isinstance(line, AlongAxis):
            return _axes_perpendicular(g, line.axis, plane.axis)
        if isinstance(line, NormalLine):
            return True if _axes_parallel(g, line.axis, plane.axis) else None
        # a meet along the plane normal is not in the plane
        return False if _meet_parallel_to_axis(g, line, plane.axis) else None
    if any(lines_parallel(g, line, gen) for gen in (plane.u, plane.v)):
        return True
    if not isinstance(line, MeetLine) and _inside_both(g, plane, NormalPlane(line.axis)):
        # the span is then the axis' normal plane, which holds every line
        # normal to the axis and not the axis itself
        return isinstance(line, NormalLine)
    return None


def planes_parallel(g: RelationGraph, p: PlaneForm, q: PlaneForm) -> bool | None:
    """Are two planes of directions the same plane?"""
    if p == q:
        return True
    if isinstance(p, SpanPlane):
        return _inside_both(g, p, q)
    if isinstance(q, SpanPlane):
        return _inside_both(g, q, p)
    return _axes_parallel(g, p.axis, q.axis)


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


def _resolve(value: bool | None, ledger: list[str] | None, question: str, *forms) -> bool:
    """Collapse a tri-state answer: an open question is no, noted in the
    ledger as question formatted with the forms, only then."""
    if value is None:
        if ledger is not None:
            ledger.append("cannot decide whether " + question.format(*forms))
        return False
    return value


# --------------------------------------------------------------------------
# POC matrices


def _owns(row: tuple[int, ...]) -> bool:
    """A leg owns a row that has entries and is not full (3 alone first)."""
    return any(row) and row[0] != 3


_POC_VALUES = frozenset((0, 1, 2, 3))


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
            if not _POC_VALUES.issuperset(row):
                bad = next(value for value in row if value not in _POC_VALUES)
                raise ValueError(f"POC entry {bad} out of range 0..3")
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
        """The same matrix, leg owning each row that _owns admits."""
        return replace(
            self, owners=(leg if _owns(self.t) else None, leg if _owns(self.r) else None)
        )


# --------------------------------------------------------------------------
# views: matrix rows as direction forms, and back


def _row_axes(owner: int | None, row: Sequence[int]) -> tuple[AxisRef, ...]:
    """The axes of a row's columns; a row with entries needs an owner."""
    if owner is not None:
        return leg_axes(owner, len(row))
    if any(row):
        raise ValueError("row has entries but no owning leg")
    return ()


def _translation_atom(g: RelationGraph, axis: AxisRef, value: int) -> DirectionDescriptor:
    if value == 2:
        return NormalPlane(axis)
    if g.kind(axis) is PRISMATIC:
        return AlongAxis(axis)
    # translation attributed to a revolute joint lies in its normal plane
    return NormalLine(axis)


def _view(row: tuple[int, ...], owner: int | None, atom) -> DirectionDescriptor:
    rank = sum(row)
    if rank == 0:
        return EMPTY_DIRECTION
    if rank >= 3:
        return FULL_DIRECTION
    atoms = [atom(axis, value) for axis, value in zip(_row_axes(owner, row), row) if value]
    return atoms[0] if len(atoms) == 1 else SpanPlane(*atoms)


def translation_view(m: PocMatrix, g: RelationGraph) -> DirectionDescriptor:
    """Direction form of the t row."""
    return _view(m.t, m.owners[0], partial(_translation_atom, g))


def rotation_view(m: PocMatrix, g: RelationGraph) -> DirectionDescriptor:
    """Direction form of the r row."""
    return _view(m.r, m.owners[1], lambda axis, _: AlongAxis(axis))


def _anchor_axis(form: LineForm | PlaneForm) -> AxisRef:
    """Joint axis whose column anchors a direction form in the POC matrix."""
    if isinstance(form, SpanPlane):
        return _anchor_axis(form.u)
    if isinstance(form, MeetLine):
        return _anchor_axis(form.a)
    return form.axis


def _row_from_form(form: DirectionDescriptor) -> tuple[tuple[int, ...], int | None]:
    """One POC matrix row (width 6) and its owner, rebuilt from a form."""
    row = [0] * 6
    if isinstance(form, NoBasis):
        row[0] = form.rank
        return tuple(row), None
    parts = (form.u, form.v) if isinstance(form, SpanPlane) else (form,)
    for part in parts:
        row[_anchor_axis(part).joint - 1] += part.rank
    return tuple(row), _anchor_axis(form).leg


def matrix_from_forms(t: DirectionDescriptor, r: DirectionDescriptor) -> PocMatrix:
    """The width 6 POC matrix that books each form on its anchor columns."""
    (t_row, t_owner), (r_row, r_owner) = _row_from_form(t), _row_from_form(r)
    return PocMatrix(t_row, r_row, (t_owner, r_owner))


# --------------------------------------------------------------------------
# intersection and union over direction forms


def _inside(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    ledger: list[str] | None,
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
        return _resolve(lines_parallel(g, a, b), ledger, "{} is parallel to {}", a, b)
    if a.rank == 1:
        return _resolve(line_in_plane(g, a, b), ledger, "{} lies in {}", a, b)
    return _resolve(planes_parallel(g, a, b), ledger, "{} equals {}", a, b)


def intersect_translation(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    ledger: list[str] | None = None,
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
    if _inside(a, b, g, ledger):
        return b if b.rank < a.rank else a
    if a.rank == b.rank == 2:
        return _plane_meet_line(g, a, b)
    return EMPTY_DIRECTION


def intersect_rotation(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    ledger: list[str] | None = None,
) -> DirectionDescriptor:
    """Intersection of rotation outputs.

    Rotations are line bound: two chains share a rank 1 rotation only when
    the axes are the same line.  Rotations about distinct parallel axes do
    not compose to a common rotation, so parallel but not coaxial lines
    intersect to rank 0.  Every other case is the direction subspace
    analysis of intersect_translation.
    """
    if a.rank == 1 and b.rank == 1 and a != b:
        if isinstance(a, AlongAxis) and isinstance(b, AlongAxis) and g.same_axis(a.axis, b.axis):
            return a
        return EMPTY_DIRECTION
    return intersect_translation(a, b, g, ledger)


def union(
    a: DirectionDescriptor,
    b: DirectionDescriptor,
    g: RelationGraph,
    ledger: list[str] | None = None,
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
    if _inside(a, b, g, ledger):
        return b if b.rank > a.rank else a
    if a.rank == b.rank == 1:
        return _pair_plane(a, b, g, ledger)
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


def _pair_plane(a: LineForm, b: LineForm, g: RelationGraph, ledger: list[str] | None) -> PlaneForm:
    """Plane spanned by two independent translation lines.

    Two translations in the normal plane of parallel axes fill that plane,
    and a translation along an axis perpendicular to a revolute joins the
    joint's normal plane; both cases must come out as the concrete normal
    plane so later membership tests can recognize it.
    """
    if isinstance(a, NormalLine) and isinstance(b, NormalLine):
        if _resolve(_axes_parallel(g, a.axis, b.axis), ledger, "{} and {} share a plane", a, b):
            return NormalPlane(a.axis)
    for line, other in ((a, b), (b, a)):
        if isinstance(line, NormalLine) and isinstance(other, AlongAxis):
            perpendicular = _axes_perpendicular(g, line.axis, other.axis)
            if _resolve(perpendicular, ledger, "{} lies in the plane of {}", other, line):
                return NormalPlane(line.axis)
    return SpanPlane(a, b)


def normalize(m: PocMatrix, g: RelationGraph, ledger: list[str] | None = None) -> PocMatrix:
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
    full = (3,) + (0,) * (m.width - 1)
    t_owner, r_owner = m.owners
    owner = t_owner if t_owner is not None else r_owner
    counts = list(m.t)  # translation entries per column, converted rotations added
    r_row = m.r
    if r_row[:1] != (3,):
        classes: set[AxisRef] = set()
        lines: set[AxisRef] = set()
        kept: list[int] = []
        axes = _row_axes(r_owner, m.r)
        for col, value in enumerate(m.r):
            if not value:
                continue
            axis = axes[col]
            line = g.coaxial_class(axis)
            if line in lines:
                # a rotation about an already counted line adds nothing,
                # not even the relative translation a parallel pair gives
                continue
            lines.add(line)
            root = g.parallel_class(axis)
            if root in classes:
                counts[col] += 1
            else:
                classes.add(root)
                kept.append(col)
        row = [0] * m.width
        for col in kept[:3]:
            row[col] = 1
        for col in kept[3:]:
            counts[col] += 1
        r_row = tuple(row) if len(kept) <= 3 else full

    # fold the translation atoms in column order, keeping each one's gain
    t_row = m.t
    if t_row[:1] != (3,):
        acc = EMPTY_DIRECTION
        row = [0] * m.width
        axes = _row_axes(owner, counts)
        for col, value in enumerate(counts):
            if value:
                atom = _translation_atom(g, axes[col], min(value, 2))
                grown = union(acc, atom, g, ledger)
                row[col] = grown.rank - acc.rank
                acc = grown
        t_row = full if acc.rank == 3 else tuple(row)
    return PocMatrix(
        t_row, r_row, (owner if _owns(t_row) else None, r_owner if _owns(r_row) else None)
    )
