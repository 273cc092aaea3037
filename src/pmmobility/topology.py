"""Digital topology description of parallel mechanisms.

A mechanism is a set of serial legs joining a fixed platform to a moving
platform.  Every joint is a single-DOF pair, revolute (R) or prismatic (P).
A leg is encoded as a symmetric integer matrix: the diagonal holds the joint
kind codes (8 for R, 9 for P, base to platform order) and entry (i, j) holds
the geometric relation code between the axes of joints i and j.  Two k x k
platform matrices describe the relations between the platform-adjacent
joints of the k legs: the moving side relates the last joints, the fixed
side relates the first joints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

MAX_LEG_JOINTS = 6
MAX_LEGS = 6
MIN_LEGS = 2

_R_CODE = 8
_P_CODE = 9


class JointKind(Enum):
    """Single-DOF joint kinds."""

    REVOLUTE = "R"
    PRISMATIC = "P"

    @property
    def code(self) -> int:
        return _R_CODE if self is JointKind.REVOLUTE else _P_CODE

    @classmethod
    def from_code(cls, code: int) -> "JointKind":
        if code == _R_CODE:
            return cls.REVOLUTE
        if code == _P_CODE:
            return cls.PRISMATIC
        raise InvalidDiagonal(f"diagonal entry {code} is not a joint code (8 or 9)")

    @classmethod
    def from_letter(cls, letter: str) -> "JointKind":
        if letter == "R":
            return cls.REVOLUTE
        if letter == "P":
            return cls.PRISMATIC
        raise InvalidDiagonal(f"joint letter {letter!r} is not R or P")


_REVOLUTE = JointKind.REVOLUTE


class RelationCode(IntEnum):
    """Geometric relation between two joint axes.

    ARBITRARY means no relation is asserted.  PARALLEL and PERPENDICULAR
    constrain directions.  COAXIAL means the axes are the same line.
    COPLANAR and COMMON_POINT constrain positions only: coplanar axes lie in
    one plane, common-point axes intersect in one point.
    """

    ARBITRARY = 0
    PARALLEL = 1
    PERPENDICULAR = 2
    COAXIAL = 3
    COPLANAR = 4
    COMMON_POINT = 5


class TopologyError(ValueError):
    """Base class for topology encoding and decoding failures."""


class InvalidDiagonal(TopologyError):
    """A diagonal entry is not a valid joint code."""


class InvalidRelation(TopologyError):
    """An off-diagonal entry is not a valid relation code."""


class Asymmetric(TopologyError):
    """The encoded matrix is not symmetric."""


class TooLarge(TopologyError):
    """The leg has more joints than the supported maximum."""


def _check_relation_matrix(relations, size: int) -> None:
    if len(relations) != size:
        raise Asymmetric(f"relation matrix must be {size}x{size}")
    for row in relations:
        if len(row) != size:
            raise Asymmetric(f"relation matrix must be {size}x{size}")
    for i in range(size):
        for j in range(i + 1, size):
            if relations[i][j] != relations[j][i]:
                raise Asymmetric(
                    f"relation entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"
                )


@dataclass(frozen=True)
class LegTopology:
    """One serial leg: joint kinds plus the axis relation matrix.

    joints are ordered base to platform.  relations is a symmetric f x f
    matrix of RelationCode; the diagonal is ignored and stored as ARBITRARY.
    label is the 1-based leg number inside its mechanism.  signature, the
    joint letters base to platform (e.g. 'RRPRRR'), is set at construction
    and is not a field, so equality, hashing and repr ignore it.
    """

    label: int
    joints: tuple[JointKind, ...]
    relations: tuple[tuple[RelationCode, ...], ...]

    def __post_init__(self) -> None:
        if not self.joints:
            raise TopologyError("a leg needs at least one joint")
        if len(self.joints) > MAX_LEG_JOINTS:
            raise TooLarge(
                f"leg {self.label} has {len(self.joints)} joints, maximum is {MAX_LEG_JOINTS}"
            )
        _check_relation_matrix(self.relations, len(self.joints))
        letters = ["R" if kind is _REVOLUTE else "P" for kind in self.joints]
        object.__setattr__(self, "signature", "".join(letters))

    @property
    def f(self) -> int:
        """Joint DOF of the leg (one per single-DOF joint)."""
        return len(self.joints)


def encode_leg(leg: LegTopology) -> list[list[int]]:
    """Encode a leg as its symmetric integer topology matrix."""
    f = leg.f
    out = [[0] * f for _ in range(f)]
    for i in range(f):
        out[i][i] = leg.joints[i].code
        for j in range(f):
            if i != j:
                out[i][j] = int(leg.relations[i][j])
    return out


def decode_leg(matrix, label: int = 1) -> LegTopology:
    """Decode an integer topology matrix into a LegTopology.

    Raises InvalidDiagonal, InvalidRelation, Asymmetric or TooLarge on a
    malformed matrix.
    """
    f = len(matrix)
    if f == 0:
        raise TopologyError("empty topology matrix")
    if f > MAX_LEG_JOINTS:
        raise TooLarge(f"topology matrix is {f}x{f}, maximum is {MAX_LEG_JOINTS}x{MAX_LEG_JOINTS}")
    for row in matrix:
        if len(row) != f:
            raise Asymmetric("topology matrix must be square")
    joints = tuple(JointKind.from_code(matrix[i][i]) for i in range(f))
    rels = [[RelationCode.ARBITRARY] * f for _ in range(f)]
    for i in range(f):
        for j in range(f):
            if i == j:
                continue
            value = matrix[i][j]
            if matrix[j][i] != value:
                raise Asymmetric(
                    f"relation entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"
                )
            try:
                rels[i][j] = RelationCode(value)
            except ValueError:
                raise InvalidRelation(
                    f"entry ({i + 1},{j + 1}) = {value} is not a relation code (0..5)"
                ) from None
    return LegTopology(label=label, joints=joints, relations=tuple(tuple(r) for r in rels))


class PlatformSide(Enum):
    MOVING = "moving"
    FIXED = "fixed"


# the index of the leg joint a side's platform diagonal names, and the verb
# that says which end of the leg that joint is
_LEG_END = {PlatformSide.MOVING: (-1, "ends"), PlatformSide.FIXED: (0, "starts")}


@dataclass(frozen=True)
class PlatformRelations:
    """Axis relations between the platform-adjacent joints of the k legs.

    diagonal[i] is the kind of leg i+1's platform-adjacent joint (last joint
    for the moving side, first joint for the fixed side).  matrix is the
    symmetric k x k RelationCode matrix between those joints.
    """

    side: PlatformSide
    diagonal: tuple[JointKind, ...]
    matrix: tuple[tuple[RelationCode, ...], ...]

    def __post_init__(self) -> None:
        _check_relation_matrix(self.matrix, len(self.diagonal))

    @property
    def size(self) -> int:
        return len(self.diagonal)


@dataclass(frozen=True)
class MechanismTopology:
    """A parallel mechanism: legs plus the two platform relation matrices."""

    name: str
    legs: tuple[LegTopology, ...]
    moving: PlatformRelations
    fixed: PlatformRelations

    @property
    def leg_count(self) -> int:
        return len(self.legs)

    @property
    def total_joint_dof(self) -> int:
        """Sum of joint DOF over all legs."""
        return sum(leg.f for leg in self.legs)


def validate_mechanism(mech: MechanismTopology) -> list[str]:
    """Check mechanism-level consistency, returning a list of violations.

    An empty list means the mechanism is well formed.  Violations cover leg
    count and labels, platform sides and matrix sizes, and the agreement
    between the platform diagonals and the legs' end joints.
    """
    problems: list[str] = []
    k = mech.leg_count
    if k < MIN_LEGS:
        problems.append(f"leg count {k} < {MIN_LEGS}")
    if k > MAX_LEGS:
        problems.append(f"leg count {k} > {MAX_LEGS}")
    for idx, leg in enumerate(mech.legs, start=1):
        if leg.label != idx:
            problems.append(f"leg labels must be 1..{k} in order, got {leg.label} at position {idx}")
    sides = ((PlatformSide.MOVING, mech.moving), (PlatformSide.FIXED, mech.fixed))
    for side, plat in sides:
        if plat.side is not side:
            problems.append(f"{side.value} platform relations are marked {plat.side.value}")
        if plat.size != k:
            problems.append(f"platform matrix size mismatch: {side.value} is {plat.size}x{plat.size} for {k} legs")
    for side, plat in sides:
        end, verb = _LEG_END[side]
        for i, (kind, leg) in enumerate(zip(plat.diagonal, mech.legs), start=1):
            if plat.size == k and kind is not leg.joints[end]:
                problems.append(
                    f"{side.value} platform diagonal {i} is {kind.value}, "
                    f"leg {leg.label} {verb} with {leg.joints[end].value}"
                )
    return problems


class InvalidMechanism(TopologyError):
    """Raised when an analysis entry point receives an invalid mechanism."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)
