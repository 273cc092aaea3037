"""Recognition of planar and spherical sub-chains inside a leg.

A leg is scanned base to platform and segmented greedily into catalogued
sub-chains: planar three joint (G3) and two joint (G2) groups, spherical
three joint (S3) and two joint (S2) groups, and single joints.  Longer
matches win; on equal length the planar family is tried first.  Relation
tests use the derived relation graph, so a relation implied by closure
counts the same as a seeded one.

Each catalogued kind owns a fixed POC pattern.  The patterns of the whole
catalogue collapse to seven distinct POC matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .poc import PocMatrix
from .relations import AxisRef, RelationGraph
from .topology import JointKind, LegTopology, RelationCode

R = JointKind.REVOLUTE
P = JointKind.PRISMATIC

# relations the catalogue requires between two joints of a pattern.
# PAR excludes coaxial pairs: the composite of rotations about one shared
# line gains no relative translation, so the parallel-pair patterns would
# overstate the output
PAR = RelationCode.PARALLEL
PERP = RelationCode.PERPENDICULAR
ARB = RelationCode.ARBITRARY
CPT = RelationCode.COMMON_POINT


class SubchainFamily(Enum):
    G3 = "G3"
    G2 = "G2"
    S3 = "S3"
    S2 = "S2"
    SINGLE = "single"


class SubchainKind(Enum):
    """Catalogued sub-chain kinds, named by joint pattern."""

    G2_RR_PARALLEL = "G2 R||R"
    G2_RP_PERP = "G2 R_|_P"
    G2_PR_PERP = "G2 P_|_R"
    G3_RRR_PARALLEL = "G3 R||R||R"
    G3_RRP = "G3 R||R_|_P"
    G3_PRR = "G3 P_|_R||R"
    G3_RPR = "G3 R(_|_P)||R"
    G3_RPP = "G3 R(_|_P)_|_P"
    G3_PPR = "G3 P(_|_P)_|_R"
    G3_PRP = "G3 P(_|_R)_|_P"
    S2_RR_SKEW = "S2 R-R"
    S2_RR_PERP = "S2 R_|_R"
    S3_RRR_SKEW = "S3 R-R-R"
    S3_RRR_CONCURRENT = "S3 R*R*R"
    S3_RRR_PERP = "S3 R_|_R_|_R"
    SINGLE_R = "R"
    SINGLE_P = "P"


@dataclass(frozen=True)
class _Pattern:
    kind: SubchainKind
    family: SubchainFamily
    joints: tuple[JointKind, ...]
    tests: tuple[tuple[int, int, RelationCode], ...]  # (i, j, relation), 1-based
    t_cells: tuple[tuple[int, int], ...]  # (relative column, value)
    r_cells: tuple[tuple[int, int], ...]


# listed in match order: longest first, then G3, S3, G2, S2, single, so
# planar before spherical on equal length
_CATALOG: tuple[_Pattern, ...] = (
    _Pattern(SubchainKind.G3_RRR_PARALLEL, SubchainFamily.G3, (R, R, R),
             ((1, 2, PAR), (1, 3, PAR), (2, 3, PAR)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_RRP, SubchainFamily.G3, (R, R, P),
             ((1, 2, PAR), (1, 3, PERP), (2, 3, PERP)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_PRR, SubchainFamily.G3, (P, R, R),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PAR)),
             ((2, 2),), ((2, 1),)),
    _Pattern(SubchainKind.G3_RPR, SubchainFamily.G3, (R, P, R),
             ((1, 2, PERP), (1, 3, PAR), (2, 3, PERP)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_RPP, SubchainFamily.G3, (R, P, P),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_PPR, SubchainFamily.G3, (P, P, R),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             ((3, 2),), ((3, 1),)),
    _Pattern(SubchainKind.G3_PRP, SubchainFamily.G3, (P, R, P),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             ((2, 2),), ((2, 1),)),
    _Pattern(SubchainKind.S3_RRR_SKEW, SubchainFamily.S3, (R, R, R),
             ((1, 2, ARB), (1, 3, ARB), (2, 3, ARB)),
             (), ((1, 1), (2, 1), (3, 1))),
    _Pattern(SubchainKind.S3_RRR_CONCURRENT, SubchainFamily.S3, (R, R, R),
             ((1, 2, CPT), (1, 3, CPT), (2, 3, CPT)),
             (), ((1, 1), (2, 1), (3, 1))),
    _Pattern(SubchainKind.S3_RRR_PERP, SubchainFamily.S3, (R, R, R),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             (), ((1, 1), (2, 1), (3, 1))),
    _Pattern(SubchainKind.G2_RR_PARALLEL, SubchainFamily.G2, (R, R),
             ((1, 2, PAR),),
             ((1, 1),), ((1, 1),)),
    _Pattern(SubchainKind.G2_RP_PERP, SubchainFamily.G2, (R, P),
             ((1, 2, PERP),),
             ((1, 1),), ((1, 1),)),
    _Pattern(SubchainKind.G2_PR_PERP, SubchainFamily.G2, (P, R),
             ((1, 2, PERP),),
             ((2, 1),), ((2, 1),)),
    _Pattern(SubchainKind.S2_RR_SKEW, SubchainFamily.S2, (R, R),
             ((1, 2, ARB),),
             (), ((1, 1), (2, 1))),
    _Pattern(SubchainKind.S2_RR_PERP, SubchainFamily.S2, (R, R),
             ((1, 2, PERP),),
             (), ((1, 1), (2, 1))),
    _Pattern(SubchainKind.SINGLE_R, SubchainFamily.SINGLE, (R,),
             (), (), ((1, 1),)),
    _Pattern(SubchainKind.SINGLE_P, SubchainFamily.SINGLE, (P,),
             (), ((1, 1),), ()),
)

_BY_KIND = {p.kind: p for p in _CATALOG}

@dataclass(frozen=True)
class Segment:
    """One recognized sub-chain: kind plus 1-based inclusive joint range."""

    kind: SubchainKind
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start + 1

    @property
    def family(self) -> SubchainFamily:
        return _BY_KIND[self.kind].family


def _matches(leg: LegTopology, g: RelationGraph, pattern: _Pattern, start: int) -> bool:
    size = len(pattern.joints)
    if start + size - 1 > leg.f:
        return False
    for offset, kind in enumerate(pattern.joints):
        if leg.joints[start - 1 + offset] is not kind:
            return False
    for i, j, code in pattern.tests:
        a = AxisRef(leg.label, start + i - 1)
        b = AxisRef(leg.label, start + j - 1)
        if g.relation_between(a, b) is not code:
            return False
    return True


def extract_subchains(leg: LegTopology, g: RelationGraph) -> tuple[Segment, ...]:
    """Segment a leg into catalogued sub-chains, base to platform.

    The scan is greedy and deterministic: at each joint the longest
    matching pattern wins, planar before spherical on ties, and single
    joints are the fallback.  The segments cover every joint exactly once.
    """
    segments: list[Segment] = []
    pos = 1
    while pos <= leg.f:
        for pattern in _CATALOG:
            if _matches(leg, g, pattern, pos):
                stop = pos + len(pattern.joints) - 1
                segments.append(Segment(pattern.kind, pos, stop))
                pos = stop + 1
                break
        else:  # pragma: no cover - singles always match
            raise AssertionError("no pattern matched")
    return tuple(segments)


def subchain_poc(kind: SubchainKind, start: int, f: int) -> PocMatrix:
    """POC matrix of one sub-chain, zero padded to the leg width f.

    The pattern's entries land at the segment's own columns: column c of
    the pattern goes to leg column start + c - 1.
    """
    pattern = _BY_KIND[kind]
    size = len(pattern.joints)
    if start < 1 or start + size - 1 > f:
        raise ValueError(f"segment {kind.name} at {start} does not fit into {f} joints")
    t = [0] * f
    r = [0] * f
    for col, value in pattern.t_cells:
        t[start + col - 2] = value
    for col, value in pattern.r_cells:
        r[start + col - 2] = value
    return PocMatrix(tuple(t), tuple(r))


def catalogue_poc_matrices() -> dict[SubchainKind, PocMatrix]:
    """Base POC matrix (unpadded) of every catalogued kind."""
    out = {}
    for pattern in _CATALOG:
        out[pattern.kind] = subchain_poc(pattern.kind, 1, len(pattern.joints))
    return out
