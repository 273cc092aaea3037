"""Recognition of planar and spherical sub-chains inside a leg.

A leg is scanned base to platform and segmented greedily into catalogued
sub-chains: planar three joint (G3) and two joint (G2) groups, spherical
three joint (S3) and two joint (S2) groups, and single joints.  Longer
matches win.  Recognition is a table lookup derived from the catalogue,
keyed by joint kinds and the relations of all joint pairs; keys never tie.
Relation tests use the derived relation graph, so a relation implied by
closure counts the same as a seeded one.

Each catalogued kind owns a fixed POC pattern.  The patterns of the whole
catalogue collapse to seven distinct POC matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .poc import PocMatrix
from .relations import RelationGraph, leg_axes
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
    joints: tuple[JointKind, ...]
    tests: tuple[tuple[int, int, RelationCode], ...]  # (i, j, relation), 1-based
    t_cells: tuple[tuple[int, int], ...]  # (relative column, value)
    r_cells: tuple[tuple[int, int], ...]


# listed longest first, then G3, S3, G2, S2, single, for the reader only:
# recognition looks patterns up in _BY_KEY, whose keys never tie
_CATALOG: tuple[_Pattern, ...] = (
    _Pattern(SubchainKind.G3_RRR_PARALLEL, (R, R, R),
             ((1, 2, PAR), (1, 3, PAR), (2, 3, PAR)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_RRP, (R, R, P),
             ((1, 2, PAR), (1, 3, PERP), (2, 3, PERP)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_PRR, (P, R, R),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PAR)),
             ((2, 2),), ((2, 1),)),
    _Pattern(SubchainKind.G3_RPR, (R, P, R),
             ((1, 2, PERP), (1, 3, PAR), (2, 3, PERP)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_RPP, (R, P, P),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             ((1, 2),), ((1, 1),)),
    _Pattern(SubchainKind.G3_PPR, (P, P, R),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             ((3, 2),), ((3, 1),)),
    _Pattern(SubchainKind.G3_PRP, (P, R, P),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             ((2, 2),), ((2, 1),)),
    _Pattern(SubchainKind.S3_RRR_SKEW, (R, R, R),
             ((1, 2, ARB), (1, 3, ARB), (2, 3, ARB)),
             (), ((1, 1), (2, 1), (3, 1))),
    _Pattern(SubchainKind.S3_RRR_CONCURRENT, (R, R, R),
             ((1, 2, CPT), (1, 3, CPT), (2, 3, CPT)),
             (), ((1, 1), (2, 1), (3, 1))),
    _Pattern(SubchainKind.S3_RRR_PERP, (R, R, R),
             ((1, 2, PERP), (1, 3, PERP), (2, 3, PERP)),
             (), ((1, 1), (2, 1), (3, 1))),
    _Pattern(SubchainKind.G2_RR_PARALLEL, (R, R),
             ((1, 2, PAR),),
             ((1, 1),), ((1, 1),)),
    _Pattern(SubchainKind.G2_RP_PERP, (R, P),
             ((1, 2, PERP),),
             ((1, 1),), ((1, 1),)),
    _Pattern(SubchainKind.G2_PR_PERP, (P, R),
             ((1, 2, PERP),),
             ((2, 1),), ((2, 1),)),
    _Pattern(SubchainKind.S2_RR_SKEW, (R, R),
             ((1, 2, ARB),),
             (), ((1, 1), (2, 1))),
    _Pattern(SubchainKind.S2_RR_PERP, (R, R),
             ((1, 2, PERP),),
             (), ((1, 1), (2, 1))),
    _Pattern(SubchainKind.SINGLE_R, (R,),
             (), (), ((1, 1),)),
    _Pattern(SubchainKind.SINGLE_P, (P,),
             (), ((1, 1),), ()),
)

_BY_KIND = {p.kind: p for p in _CATALOG}

# (joint letters, relation of each tested pair) -> pattern.  Every n-joint
# pattern tests all its pairs in the order (1,2), (1,3), (2,3), so a window
# of n joints has one key and no two patterns share it
_BY_KEY = {("".join(k.value for k in p.joints), *(c for _, _, c in p.tests)): p for p in _CATALOG}
_TRIPLES = {key[0] for key in _BY_KEY if len(key[0]) == 3}
_PAIRS = {key[0] for key in _BY_KEY if len(key[0]) == 2}


@dataclass(frozen=True)
class Segment:
    """One recognized sub-chain: kind plus 1-based inclusive joint range."""

    kind: SubchainKind
    start: int
    stop: int


def extract_subchains(leg: LegTopology, g: RelationGraph) -> tuple[Segment, ...]:
    """Segment a leg into catalogued sub-chains, base to platform.

    The scan is greedy and deterministic: at each joint a three joint
    pattern wins over a two joint one, and single joints are the fallback.
    The segments cover every joint exactly once.
    """
    letters = leg.signature
    axes = leg_axes(leg.label, len(letters))
    relation = g.relation_between
    segments: list[Segment] = []
    pos = 0
    while pos < len(letters):
        triple = letters[pos:pos + 3]
        pattern = None
        if triple in _TRIPLES or triple[:2] in _PAIRS:
            a, b = axes[pos], axes[pos + 1]
            ab = relation(a, b)
            if triple in _TRIPLES:
                c = axes[pos + 2]
                pattern = _BY_KEY.get((triple, ab, relation(a, c), relation(b, c)))
            pattern = pattern or _BY_KEY.get((triple[:2], ab))
        pattern = pattern or _BY_KEY[(triple[:1],)]
        size = len(pattern.joints)
        segments.append(Segment(pattern.kind, pos + 1, pos + size))
        pos += size
    return tuple(segments)


def segments_poc(segments, f: int, owner: int | None = None) -> PocMatrix:
    """POC matrix of f columns from non-overlapping segments of one leg.

    Pattern column c lands at column start + c - 1; owner owns each nonzero row.
    """
    t = [0] * f
    r = [0] * f
    for segment in segments:
        pattern = _BY_KIND[segment.kind]
        start = segment.start
        if start < 1 or start + len(pattern.joints) - 1 > f:
            raise ValueError(f"segment {pattern.kind.name} at {start} does not fit into {f} joints")
        for col, value in pattern.t_cells:
            t[start + col - 2] = value
        for col, value in pattern.r_cells:
            r[start + col - 2] = value
    owners = (owner if any(t) else None, owner if any(r) else None)
    return PocMatrix(tuple(t), tuple(r), owners)


def subchain_poc(kind: SubchainKind, start: int, f: int) -> PocMatrix:
    """POC matrix of one sub-chain, zero padded to the leg width f."""
    size = len(_BY_KIND[kind].joints)
    return segments_poc((Segment(kind, start, start + size - 1),), f)


def catalogue_poc_matrices() -> dict[SubchainKind, PocMatrix]:
    """Base POC matrix (unpadded) of every catalogued kind."""
    out = {}
    for pattern in _CATALOG:
        out[pattern.kind] = subchain_poc(pattern.kind, 1, len(pattern.joints))
    return out
