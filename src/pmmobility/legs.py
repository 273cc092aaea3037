"""POC analysis of one serial leg.

The leg is segmented into catalogued sub-chains, the segment patterns are
scattered into one POC matrix on their disjoint columns, and that matrix
is normalized against the mechanism-wide relation graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poc import PocMatrix, normalize
from .relations import RelationGraph
from .subchains import Segment, extract_subchains, segments_poc
from .topology import LegTopology


@dataclass(frozen=True)
class LegPoc:
    """Result of analyzing one leg.

    matrix is the normalized POC matrix padded to width 6; segments are the
    recognized sub-chains it was combined from.
    """

    leg: LegTopology
    matrix: PocMatrix
    segments: tuple[Segment, ...]


def analyze_leg(leg: LegTopology, g: RelationGraph, ledger: list[str] | None = None) -> LegPoc:
    """Compute the POC matrix of a leg.

    The output rank never exceeds the leg's joint count or six.  Direction
    questions the relations leave open are appended to ledger when given.
    """
    segments = extract_subchains(leg, g)
    matrix = normalize(segments_poc(segments, leg.f, leg.label), g, ledger).widen(6)
    assert matrix.rank <= min(leg.f, 6)
    return LegPoc(leg, matrix, segments)
