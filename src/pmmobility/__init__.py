"""Symbolic mobility analysis of parallel mechanisms.

The package computes the DOF and the position-and-orientation output of a
parallel mechanism from a purely digital topology description: joint kinds
plus coded axis relations, no coordinates.  A seeded numeric screw-space
oracle provides an independent cross-check on sampled geometries.
"""

from .legs import LegPoc, analyze_leg
from .mobility import MobilityReport, analyze_mechanism, classify
from .oracle import (
    GeometricInstance,
    NumericMobility,
    OracleResult,
    Unsatisfiable,
    instantiate_geometry,
    numeric_loop_and_platform,
    verify_mechanism,
)
from .parser import ParseError, parse_mechanism_file, parse_mechanism_text
from .poc import (
    IndeterminateRelation,
    LoopRank,
    OverlappingSupport,
    PocMatrix,
    Policy,
    intersect_rotation,
    intersect_translation,
    normalize,
    poc_or,
    union,
)
from .relations import (
    AxisRef,
    InconsistentRelations,
    RelationGraph,
    UnknownAxis,
    build_relation_graph,
)
from .report import FORMAT_VERSION, render_human, render_structured
from .subchains import (
    Segment,
    SubchainFamily,
    SubchainKind,
    catalogue_poc_matrices,
    extract_subchains,
    subchain_poc,
)
from .topology import (
    InvalidMechanism,
    JointKind,
    LegTopology,
    MechanismTopology,
    PlatformRelations,
    PlatformSide,
    RelationCode,
    TopologyError,
    decode_leg,
    encode_leg,
    validate_mechanism,
)

__version__ = "0.1.0"

__all__ = [
    "AxisRef",
    "FORMAT_VERSION",
    "GeometricInstance",
    "InconsistentRelations",
    "IndeterminateRelation",
    "InvalidMechanism",
    "JointKind",
    "LegPoc",
    "LegTopology",
    "LoopRank",
    "MechanismTopology",
    "MobilityReport",
    "NumericMobility",
    "OracleResult",
    "OverlappingSupport",
    "ParseError",
    "PlatformRelations",
    "PlatformSide",
    "PocMatrix",
    "Policy",
    "RelationCode",
    "RelationGraph",
    "Segment",
    "SubchainFamily",
    "SubchainKind",
    "TopologyError",
    "UnknownAxis",
    "Unsatisfiable",
    "analyze_leg",
    "analyze_mechanism",
    "build_relation_graph",
    "catalogue_poc_matrices",
    "classify",
    "decode_leg",
    "encode_leg",
    "extract_subchains",
    "instantiate_geometry",
    "intersect_rotation",
    "intersect_translation",
    "normalize",
    "numeric_loop_and_platform",
    "parse_mechanism_file",
    "parse_mechanism_text",
    "poc_or",
    "render_human",
    "render_structured",
    "subchain_poc",
    "union",
    "validate_mechanism",
    "verify_mechanism",
]
