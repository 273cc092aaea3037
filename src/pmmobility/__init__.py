"""Symbolic mobility analysis of parallel mechanisms.

The package computes the DOF and the position-and-orientation output of a
parallel mechanism from a purely digital topology description: joint kinds
plus coded axis relations, no coordinates.  A seeded numeric screw-space
oracle provides an independent cross-check on sampled geometries.

The oracle is the only part that needs numpy.  Its names (verify_mechanism,
NumericMobility, OracleResult) resolve on first use, so ``import
pmmobility`` and an analysis without the oracle never load numpy.  The
one-seed entry points (instantiate_geometry, numeric_loop_and_platform,
GeometricInstance) live in pmmobility.oracle.
Unsatisfiable lives in the numpy-free relations module.
"""

from .legs import LegPoc, analyze_leg
from .mobility import MobilityReport, analyze_mechanism, classify
from .parser import ParseError, parse_mechanism_file, parse_mechanism_text
from .poc import (
    LoopRank,
    PocMatrix,
    intersect_rotation,
    intersect_translation,
    normalize,
    union,
)
from .relations import (
    AxisRef,
    InconsistentRelations,
    RelationGraph,
    UnknownAxis,
    Unsatisfiable,
    build_relation_graph,
)
from .report import FORMAT_VERSION, render_human, render_json, render_structured
from .subchains import (
    Segment,
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

_ORACLE_NAMES = ("NumericMobility", "OracleResult", "verify_mechanism")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AxisRef",
    "FORMAT_VERSION",
    "InconsistentRelations",
    "InvalidMechanism",
    "JointKind",
    "LegPoc",
    "LegTopology",
    "LoopRank",
    "MechanismTopology",
    "MobilityReport",
    "NumericMobility",
    "OracleResult",
    "ParseError",
    "PlatformRelations",
    "PlatformSide",
    "PocMatrix",
    "RelationCode",
    "RelationGraph",
    "Segment",
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
    "intersect_rotation",
    "intersect_translation",
    "normalize",
    "parse_mechanism_file",
    "parse_mechanism_text",
    "render_human",
    "render_json",
    "render_structured",
    "subchain_poc",
    "union",
    "validate_mechanism",
    "verify_mechanism",
]
