"""Shared test data and builders.

Reference topology matrices for the four catalogued legs, small mechanism
builders, random topology generators, a numeric realization of symbolic
direction descriptors used to cross-check the POC algebra, and the
structured report and its --trace walkthrough built as dicts, which both
writers are compared with.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path

import numpy as np

from pmmobility import (
    AxisRef,
    InconsistentRelations,
    JointKind,
    LegTopology,
    MechanismTopology,
    PlatformRelations,
    PlatformSide,
    PocMatrix,
    RelationCode,
    RelationGraph,
    build_relation_graph,
    decode_leg,
    parse_mechanism_file,
)
from pmmobility import oracle
from pmmobility.mobility import MobilityReport, classify
from pmmobility.oracle import GeometricInstance, OracleResult
from pmmobility.poc import (
    AlongAxis,
    DirectionDescriptor,
    MeetLine,
    NormalLine,
    NormalPlane,
    SpanPlane,
    _axes_parallel,
    _axes_perpendicular,
)
from pmmobility.relations import _merge_codes
from pmmobility.report import FORMAT_VERSION

FIXTURES = Path(__file__).parent / "fixtures"

# reference matrices of the four catalogued legs
UP_MATRIX = [
    [8, 2, 2],
    [2, 8, 2],
    [2, 2, 9],
]
RRC_MATRIX = [
    [8, 1, 1, 1],
    [1, 8, 1, 1],
    [1, 1, 8, 1],
    [1, 1, 1, 9],
]
PRRRR_MATRIX = [
    [9, 2, 2, 1, 1],
    [2, 8, 1, 2, 2],
    [2, 1, 8, 2, 2],
    [1, 2, 2, 8, 1],
    [1, 2, 2, 1, 8],
]
UPS_MATRIX = [
    [8, 2, 0, 0, 0, 0],
    [2, 8, 0, 0, 0, 0],
    [0, 0, 9, 0, 0, 0],
    [0, 0, 0, 8, 2, 2],
    [0, 0, 0, 2, 8, 2],
    [0, 0, 0, 2, 2, 8],
]

UP_POC = ((0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0))
RRC_POC = ((3, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
PRRRR_POC = ((3, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0))
UPS_POC = ((3, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0))

REFERENCE_LEGS = {
    "UP": (UP_MATRIX, UP_POC),
    "RRC": (RRC_MATRIX, RRC_POC),
    "PRRRR": (PRRRR_MATRIX, PRRRR_POC),
    "UPS": (UPS_MATRIX, UPS_POC),
}


def relation_platform(side: PlatformSide, kinds, codes=None) -> PlatformRelations:
    """Platform matrix with one code for every off-diagonal pair."""
    k = len(kinds)
    matrix = [[RelationCode.ARBITRARY] * k for _ in range(k)]
    if codes is not None:
        for (i, j), code in codes.items():
            matrix[i - 1][j - 1] = matrix[j - 1][i - 1] = RelationCode(code)
    return PlatformRelations(
        side=side, diagonal=tuple(kinds), matrix=tuple(tuple(row) for row in matrix)
    )


def make_mechanism(name, legs, moving_codes=None, fixed_codes=None) -> MechanismTopology:
    """Assemble a mechanism with platform relations given as sparse dicts."""
    moving = relation_platform(
        PlatformSide.MOVING, [leg.joints[-1] for leg in legs], moving_codes
    )
    fixed = relation_platform(
        PlatformSide.FIXED, [leg.joints[0] for leg in legs], fixed_codes
    )
    return MechanismTopology(name=name, legs=tuple(legs), moving=moving, fixed=fixed)


def pair_mechanism(matrix, name="pair") -> MechanismTopology:
    """Two copies of one leg joined by all-arbitrary platforms."""
    legs = (decode_leg(matrix, label=1), decode_leg(matrix, label=2))
    return make_mechanism(name, legs)


def leg_and_graph(matrix):
    """A lone leg plus a relation graph covering it.

    The graph is built from a two-copy mechanism with arbitrary platforms,
    which seeds nothing beyond the leg matrices themselves.
    """
    mech = pair_mechanism(matrix)
    return mech.legs[0], build_relation_graph(mech)


def leg_from_relations(label, letters, pairs) -> LegTopology:
    """Leg from a joint letter string and sparse 1-based relation pairs."""
    kinds = tuple(JointKind.from_letter(ch) for ch in letters)
    f = len(kinds)
    rels = [[RelationCode.ARBITRARY] * f for _ in range(f)]
    for (i, j), code in pairs.items():
        rels[i - 1][j - 1] = rels[j - 1][i - 1] = RelationCode(code)
    return LegTopology(label=label, joints=kinds, relations=tuple(tuple(r) for r in rels))


def permute_legs(mech: MechanismTopology, order) -> MechanismTopology:
    """The mechanism with its legs listed in order (0-based indices into
    mech.legs), relabelled 1..k, and both platform matrices permuted alike."""
    legs = tuple(
        LegTopology(label=i, joints=mech.legs[k].joints, relations=mech.legs[k].relations)
        for i, k in enumerate(order, start=1)
    )

    def permuted(platform: PlatformRelations) -> PlatformRelations:
        return PlatformRelations(
            side=platform.side,
            diagonal=tuple(platform.diagonal[k] for k in order),
            matrix=tuple(tuple(platform.matrix[i][j] for j in order) for i in order),
        )

    return MechanismTopology(
        name=mech.name, legs=legs, moving=permuted(mech.moving), fixed=permuted(mech.fixed)
    )


def invert(mech: MechanismTopology) -> MechanismTopology:
    """The mechanism with base and moving platform swapped: every leg's
    joints and relation matrix reversed, and the platform matrices traded."""
    legs = tuple(
        LegTopology(
            label=leg.label,
            joints=leg.joints[::-1],
            relations=tuple(row[::-1] for row in leg.relations[::-1]),
        )
        for leg in mech.legs
    )
    return MechanismTopology(
        name=mech.name,
        legs=legs,
        moving=PlatformRelations(PlatformSide.MOVING, mech.fixed.diagonal, mech.fixed.matrix),
        fixed=PlatformRelations(PlatformSide.FIXED, mech.moving.diagonal, mech.moving.matrix),
    )


# --------------------------------------------------------------------------
# random topology generation

_LEG_CODES = (0, 0, 0, 1, 1, 2, 2, 4, 5)
_PLATFORM_CODES = (0, 0, 0, 0, 1, 2, 4, 5)


def random_leg(rng: random.Random, label: int, codes=_LEG_CODES) -> LegTopology:
    f = rng.randint(1, 6)
    letters = "".join(rng.choice("RRP") for _ in range(f))
    pairs = {}
    for i in range(1, f + 1):
        for j in range(i + 1, f + 1):
            pairs[(i, j)] = rng.choice(codes)
    return leg_from_relations(label, letters, pairs)


def random_mechanism(rng: random.Random, max_legs: int = 4) -> MechanismTopology:
    """One random valid topology; relations may still prove inconsistent."""
    k = rng.randint(2, max_legs)
    legs = [random_leg(rng, label) for label in range(1, k + 1)]
    moving = {}
    fixed = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            moving[(i, j)] = rng.choice(_PLATFORM_CODES)
            fixed[(i, j)] = rng.choice(_PLATFORM_CODES)
    return make_mechanism(f"random-{rng.random():.6f}", legs, moving, fixed)


# Mechanisms for symbolic-vs-numeric comparisons are built from a direction
# alphabet: x, y, z form an orthogonal triad and g* are generic.  Every true
# parallel or perpendicular fact between labels is seeded, so whatever the
# relation graph leaves open really is in general position and sampled
# geometry cannot hide a forced coincidence.
_TRIAD = ("x", "y", "z")
_DIR_LABELS = ("x", "y", "z", "g1", "g2", "g3")


def _labeled_code(rng: random.Random, a: str, b: str, both_r: bool) -> int:
    if a == b:
        return 3 if both_r and rng.random() < 0.2 else 1
    if a in _TRIAD and b in _TRIAD:
        return 2
    return rng.choice((0, 0, 0, 4, 5))


class _PositionalCap:
    """Keeps coplanar/common-point chains to at most three joints.

    Those codes constrain axis positions, and they merge transitively when
    instantiated.  Four or more concurrent axes (or many axes meeting one
    hub line) are coincidences the combination rules never consume, so a
    generator aiming at general position must not create them.
    """

    def __init__(self) -> None:
        self._comp: dict[tuple[int, int], set[tuple[int, int]]] = {}

    def admit(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        ca = self._comp.setdefault(a, {a})
        cb = self._comp.setdefault(b, {b})
        if ca is cb:
            return True
        if len(ca) + len(cb) > 3:
            return False
        merged = ca | cb
        for node in merged:
            self._comp[node] = merged
        return True


def labeled_random_mechanism(rng: random.Random, max_legs: int = 3) -> MechanismTopology:
    """Random mechanism whose axis directions follow a labeled alphabet."""
    k = rng.randint(2, max_legs)
    cap = _PositionalCap()

    def code(a: str, b: str, both_r: bool, node_a: tuple[int, int], node_b: tuple[int, int]) -> int:
        c = _labeled_code(rng, a, b, both_r)
        if c in (4, 5) and not cap.admit(node_a, node_b):
            return 0
        return c

    legs = []
    leg_labels = []
    sizes = []
    for label in range(1, k + 1):
        f = rng.randint(1, 6)
        letters = "".join(rng.choice("RRP") for _ in range(f))
        labels = [rng.choice(_DIR_LABELS) for _ in range(f)]
        pairs = {}
        for i in range(1, f + 1):
            for j in range(i + 1, f + 1):
                both_r = letters[i - 1] == "R" and letters[j - 1] == "R"
                pairs[(i, j)] = code(labels[i - 1], labels[j - 1], both_r, (label, i), (label, j))
        legs.append(leg_from_relations(label, letters, pairs))
        leg_labels.append(labels)
        sizes.append(f)
    moving = {}
    fixed = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            moving[(i, j)] = code(
                leg_labels[i - 1][-1], leg_labels[j - 1][-1], False, (i, sizes[i - 1]), (j, sizes[j - 1])
            )
            fixed[(i, j)] = code(leg_labels[i - 1][0], leg_labels[j - 1][0], False, (i, 1), (j, 1))
    return make_mechanism(f"labeled-{rng.random():.6f}", legs, moving, fixed)


def mech_text(mech: MechanismTopology) -> str:
    """Matrix-form mechanism text for a topology: every leg and platform as
    its block of numeric codes, with 8/9 on the diagonal."""

    def rows(kinds, matrix) -> list[str]:
        return [
            "  " + " ".join(str(kind.code if i == j else int(code)) for j, code in enumerate(row))
            for i, (kind, row) in enumerate(zip(kinds, matrix))
        ]

    lines = [f"mechanism {mech.name}"]
    for leg in mech.legs:
        lines += [f"leg {leg.label}:", *rows(leg.joints, leg.relations)]
    for plat in (mech.moving, mech.fixed):
        lines += [f"platform {plat.side.value}:", *rows(plat.diagonal, plat.matrix)]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def corpus_mechanisms() -> tuple[MechanismTopology, ...]:
    """The fixtures and the roadmap corpus: 300 random_mechanism and 300
    labeled_random_mechanism topologies, each generator from its own
    random.Random(1), inconsistent ones included."""
    mechs = [parse_mechanism_file(path) for path in sorted(FIXTURES.glob("*.mech"))]
    for generate in (random_mechanism, labeled_random_mechanism):
        rng = random.Random(1)
        mechs.extend(generate(rng) for _ in range(300))
    return tuple(mechs)


@functools.lru_cache(maxsize=None)
def corpus_graphs() -> tuple[tuple[MechanismTopology, RelationGraph], ...]:
    """(mechanism, relation graph) for corpus_mechanisms, leaving out the
    mechanisms whose relations are inconsistent."""
    out = []
    for mech in corpus_mechanisms():
        try:
            out.append((mech, build_relation_graph(mech)))
        except InconsistentRelations:
            continue
    return tuple(out)


# --------------------------------------------------------------------------
# reference relation graph


def _reference_seed_edges(mech: MechanismTopology):
    for leg in mech.legs:
        for i in range(1, leg.f + 1):
            for j in range(i + 1, leg.f + 1):
                yield AxisRef(leg.label, i), AxisRef(leg.label, j), leg.relations[i - 1][j - 1]
    k = mech.leg_count
    for i in range(k):
        for j in range(i + 1, k):
            a = AxisRef(mech.legs[i].label, mech.legs[i].f)
            b = AxisRef(mech.legs[j].label, mech.legs[j].f)
            yield a, b, mech.moving.matrix[i][j]
            a = AxisRef(mech.legs[i].label, 1)
            b = AxisRef(mech.legs[j].label, 1)
            yield a, b, mech.fixed.matrix[i][j]


def reference_describe_cycle(a: AxisRef, b: AxisRef, seeds) -> str:
    """relations._describe_cycle by the plain walk: neighbours sorted on
    every visit and a list for the queue."""
    adjacency: dict[AxisRef, list[AxisRef]] = {}
    for (x, y), code in seeds.items():
        if code in (RelationCode.PARALLEL, RelationCode.COAXIAL):
            adjacency.setdefault(x, []).append(y)
            adjacency.setdefault(y, []).append(x)
    # BFS from a to b over parallel seeds
    prev: dict[AxisRef, AxisRef] = {a: a}
    queue = [a]
    while queue:
        node = queue.pop(0)
        if node == b:
            break
        for nxt in sorted(adjacency.get(node, ())):
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    chain = " ~ ".join(str(x) for x in reversed(path))
    return f"axes {a} _|_ {b} conflict with the parallel chain {chain}"


def reference_class_roots(axes, pairs) -> dict[AxisRef, AxisRef]:
    """relations.join_classes by a union-find: each axis mapped to the
    smallest axis of its class, in the order of axes."""
    parent = {x: x for x in axes}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # the smaller ref stays the root, so every root is its class's minimum
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in axes}


def reference_relation_graph(mech: MechanismTopology) -> RelationGraph:
    """build_relation_graph by the plain per-pair walk: two fresh AxisRefs
    for every off-diagonal pair of every matrix, each pair ordered and
    merged with any earlier seed of the same pair."""
    kinds = {}
    for leg in mech.legs:
        for i, kind in enumerate(leg.joints, start=1):
            kinds[AxisRef(leg.label, i)] = kind
    seeds = {}
    for a, b, code in _reference_seed_edges(mech):
        pair = (a, b) if a < b else (b, a)
        if pair in seeds:
            seeds[pair] = _merge_codes(seeds[pair], code, a, b)
        elif code != RelationCode.ARBITRARY:
            seeds[pair] = code

    directions = (RelationCode.PARALLEL, RelationCode.COAXIAL)
    parallel_root = reference_class_roots(kinds, [p for p, code in seeds.items() if code in directions])
    coaxial_root = reference_class_roots(
        kinds, [p for p, code in seeds.items() if code == RelationCode.COAXIAL]
    )
    perp_pairs = set()
    for (a, b), code in seeds.items():
        if code is RelationCode.PERPENDICULAR:
            ra, rb = parallel_root[a], parallel_root[b]
            if ra == rb:
                raise InconsistentRelations(reference_describe_cycle(a, b, seeds))
            perp_pairs.update(((ra, rb), (rb, ra)))
    return RelationGraph(kinds, parallel_root, coaxial_root, frozenset(perp_pairs), seeds)


# --------------------------------------------------------------------------
# reference leg matrix


class OverlappingSupport(ValueError):
    """poc_or received matrices with a common nonzero column."""


def poc_or(parts: list[PocMatrix]) -> PocMatrix:
    """Combine segment POC matrices with disjoint column support.

    The union of a serial chain's segment outputs before normalization is
    the cellwise sum; overlapping nonzero cells are a usage error.  The
    reference for subchains.segments_poc, which builds a leg's one matrix.
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
# reference direction predicates


def _reference_plane_normal(plane) -> AxisRef | None:
    return plane.axis if isinstance(plane, NormalPlane) else None


def reference_lines_parallel(g: RelationGraph, p, q) -> bool | None:
    """poc.lines_parallel by the mirrored case list: each (AlongAxis,
    other) case written out in both orders."""
    if p == q:
        return True
    if isinstance(p, AlongAxis) and isinstance(q, AlongAxis):
        return _axes_parallel(g, p.axis, q.axis)
    if isinstance(p, AlongAxis) and isinstance(q, NormalLine):
        if _axes_parallel(g, p.axis, q.axis):
            return False
        return None
    if isinstance(p, NormalLine) and isinstance(q, AlongAxis):
        return reference_lines_parallel(g, q, p)
    if isinstance(p, MeetLine) and isinstance(q, AlongAxis):
        return _reference_meet_parallel_to_axis(g, p, q.axis)
    if isinstance(p, AlongAxis) and isinstance(q, MeetLine):
        return _reference_meet_parallel_to_axis(g, q, p.axis)
    return None


def _reference_meet_parallel_to_axis(g: RelationGraph, meet, axis: AxisRef) -> bool | None:
    na, nb = _reference_plane_normal(meet.a), _reference_plane_normal(meet.b)
    if na is not None and nb is not None:
        pa = _axes_perpendicular(g, axis, na)
        pb = _axes_perpendicular(g, axis, nb)
        if pa and pb:
            return True
        if _axes_parallel(g, axis, na) or _axes_parallel(g, axis, nb):
            return False
    return None


def reference_line_in_plane(g: RelationGraph, line, plane) -> bool | None:
    """poc.line_in_plane with a separate case for each line form against
    each plane form."""
    if isinstance(line, MeetLine):
        for parent in (line.a, line.b):
            if reference_planes_parallel(g, parent, plane):
                return True
    if isinstance(plane, NormalPlane):
        if isinstance(line, AlongAxis):
            return _axes_perpendicular(g, line.axis, plane.axis)
        if isinstance(line, NormalLine):
            if _axes_parallel(g, line.axis, plane.axis):
                return True
            return None
        if isinstance(line, MeetLine):
            na, nb = _reference_plane_normal(line.a), _reference_plane_normal(line.b)
            if (
                na is not None
                and nb is not None
                and _axes_perpendicular(g, plane.axis, na)
                and _axes_perpendicular(g, plane.axis, nb)
            ):
                return False
            return None
    if isinstance(plane, SpanPlane):
        for gen in (plane.u, plane.v):
            if reference_lines_parallel(g, line, gen):
                return True
        if isinstance(line, NormalLine) and _reference_span_perpendicular_to(g, plane, line.axis):
            return True
        if isinstance(line, AlongAxis) and _reference_span_perpendicular_to(g, plane, line.axis):
            return False
    return None


def reference_planes_parallel(g: RelationGraph, p, q) -> bool | None:
    """poc.planes_parallel by plane normals, with a span's perpendicularity
    to an axis asked generator by generator."""
    if p == q:
        return True
    np_, nq = _reference_plane_normal(p), _reference_plane_normal(q)
    if np_ is not None and nq is not None:
        return _axes_parallel(g, np_, nq)
    if np_ is not None and isinstance(q, SpanPlane):
        return _reference_span_perpendicular_to(g, q, np_)
    if nq is not None and isinstance(p, SpanPlane):
        return _reference_span_perpendicular_to(g, p, nq)
    pu = reference_line_in_plane(g, p.u, q)
    pv = reference_line_in_plane(g, p.v, q)
    if pu and pv:
        return True
    if pu is False or pv is False:
        return False
    return None


def _reference_span_perpendicular_to(g: RelationGraph, span, axis: AxisRef) -> bool | None:
    results = []
    for gen in (span.u, span.v):
        if isinstance(gen, AlongAxis):
            results.append(_axes_perpendicular(g, gen.axis, axis))
        elif isinstance(gen, NormalLine):
            results.append(True if _axes_parallel(g, gen.axis, axis) else None)
        else:
            results.append(reference_line_in_plane(g, gen, NormalPlane(axis)))
    if all(r is True for r in results):
        return True
    if any(r is False for r in results):
        return False
    return None


# --------------------------------------------------------------------------
# reference loop union


def reference_unions(a: np.ndarray, b: np.ndarray):
    """oracle._unions by one full SVD of the stacked rows [a; b] = u s vh.

    Its rank is the dimension of the union.  Each left null vector (x, y),
    a column of u past the rank, gives x a = -y b, a vector in both spaces;
    because the rows of a and of b are orthonormal, |x|^2 = |y|^2 = 1/2 and
    distinct null vectors give orthogonal images, so sqrt(2) x a are
    orthonormal rows spanning the intersection, of dimension ka + kb - rank.
    """
    u, s, _ = np.linalg.svd(np.concatenate([a, b], axis=-2), full_matrices=True)
    rank, near = oracle._cutoff(s, s[..., :1])
    meets = [
        (r, members, np.sqrt(2.0) * (u[members, : a.shape[-2], r:].mT @ a[members]))
        for r, members in oracle._split(rank)
    ]
    return meets, near


# --------------------------------------------------------------------------
# numeric realization of direction descriptors

_FULL = np.eye(3)


def _line_vector(form, inst: GeometricInstance, cache: dict, rng: np.random.Generator):
    if form in cache:
        return cache[form]
    if isinstance(form, AlongAxis):
        vec = inst.direction[form.axis]
    elif isinstance(form, NormalLine):
        # some unspecified direction in the axis' normal plane: sample one
        d = inst.direction[form.axis]
        raw = rng.normal(size=3)
        vec = raw - np.dot(raw, d) * d
        vec = vec / np.linalg.norm(vec)
    elif isinstance(form, MeetLine):
        pa = _plane_rows(form.a, inst, cache, rng)
        pb = _plane_rows(form.b, inst, cache, rng)
        vec = _plane_meet(pa, pb)
    else:
        raise TypeError(f"unexpected line form {form!r}")
    cache[form] = vec
    return vec


def _plane_rows(form, inst: GeometricInstance, cache: dict, rng: np.random.Generator):
    if form in cache:
        return cache[form]
    if isinstance(form, NormalPlane):
        d = inst.direction[form.axis]
        _, _, vh = np.linalg.svd(d.reshape(1, 3))
        rows = vh[1:]
    elif isinstance(form, SpanPlane):
        rows = np.vstack(
            [_line_vector(form.u, inst, cache, rng), _line_vector(form.v, inst, cache, rng)]
        )
        assert numeric_rank(rows) == 2, "span plane with dependent generators"
    else:
        raise TypeError(f"unexpected plane form {form!r}")
    cache[form] = rows
    return rows


def _plane_meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.cross(a[0], a[1])
    nb = np.cross(b[0], b[1])
    meet = np.cross(na, nb)
    norm = np.linalg.norm(meet)
    assert norm > 1e-9, "meet of parallel planes"
    return meet / norm


def numeric_basis(
    desc: DirectionDescriptor,
    inst: GeometricInstance,
    cache: dict,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows spanning the concrete subspace a descriptor stands for."""
    if desc.rank == 0:
        return np.zeros((0, 3))
    if desc.rank == 3:
        return _FULL
    if desc.rank == 1:
        return _line_vector(desc, inst, cache, rng).reshape(1, 3)
    return _plane_rows(desc, inst, cache, rng)


def numeric_rank(matrix: np.ndarray) -> int:
    """Numeric rank with the oracle's rule: the singular values above
    RANK_RTOL times the largest one."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > oracle.RANK_RTOL * s[0]))


def oracle_leg_spaces(twists: np.ndarray) -> list[tuple[int, int]]:
    """Per seed, (xi_t, xi_r) of the oracle's leg twist space spanned by a
    stack of twist matrices (seeds x f x 6): its rank less its angular
    rank, and its angular rank."""
    [(rank, vh, _)] = oracle._leg_spaces([twists])
    spaces = []
    for seed_rank, seed_vh in zip(rank, vh):
        basis = seed_vh[: int(seed_rank)]
        # the basis rows are orthonormal, so the angular rank is measured
        # against 1, as the oracle measures the platform split
        angular = int(oracle._cutoff(np.linalg.svd(basis[:, :3], compute_uv=False), 1.0)[0])
        spaces.append((len(basis) - angular, angular))
    return spaces


def numeric_union_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape[0] == 0:
        return numeric_rank(b)
    if b.shape[0] == 0:
        return numeric_rank(a)
    return numeric_rank(np.vstack([a, b]))


def numeric_intersection_dim(a: np.ndarray, b: np.ndarray) -> int:
    # dim(A) + dim(B) - dim(A + B)
    return numeric_rank(a) + numeric_rank(b) - numeric_union_dim(a, b)


def _reference_row(row) -> str:
    return "[" + " ".join(str(value) for value in row) + "]"


def reference_trace(report: MobilityReport) -> list[dict]:
    """The --trace walkthrough built as a list of step dicts, field by field:
    the "trace" array of the structured report."""
    legs = {}
    leg_pocs = {}
    for lp in report.legs:
        legs[f"leg {lp.leg.label}"] = f"{lp.leg.signature} (f={lp.leg.f})"
        kinds = " + ".join(segment.kind.value for segment in lp.segments)
        rows = f"t={_reference_row(lp.matrix.t)} r={_reference_row(lp.matrix.r)}"
        leg_pocs[f"leg {lp.leg.label}"] = f"{kinds}; {rows}"
    sections = [
        ("topology", {"legs": legs}),
        ("leg POC matrices", leg_pocs),
        ("joint DOF total", {"sum": report.total_joint_dof}),
    ]
    for i, (rank, sub) in enumerate(zip(report.loop_ranks, report.sub_pocs), start=1):
        loop = {
            "xi_t": rank.xi_t,
            "xi_r": rank.xi_r,
            "xi": rank.xi_t + rank.xi_r,
            "sub-PM t": _reference_row(sub.t),
            "sub-PM r": _reference_row(sub.r),
        }
        sections.append((f"loop {i}: legs 1..{i} with leg {i + 1}", loop))
    xi_sum = sum(rank.xi_t + rank.xi_r for rank in report.loop_ranks)
    sections.append(("DOF", {"F": f"{report.total_joint_dof} - {xi_sum} = {report.dof}"}))
    platform = {
        "t": _reference_row(report.poc.t),
        "r": _reference_row(report.poc.r),
        "class": report.classification,
    }
    sections.append(("moving platform POC", platform))
    return [
        {"step": n, "title": title, "data": data}
        for n, (title, data) in enumerate(sections, start=1)
    ]


def reference_trace_lines(report: MobilityReport) -> list[str]:
    """The trace block of render_human, flattened from reference_trace: a
    line "  n. title" per step and a line "     key: value" per leaf, a
    nested dict's items at the same indent."""
    lines = ["trace"]
    for step in reference_trace(report):
        lines.append(f"  {step['step']}. {step['title']}")
        for key, value in step["data"].items():
            items = value.items() if isinstance(value, dict) else [(key, value)]
            lines += [f"     {k}: {v}" for k, v in items]
    return lines


def reference_structured(
    report: MobilityReport,
    trace: bool = False,
    oracle: OracleResult | None = None,
) -> dict:
    """The structured report as a dict built field by field: the document
    that render_json must write as json.dumps(doc, indent=2) does."""
    out: dict = {
        "format_version": FORMAT_VERSION,
        "mechanism": report.mechanism,
        "joint_dof_total": report.total_joint_dof,
        "dof": report.dof,
        "class": report.classification,
        "rigid": report.rigid,
        "loops": [
            {"xi_t": rank.xi_t, "xi_r": rank.xi_r, "xi": rank.xi}
            for rank in report.loop_ranks
        ],
        "poc": {
            "t": list(report.poc.t),
            "r": list(report.poc.r),
            "owners": list(report.poc.owners),
            "translation_joints": list(report.translation_joints),
            "rotation_joints": list(report.rotation_joints),
        },
        "legs": [
            {
                "leg": lp.leg.label,
                "joints": lp.leg.signature,
                "f": lp.leg.f,
                "t": list(lp.matrix.t),
                "r": list(lp.matrix.r),
                "class": classify(lp.matrix),
                "segments": [segment.kind.value for segment in lp.segments],
            }
            for lp in report.legs
        ],
    }
    if trace:
        out["trace"] = reference_trace(report)
    if oracle is not None:
        out["oracle"] = {
            "seeds": list(oracle.seeds),
            "agreement": oracle.agreement,
            "all_agree": oracle.all_agree,
            "mismatches": [
                {"seed": c.seed, "detail": c.detail}
                for c in oracle.comparisons
                if not c.agrees
            ],
        }
    return out
