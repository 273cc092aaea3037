"""Numeric screw-space oracle.

Independent check of the symbolic analysis: sample a random geometry that
satisfies the seeded axis relations, build joint twist bases, and compute
loop ranks and the platform twist space with plain linear algebra.  A
revolute joint at point p with unit direction d contributes the twist
(d, p x d); a prismatic joint contributes (0, d).

Ranks use singular values with a relative threshold.  Geometry sampling is
driven by a seeded PCG64 generator, so results are reproducible across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relations import AxisRef, RelationGraph, _UnionFind, build_relation_graph
from .topology import JointKind, MechanismTopology, RelationCode

RANK_RTOL = 1e-8
RESIDUAL_TOL = 1e-9
NEAR_FACTOR = 10.0


class Unsatisfiable(ValueError):
    """The seeded relations admit no generic geometric instance."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise Unsatisfiable("degenerate direction while sampling geometry")
    return v / n


@dataclass
class GeometricInstance:
    """One sampled geometry: unit direction and anchor point per axis."""

    seed: int
    direction: dict[AxisRef, np.ndarray]
    point: dict[AxisRef, np.ndarray]

    def residuals(self, g: RelationGraph) -> list[tuple[str, float]]:
        """Constraint residuals for every seeded or derived relation."""
        out: list[tuple[str, float]] = []
        axes = g.axes()
        for i, a in enumerate(axes):
            for b in axes[i + 1:]:
                rel = g.relation_between(a, b)
                da, db = self.direction[a], self.direction[b]
                if rel in (RelationCode.PARALLEL, RelationCode.COAXIAL):
                    out.append((f"{a}||{b}", float(np.linalg.norm(np.cross(da, db)))))
                if rel is RelationCode.COAXIAL:
                    offset = self.point[b] - self.point[a]
                    out.append((f"{a}/{b}", float(np.linalg.norm(np.cross(da, offset)))))
                if rel is RelationCode.PERPENDICULAR:
                    out.append((f"{a}_|_{b}", float(abs(np.dot(da, db)))))
                if rel is RelationCode.COMMON_POINT:
                    out.append((f"{a}*{b}", _line_distance(self, a, b)))
                if rel is RelationCode.COPLANAR:
                    offset = self.point[b] - self.point[a]
                    n = np.cross(da, db)
                    if np.linalg.norm(n) > 1e-9:
                        out.append((f"{a}#{b}", float(abs(np.dot(offset, _unit(n))))))
        return out


def _line_distance(inst: GeometricInstance, a: AxisRef, b: AxisRef) -> float:
    da, db = inst.direction[a], inst.direction[b]
    offset = inst.point[b] - inst.point[a]
    n = np.cross(da, db)
    norm = np.linalg.norm(n)
    if norm < 1e-9:  # parallel lines: distance of offset from the direction
        return float(np.linalg.norm(np.cross(da, offset)))
    return float(abs(np.dot(offset, n / norm)))


def instantiate_geometry(
    mech: MechanismTopology, g: RelationGraph | None = None, seed: int = 0
) -> GeometricInstance:
    """Sample axis directions and points satisfying the seeded relations.

    Every parallel class receives one direction; perpendicular class pairs
    are enforced by projection.  Coaxial axes share their anchor point,
    common-point groups share one point, and coplanar pairs are anchored so
    the two lines intersect.  Raises Unsatisfiable when projection leaves
    no direction.
    """
    if g is None:
        g = build_relation_graph(mech)
    rng = _rng(seed)
    axes = g.axes()

    roots = sorted({g.parallel_class(a) for a in axes})
    class_dir: dict[AxisRef, np.ndarray] = {}
    for root in roots:
        must_perp = [
            class_dir[other]
            for other in roots
            if other in class_dir and g.perpendicular(root, other)
        ]
        d = _unit(rng.normal(size=3))
        if must_perp:
            basis = np.linalg.qr(np.column_stack(must_perp))[0]
            d = d - basis @ (basis.T @ d)
            d = _unit(d)
        class_dir[root] = d
    direction = {a: class_dir[g.parallel_class(a)] for a in axes}

    # anchor points: one per coaxial line, then positional constraints
    coax_root = {a: g.coaxial_class(a) for a in axes}
    anchor = {root: rng.uniform(size=3) for root in sorted(set(coax_root.values()))}

    # common-point groups: linked coaxial lines share one point.  A group's
    # root is its smallest line, so the sorted walk draws its point first
    groups = _UnionFind(anchor)
    pinned: set[AxisRef] = set()
    for a, b, code in g.seeded_pairs():
        if code is RelationCode.COMMON_POINT:
            pinned.update((coax_root[a], coax_root[b]))
            groups.union(coax_root[a], coax_root[b])
    for root in sorted(pinned):
        group = groups.find(root)
        anchor[root] = rng.uniform(size=3) if root == group else anchor[group]

    # coplanar pairs: move one free line so the two lines intersect
    for a, b, code in g.seeded_pairs():
        if code is not RelationCode.COPLANAR:
            continue
        ra, rb = coax_root[a], coax_root[b]
        if ra == rb:
            continue
        if rb in pinned and ra not in pinned:
            a, b, ra, rb = b, a, rb, ra
        if rb in pinned:
            continue
        meet = anchor[ra] + rng.normal() * direction[a]
        anchor[rb] = meet + rng.normal() * direction[b]
        pinned.add(ra)
        pinned.add(rb)

    point = {a: anchor[coax_root[a]] for a in axes}
    return GeometricInstance(seed=seed, direction=direction, point=dict(point))


# --------------------------------------------------------------------------
# twist spaces and ranks


@dataclass
class TwistBasis:
    """Row-stacked twists (k x 6), their numeric rank and an orthonormal
    basis (rank x 6) of their span."""

    screws: np.ndarray
    rank: int
    basis: np.ndarray
    near_threshold: bool


def _cutoff(s: np.ndarray, reference: float) -> tuple[int, bool]:
    """Rank of singular values s against RANK_RTOL * reference, and whether
    any of them lies within NEAR_FACTOR of that threshold on either side."""
    if s.size == 0 or reference < 1e-300:
        return 0, False
    threshold = RANK_RTOL * reference
    near = (s > threshold / NEAR_FACTOR) & (s <= NEAR_FACTOR * threshold)
    return int(np.sum(s > threshold)), bool(np.any(near))


def _rank(matrix: np.ndarray, scale: float | None = None) -> tuple[int, np.ndarray, bool]:
    """Numeric rank with the threshold relative to scale (default: s_max).

    Pass an explicit scale when the matrix is a block of a larger one, so a
    block of rounding noise does not count as full rank against itself.
    """
    if matrix.size == 0:
        return 0, np.zeros(0), False
    s = np.linalg.svd(matrix, compute_uv=False)
    rank, near = _cutoff(s, s[0] if scale is None else scale)
    return rank, s, near


def leg_twist_space(
    mech: MechanismTopology, leg_index: int, inst: GeometricInstance
) -> TwistBasis:
    """Twist basis of one leg (leg_index is 0-based)."""
    leg = mech.legs[leg_index]
    axes = [AxisRef(leg.label, j) for j in range(1, len(leg.joints) + 1)]
    d = np.array([inst.direction[axis] for axis in axes])
    p = np.array([inst.point[axis] for axis in axes])
    revolute = np.array([kind is JointKind.REVOLUTE for kind in leg.joints])[:, None]
    screws = np.where(
        revolute, np.hstack([d, np.cross(p, d)]), np.hstack([np.zeros_like(d), d])
    )
    _, s, vh = np.linalg.svd(screws, full_matrices=False)
    rank, near = _cutoff(s, s[0])
    return TwistBasis(screws=screws, rank=rank, basis=vh[:rank], near_threshold=near)


def union_and_intersection(
    a: np.ndarray, b: np.ndarray
) -> tuple[int, np.ndarray, bool]:
    """Union rank and intersection basis of two row-orthonormal subspaces.

    One full SVD of the stacked rows [a; b] = u s vh answers both.  Its
    rank is the dimension of the union.  Each left null vector (x, y), a
    column of u past the rank, gives x a = -y b, a vector in both spaces;
    because the rows of a and of b are orthonormal, |x|^2 = |y|^2 = 1/2 and
    distinct null vectors give orthogonal images, so sqrt(2) x a are
    orthonormal rows spanning the intersection, of dimension
    len(a) + len(b) - rank.  Both answers come from the same singular
    values, so one near-threshold flag covers them.
    """
    u, s, _ = np.linalg.svd(np.vstack([a, b]), full_matrices=True)
    rank, near = _cutoff(s, s[0])
    return rank, np.sqrt(2.0) * (u[: a.shape[0], rank:].T @ a), near


@dataclass
class NumericMobility:
    """Numeric analysis of one geometric instance."""

    loop_ranks: tuple[int, ...]
    platform_dim: int
    platform_xi_t: int
    platform_xi_r: int
    dof: int
    near_threshold: bool


def numeric_loop_and_platform(mech: MechanismTopology, inst: GeometricInstance) -> NumericMobility:
    """Fold legs numerically: loop ranks, platform space and its split.

    The split counts the angular rank of the platform twist space as the
    rotational part; the remainder are pure translations.  With one leg
    there is no loop and the platform space is the leg space.
    """
    spaces = []
    near = False
    for i in range(mech.leg_count):
        tb = leg_twist_space(mech, i, inst)
        near = near or tb.near_threshold
        spaces.append(tb.basis)

    loops: list[int] = []
    current = spaces[0]
    for nxt in spaces[1:]:
        rank, current, near_loop = union_and_intersection(current, nxt)
        loops.append(rank)
        near = near or near_loop

    dim = current.shape[0]
    if dim:
        # the basis rows are orthonormal, so the angular block is measured
        # against scale 1 rather than against its own largest value
        xi_r, _, near_split = _rank(current[:, :3], scale=1.0)
        near = near or near_split
    else:
        xi_r = 0
    total = mech.total_joint_dof
    return NumericMobility(
        loop_ranks=tuple(loops),
        platform_dim=dim,
        platform_xi_t=dim - xi_r,
        platform_xi_r=xi_r,
        dof=total - sum(loops),
        near_threshold=near,
    )


# --------------------------------------------------------------------------
# symbolic vs numeric comparison


@dataclass
class OracleComparison:
    seed: int
    agrees: bool
    detail: str


@dataclass
class OracleResult:
    seeds: tuple[int, ...]
    comparisons: tuple[OracleComparison, ...]

    @property
    def agreement(self) -> int:
        return sum(1 for c in self.comparisons if c.agrees)

    @property
    def all_agree(self) -> bool:
        return self.agreement == len(self.comparisons)


_RESAMPLE_STEP = 10_000_019


def verify_mechanism(mech: MechanismTopology, report, seeds) -> OracleResult:
    """Compare a symbolic MobilityReport against numeric instances.

    Each seed samples one geometry (resampling a bounded number of times
    when singular values fall near the rank threshold) and compares loop
    ranks, platform dimension and the translation/rotation split.
    """
    g = build_relation_graph(mech)
    symbolic_loops = tuple(rank.xi for rank in report.loop_ranks)
    comparisons = []
    for seed in seeds:
        result = None
        for attempt in range(3):
            inst = instantiate_geometry(mech, g, seed + attempt * _RESAMPLE_STEP)
            result = numeric_loop_and_platform(mech, inst)
            if not result.near_threshold:
                break
        mismatches = []
        if result.loop_ranks != symbolic_loops:
            mismatches.append(f"loop ranks {result.loop_ranks} != {symbolic_loops}")
        if result.platform_dim != report.poc.rank:
            mismatches.append(f"platform dim {result.platform_dim} != {report.poc.rank}")
        if (result.platform_xi_t, result.platform_xi_r) != (report.poc.xi_t, report.poc.xi_r):
            mismatches.append(
                f"split ({result.platform_xi_t}T,{result.platform_xi_r}R) != "
                f"({report.poc.xi_t}T,{report.poc.xi_r}R)"
            )
        if result.dof != report.dof:
            mismatches.append(f"dof {result.dof} != {report.dof}")
        comparisons.append(
            OracleComparison(
                seed=seed,
                agrees=not mismatches,
                detail="; ".join(mismatches) if mismatches else "ok",
            )
        )
    return OracleResult(seeds=tuple(seeds), comparisons=tuple(comparisons))
