"""Numeric screw-space oracle.

Independent check of the symbolic analysis: sample a random geometry that
satisfies the seeded axis relations, build joint twist bases, and compute
loop ranks and the platform twist space with plain linear algebra.  A
revolute joint at point p with unit direction d contributes the twist
(d, p x d); a prismatic joint contributes (0, d).

Ranks use singular values with a relative threshold.  Geometry sampling is
driven by a seeded PCG64 generator, so results are reproducible across
platforms.

Everything that does not depend on the seed (the order in which parallel
classes are drawn and which earlier classes each must be perpendicular to,
the line of every axis, the pairs of lines that must meet and each leg's
axis indices) is compiled once per mechanism into an OraclePlan.  It has
the one sampler, OraclePlan.sample, and the one ranker, OraclePlan.rank,
and the seeds are sampled and ranked as one stack.  Each seed keeps its own
PCG64 stream, so it draws the same bits in any stack.

What the sampler draws and projects before it places anchors depends only
on the seeds and the mechanism's shape, so one lru cache of at most 512
stacks holds it once per process, read-only: the unit class directions
after the perpendicular projections and the uniform anchor draws, keyed by
the integer seeds, the class and line counts and the (class, earlier
classes) constraints.  A miss gives each seed a fresh
Generator(PCG64(seed)), which draws its normals and then its uniforms, so a
cached stack is bit for bit the one it replaces.  A float seed raises
before the lookup.  An unsatisfiable projection raises and is never cached.
Only the anchor projection runs per call: it moves each seed's uniform draw
onto the points where every pair of lines that must meet does.

The ranker keeps the seeds stacked from the leg SVDs to the platform
split.  Each leg's stack is factored and ranked on its own.  The loop fold
holds a list of groups, each some seeds, their stacked bases and the loop
ranks they share, and splits a group only where a rank differs between its
seeds, so a stack whose seeds agree stays one group, which a slice indexes
without a copy.  A loop union with an empty operand or one of all six
dimensions has a closed form; any other factors only the smaller of its
two bases projected off the larger, whose singular values (the sines of
the principal angles) alone give the union rank and whose left singular
vectors give the intersection.  verify_mechanism draws again only the
seeds whose singular values fell near the rank threshold.  The two
one-seed entry points, instantiate_geometry (one seed's geometry) and
numeric_loop_and_platform (one geometry's ranks), call into the same code,
and a stacked seed gives bit for bit the result of its one-seed call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .relations import AxisRef, RelationGraph, Unsatisfiable, build_relation_graph
from .relations import join_classes, leg_axes
from .topology import JointKind, MechanismTopology, RelationCode

RANK_RTOL = 1e-8
RESIDUAL_TOL = 1e-9
NEAR_FACTOR = 10.0
# the positions of every seed of a stack, which index it without a copy
_ALL = slice(None)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # the cross product's index orders


@lru_cache(maxsize=512)
def _draws(
    seeds: tuple, classes: int, lines: int, constrained: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The unit direction of each class and the uniform anchor draw of each
    line, for each seed, stacked and read-only.

    Each seed draws from a fresh Generator(PCG64(seed)): a normal draw of
    classes x 3 and then a uniform draw of lines x 3.  The directions are
    the normalised normal draw, and for each (class, earlier classes) of
    constrained, in order, that draw projected perpendicular to the earlier
    classes' directions.

    Raises Unsatisfiable(class) when projection leaves a class no direction.
    """
    normal = np.empty((len(seeds), classes, 3))
    point = np.empty((len(seeds), lines, 3))
    for i, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.standard_normal(out=normal[i])
        rng.random(out=point[i])
    direction = _unit(normal)
    for c, earlier in constrained:
        d = normal[:, c]
        basis = np.linalg.qr(direction[:, earlier].mT)[0]
        # a stacked @ rounds like the one-seed product; einsum does not
        d = d - (basis @ (basis.mT @ d[..., None]))[..., 0]
        if np.any(np.vecdot(d, d) < 1e-24):
            raise Unsatisfiable(c)
        direction[:, c] = _unit(d)
    direction.flags.writeable = point.flags.writeable = False
    return direction, point


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, rounded like np.cross, without its overhead."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _unit(v: np.ndarray) -> np.ndarray:
    """Normalise the last axis of v."""
    # sqrt(vecdot) rounds like the norm of one vector does, where a stacked
    # np.linalg.norm(v, axis=-1) can differ in the last bit
    return v / np.sqrt(np.vecdot(v, v))[..., None]


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


def _revolute_mask(kinds) -> np.ndarray:
    return np.array([kind is JointKind.REVOLUTE for kind in kinds])[:, None]


class OraclePlan:
    """The seed-independent part of sampling and ranking one mechanism.

    A draw is a pair of stacks: one unit direction per parallel class
    (seeds x classes x 3), most constrained class first, and one anchor
    point per line (seeds x lines x 3).  Perpendicular class pairs are met
    by projection, coaxial axes share their anchor, and every seeded
    coplanar or common-point pair is one linear rule on the anchor points.
    """

    def __init__(self, mech: MechanismTopology, g: RelationGraph) -> None:
        axes = g.axes()
        perpendicular = g.perpendicular_classes()
        # the most constrained classes first, so that no class is left only
        # the one direction its earlier perpendiculars allow; ties by root
        self._roots = roots = sorted(perpendicular, key=lambda r: (-len(perpendicular[r]), r))
        class_index = {root: i for i, root in enumerate(roots)}
        # each class that must be perpendicular to earlier classes, with those
        # (a tuple, so that it keys the draw cache); the classes without a
        # perpendicular come last
        constrained = []
        for i, root in enumerate(roots):
            if not perpendicular[root]:
                break
            earlier = sorted(j for j in map(class_index.get, perpendicular[root]) if j < i)
            if earlier:
                constrained.append((i, tuple(earlier)))
        self._constrained = tuple(constrained)
        self._class_of = class_of = {a: class_index[g.parallel_class(a)] for a in axes}

        # two lines in R^3 meet exactly when they are coplanar.  Parallel
        # lines always are, and parallel lines that meet are one line; any
        # other pair meets when (p_b - p_a) . (d_a x d_b) = 0, one row each;
        # meets holds the a and the b of each such pair
        line_root, line_members = dict(zip(axes, axes)), {}
        meets: tuple[list[AxisRef], list[AxisRef]] = ([], [])
        for a, b, code in g.seeded_pairs():
            if code is RelationCode.COPLANAR or code is RelationCode.COMMON_POINT:
                if class_of[a] != class_of[b]:
                    meets[0].append(a)
                    meets[1].append(b)
                elif code is RelationCode.COMMON_POINT:
                    join_classes(line_root, line_members, g.coaxial_class(a), g.coaxial_class(b))
        # a line's root is its smallest axis, so numbering the lines as the
        # sorted axes reach them numbers them in the order of their roots
        line_index: dict[AxisRef, int] = {}
        self._anchor_of = anchor_of = {
            a: line_index.setdefault(line_root[g.coaxial_class(a)], len(line_index)) for a in axes
        }
        # row k takes the anchor difference p_b - p_a of the k-th meet
        rows = np.arange(len(meets[0]))
        self._meet_classes = np.array([[class_of[a] for a in side] for side in meets], dtype=np.intp)
        anchors = np.array([[anchor_of[a] for a in side] for side in meets], dtype=np.intp)
        self._incidence = np.zeros((len(rows), len(line_index)))
        self._incidence[rows, anchors[0]] = -1.0
        self._incidence[rows, anchors[1]] = 1.0
        self._overlap = self._incidence @ self._incidence.T

        # the parallel-class and anchor index of every joint axis in leg
        # order, and where each leg's joints end
        joint_axes = [a for leg in mech.legs for a in leg_axes(leg.label, leg.f)]
        self._axis_class, self._axis_anchor = np.array(
            [[index[a] for a in joint_axes] for index in (class_of, anchor_of)], dtype=np.intp
        )
        self._revolute = _revolute_mask([kind for leg in mech.legs for kind in leg.joints])
        ends = list(accumulate(len(leg.joints) for leg in mech.legs))
        self._leg_bounds = list(zip([0, *ends], ends))
        self._total_dof = mech.total_joint_dof

    def sample(self, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Directions and anchor points for each seed, stacked.

        Raises Unsatisfiable when projection leaves a class no direction.
        """
        # the draws and directions depend only on the seeds and the shape,
        # so mechanisms of one shape share them; the cache holds them
        # read-only, and what is returned is the caller's own.  Integer
        # seeds key it, and a float seed raises here, as PCG64 would
        seeds = tuple(map(operator.index, seeds))
        classes, lines = len(self._roots), self._incidence.shape[1]
        try:
            direction, point = _draws(seeds, classes, lines, self._constrained)
        except Unsatisfiable as e:
            [c] = e.args
            earlier = dict(self._constrained)[c]
            names = ", ".join(str(self._roots[j]) for j in earlier)
            raise Unsatisfiable(
                f"parallel class {self._roots[c]} has no direction "
                f"perpendicular to all of {names}"
            ) from None
        direction = direction.copy()

        if len(self._incidence):
            # the rows are A p = 0, A being the incidence scaled by each row's
            # normal; p - A^T (A A^T)^+ A p is the nearest draw that meets them
            n = _cross(direction[:, self._meet_classes[0]], direction[:, self._meet_classes[1]])
            w, v = np.linalg.eigh(self._overlap * (n @ n.mT))
            # drop the directions of dependent rows rather than divide by noise
            scale = np.divide(1.0, w, out=np.zeros_like(w), where=w > 1e-12 * w[:, -1:])
            gap = np.vecdot(n, self._incidence @ point)[..., None]
            shift = v @ (scale[..., None] * (v.mT @ gap))
            return direction, point - self._incidence.T @ (shift * n)
        return direction, point.copy()

    def instance(
        self, draw: tuple[np.ndarray, np.ndarray], index: int, seed: int
    ) -> GeometricInstance:
        """The geometry of one seed of a stacked draw."""
        direction, point = draw
        return GeometricInstance(
            seed=seed,
            direction={a: direction[index, c] for a, c in self._class_of.items()},
            point={a: point[index, k] for a, k in self._anchor_of.items()},
        )

    def rank(self, draw: tuple[np.ndarray, np.ndarray]) -> list[NumericMobility]:
        """Numeric mobility of each seed of a stacked draw."""
        direction, point = draw
        twists = _twists(
            direction[:, self._axis_class], point[:, self._axis_anchor], self._revolute
        )
        legs = [twists[:, start:end] for start, end in self._leg_bounds]
        return _numeric_mobility(self._total_dof, legs)


def instantiate_geometry(
    mech: MechanismTopology, g: RelationGraph | None = None, seed: int = 0
) -> GeometricInstance:
    """Sample axis directions and points satisfying the seeded relations.

    A one-seed call into OraclePlan, which says how the relations are met.
    Raises Unsatisfiable when projection leaves no direction.
    """
    if g is None:
        g = build_relation_graph(mech)
    plan = OraclePlan(mech, g)
    return plan.instance(plan.sample([seed]), 0, seed)


# --------------------------------------------------------------------------
# twist spaces and ranks


def _cutoff(s: np.ndarray, reference) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of stacked singular values s (..., k) against RANK_RTOL times
    reference (..., 1, or a number), and whether any of them lies within
    NEAR_FACTOR of that threshold on either side.  A zero reference ranks
    nothing and flags nothing, as no singular value is above zero."""
    threshold = RANK_RTOL * reference
    near = (s > threshold / NEAR_FACTOR) & (s <= NEAR_FACTOR * threshold)
    return (s > threshold).sum(-1), near.any(-1)


def _twists(d: np.ndarray, p: np.ndarray, revolute: np.ndarray) -> np.ndarray:
    """Twists (... x 6) of joints with directions d and points p (... x 3):
    (d, p x d) where revolute, else (0, d)."""
    return np.concatenate(
        [np.where(revolute, d, 0.0), np.where(revolute, _cross(p, d), d)], axis=-1
    )


def _leg_spaces(legs: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per leg, the ranks, right singular vectors and near flags of its
    stack of twist matrices (seeds x f x 6), each ranked against its own
    largest singular value."""
    spaces = []
    for leg in legs:
        _, s, vh = np.linalg.svd(leg, full_matrices=False)
        rank, near = _cutoff(s, s[..., :1])
        spaces.append((rank, vh, near))
    return spaces


def _one_seed_leg(leg, inst: GeometricInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A leg's joint directions and points as a stack of one seed, and its
    revolute mask."""
    axes = leg_axes(leg.label, leg.f)
    d = np.array([inst.direction[axis] for axis in axes])
    p = np.array([inst.point[axis] for axis in axes])
    return d[None], p[None], _revolute_mask(leg.joints)


def _split(keys: np.ndarray) -> list[tuple[int, slice | np.ndarray]]:
    """Each distinct key of a stack, ascending, with the positions that hold
    it: _ALL when every seed holds the one key, the usual case."""
    distinct = set(keys.tolist())
    if len(distinct) == 1:
        return [(distinct.pop(), _ALL)]
    return [(key, np.flatnonzero(keys == key)) for key in sorted(distinct)]


def _take(index: slice | np.ndarray, members: slice | np.ndarray) -> slice | np.ndarray:
    """The positions in the stack of the seeds at positions members of index."""
    return members if index is _ALL else index[members]


def _unions(
    a: np.ndarray, b: np.ndarray
) -> tuple[list[tuple[int, slice | np.ndarray, np.ndarray]], np.ndarray]:
    """Union ranks and intersection bases, and near flags, of stacked pairs of
    row-orthonormal subspaces a (n x ka x 6) and b (n x kb x 6).  Bases of
    different dimensions cannot share an array, so the intersection bases
    come as one stack per union rank, with that rank and its positions.

    Call the smaller operand a (k rows) and the larger b (m rows).  With a
    empty or b the whole space, the union has rank min(k + m, 6), a spans
    the intersection and no value is near the threshold.  Otherwise both
    answers depend only on the principal angles between the two spans, and
    those come from a alone (Bjorck and Golub, Math. Comp. 27, 1973).  With
    C = a b^T, the stacked rows have [a; b][a; b]^T = [[I, C], [C^T, I]],
    whose eigenvalues are 1 + cos and 1 - cos for each cosine of C and 1
    for each of the m - k rows left over.  The part of a off the span of b,
    rest = a - C b, has rest rest^T = I - C C^T, so one SVD of the k x 6
    matrix rest = u sine vh gives the sines, and cos = sqrt(1 - sine^2),
    taken as 0 where rounding lifts a sine past 1.  In descending order,
    the singular values of [a; b] are sqrt(1 + cos), then m - k ones, then
    sine / sqrt(1 + cos), which is sqrt(1 - cos) without its cancellation;
    only the first six count, as [a; b] has six columns.  The first m are
    at least 1, so the rank is m plus the number of the next 6 - m above
    RANK_RTOL times the largest sqrt(1 + cos), as from one SVD of [a; b],
    and one near-threshold flag covers both answers.

    The columns of u past the sines counted, mapped through a, are
    orthonormal rows that lie in the span of b to within the threshold and
    span the intersection, of dimension k + m - rank.
    """
    if a.shape[-2] > b.shape[-2]:
        a, b = b, a
    k, m = a.shape[-2], b.shape[-2]
    if k == 0 or m == 6:
        return [(min(k + m, 6), _ALL, a)], np.zeros(len(a), bool)
    # a stacked @ rounds like the one-pair product
    u, sine, _ = np.linalg.svd(a - (a @ b.mT) @ b)
    wide = np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - sine * sine, 0.0)))
    extra, near = _cutoff((sine / wide)[..., : 6 - m], wide[..., -1:])
    meets = [(m + e, members, u[members, :, e:].mT @ a[members]) for e, members in _split(extra)]
    return meets, near


@dataclass
class NumericMobility:
    """Numeric analysis of one geometric instance."""

    loop_ranks: tuple[int, ...]
    platform_dim: int
    platform_xi_t: int
    platform_xi_r: int
    dof: int
    near_threshold: bool


def _numeric_mobility(total_dof: int, legs: list[np.ndarray]) -> list[NumericMobility]:
    """Fold a stack of seeds' legs numerically; legs holds per leg its
    twist matrices (seeds x f x 6).

    The fold keeps a list of groups, each the positions of some seeds,
    their stacked bases (seeds x k x 6) and the loop ranks they share.  A
    group splits only where a leg or union rank differs between its seeds,
    so a stack whose seeds agree stays one group, at _ALL, from the first
    leg to the platform split.
    """
    spaces = _leg_spaces(legs)
    n = len(legs[0])
    near = np.zeros(n, dtype=bool)
    for _, _, leg_near in spaces:
        near |= leg_near

    rank, vh, _ = spaces[0]
    groups = [(members, vh[members, :r], ()) for r, members in _split(rank)]
    for rank, vh, _ in spaces[1:]:
        folded = []
        for index, current, loops in groups:
            for kb, members in _split(rank[index]):
                ids = _take(index, members)
                meets, loop_near = _unions(current[members], vh[ids, :kb])
                near[ids] |= loop_near
                folded += [(_take(ids, m), meet, (*loops, union)) for union, m, meet in meets]
        groups = folded

    mobility: list = [None] * n
    for index, current, loops in groups:
        dim, dof = current.shape[-2], total_dof - sum(loops)
        xi_r = [0] * len(current)
        if dim:
            # the basis rows are orthonormal, so the angular block is measured
            # against 1: against its own largest value, a block of rounding
            # noise would count as full rank
            split, split_near = _cutoff(np.linalg.svd(current[..., :3], compute_uv=False), 1.0)
            near[index] |= split_near
            xi_r = split.tolist()
        for i, r, flag in zip(np.arange(n)[index].tolist(), xi_r, near[index].tolist()):
            mobility[i] = NumericMobility(
                loop_ranks=loops,
                platform_dim=dim,
                platform_xi_t=dim - r,
                platform_xi_r=r,
                dof=dof,
                near_threshold=flag,
            )
    return mobility


def numeric_loop_and_platform(mech: MechanismTopology, inst: GeometricInstance) -> NumericMobility:
    """Fold legs numerically: loop ranks, platform space and its split.

    The split counts the angular rank of the platform twist space as the
    rotational part; the remainder are pure translations.  With one leg
    there is no loop and the platform space is the leg space.
    """
    legs = [_twists(*_one_seed_leg(leg, inst)) for leg in mech.legs]
    return _numeric_mobility(mech.total_joint_dof, legs)[0]


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

    report must be the MobilityReport that analyze_mechanism returned for
    mech: its graph is the relation graph the geometry is sampled on.  Each
    seed samples one geometry and compares loop ranks, platform dimension
    and the translation/rotation split.  The seeds are sampled and ranked
    as one stack; a seed whose singular values fall near the rank threshold
    is drawn again, at seed + attempt * _RESAMPLE_STEP, at most twice.
    """
    plan = OraclePlan(mech, report.graph)
    seeds = tuple(seeds)
    results: list[NumericMobility | None] = [None] * len(seeds)
    pending = list(range(len(seeds)))
    for attempt in range(3):
        if not pending:
            break
        draw = plan.sample(seeds[i] + attempt * _RESAMPLE_STEP for i in pending)
        for i, result in zip(pending, plan.rank(draw)):
            results[i] = result
        pending = [i for i in pending if results[i].near_threshold]

    symbolic = (
        tuple(rank.xi for rank in report.loop_ranks),
        report.poc.rank,
        report.poc.xi_t,
        report.poc.xi_r,
        report.dof,
    )
    # seeds mostly give one answer, so each distinct answer is compared once
    verdicts: dict[tuple, tuple[bool, str]] = {symbolic: (True, "ok")}
    comparisons = []
    for seed, result in zip(seeds, results):
        numeric = (
            result.loop_ranks,
            result.platform_dim,
            result.platform_xi_t,
            result.platform_xi_r,
            result.dof,
        )
        if numeric not in verdicts:
            verdicts[numeric] = False, _mismatches(numeric, symbolic)
        agrees, detail = verdicts[numeric]
        comparisons.append(OracleComparison(seed=seed, agrees=agrees, detail=detail))
    return OracleResult(seeds=seeds, comparisons=tuple(comparisons))


def _mismatches(numeric: tuple, symbolic: tuple) -> str:
    """How a seed's (loop ranks, platform dim, xi_t, xi_r, dof) differ from
    the symbolic ones."""
    loops, dim, xi_t, xi_r, dof = numeric
    s_loops, s_dim, s_xi_t, s_xi_r, s_dof = symbolic
    out = []
    if loops != s_loops:
        out.append(f"loop ranks {loops} != {s_loops}")
    if dim != s_dim:
        out.append(f"platform dim {dim} != {s_dim}")
    if (xi_t, xi_r) != (s_xi_t, s_xi_r):
        out.append(f"split ({xi_t}T,{xi_r}R) != ({s_xi_t}T,{s_xi_r}R)")
    if dof != s_dof:
        out.append(f"dof {dof} != {s_dof}")
    return "; ".join(out)
