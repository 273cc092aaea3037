"""Mechanism-wide axis relation graph.

Seeded relations come from the leg matrices and both platform matrices.
Derived relations follow two closure rules: parallelism (with coaxiality as
a refinement) is an equivalence, and a perpendicularity constraint between
two axes holds between their whole parallel classes.  Perpendicularity is
not transitive.  Coplanar and common-point codes are positional: they are
stored and reported but never feed direction closure.

The graph is immutable once built, so lookups are safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import JointKind, MechanismTopology, RelationCode


@dataclass(frozen=True, order=True)
class AxisRef:
    """Reference to one joint axis: leg number and 1-based joint index."""

    leg: int
    joint: int

    def __str__(self) -> str:
        return f"{self.leg}.{self.joint}"


class UnknownAxis(KeyError):
    """An AxisRef does not name a joint of the mechanism."""


class InconsistentRelations(ValueError):
    """The seeded relations contradict each other (e.g. an axis would be
    both parallel and perpendicular to another)."""


class _UnionFind:
    def __init__(self, items) -> None:
        self.parent: dict[AxisRef, AxisRef] = {x: x for x in items}

    def find(self, x: AxisRef) -> AxisRef:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: AxisRef, b: AxisRef) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller ref as root, so every root is the minimum of
            # its class and results do not depend on order
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


class RelationGraph:
    """Derived axis relations for one mechanism.

    Use build_relation_graph to construct.  relation_between returns the
    strongest derivable relation for a pair; same_axis tells whether two
    refs name the same line (identical ref or seeded coaxial chain).
    parallel and coaxial map every axis to the root of its class, which is
    the smallest AxisRef of that class.
    """

    def __init__(
        self,
        kinds: dict[AxisRef, JointKind],
        parallel: dict[AxisRef, AxisRef],
        coaxial: dict[AxisRef, AxisRef],
        perp_pairs: frozenset[frozenset[AxisRef]],
        seeded: dict[frozenset[AxisRef], RelationCode],
    ) -> None:
        self._kinds = kinds
        self._parallel = parallel
        self._coaxial = coaxial
        self._perp_pairs = perp_pairs
        self._seeded = seeded
        # the numeric oracle walks both for every seed; sort them once
        self._axes = tuple(sorted(kinds))
        self._seeded_pairs = tuple(
            sorted((min(pair), max(pair), code) for pair, code in seeded.items())
        )

    # -- lookups ---------------------------------------------------------

    def axes(self) -> tuple[AxisRef, ...]:
        return self._axes

    def _require(self, axis: AxisRef) -> None:
        if axis not in self._kinds:
            raise UnknownAxis(f"axis {axis} is not a joint of this mechanism")

    def kind(self, axis: AxisRef) -> JointKind:
        self._require(axis)
        return self._kinds[axis]

    def label(self, axis: AxisRef) -> str:
        """Short joint name like R41 (kind, leg, joint index)."""
        return f"{self.kind(axis).value}{axis.leg}{axis.joint}"

    def same_axis(self, a: AxisRef, b: AxisRef) -> bool:
        """True when a and b are the same line: equal refs or coaxial."""
        self._require(a)
        self._require(b)
        return a == b or self._coaxial[a] == self._coaxial[b]

    def parallel(self, a: AxisRef, b: AxisRef) -> bool:
        """True when the directions of a and b are known parallel."""
        self._require(a)
        self._require(b)
        return self._parallel[a] == self._parallel[b]

    def perpendicular(self, a: AxisRef, b: AxisRef) -> bool:
        """True when the directions of a and b are known perpendicular."""
        self._require(a)
        self._require(b)
        pair = frozenset((self._parallel[a], self._parallel[b]))
        return len(pair) == 2 and pair in self._perp_pairs

    def parallel_class(self, axis: AxisRef) -> AxisRef:
        """Smallest axis parallel to the given one."""
        self._require(axis)
        return self._parallel[axis]

    def coaxial_class(self, axis: AxisRef) -> AxisRef:
        """Smallest axis on the same line as the given one."""
        self._require(axis)
        return self._coaxial[axis]

    def relation_between(self, a: AxisRef, b: AxisRef) -> RelationCode:
        """Strongest derivable relation between two axes.

        Order of strength: Coaxial, then Parallel, then Perpendicular, then
        any seeded positional code, else Arbitrary.  An axis is parallel to
        itself.
        """
        self._require(a)
        self._require(b)
        if a == b:
            return RelationCode.PARALLEL
        if self._coaxial[a] == self._coaxial[b]:
            return RelationCode.COAXIAL
        if self._parallel[a] == self._parallel[b]:
            return RelationCode.PARALLEL
        if self.perpendicular(a, b):
            return RelationCode.PERPENDICULAR
        return self._seeded.get(frozenset((a, b)), RelationCode.ARBITRARY)

    # -- constraint enumeration (used by the numeric oracle) -------------

    def seeded_pairs(self) -> tuple[tuple[AxisRef, AxisRef, RelationCode], ...]:
        return self._seeded_pairs


def _seed_edges(mech: MechanismTopology):
    """Yield (a, b, code) for every seeded off-diagonal relation."""
    for leg in mech.legs:
        for i in range(1, leg.f + 1):
            for j in range(i + 1, leg.f + 1):
                yield AxisRef(leg.label, i), AxisRef(leg.label, j), leg.relation(i, j)
    k = mech.leg_count
    for i in range(k):
        for j in range(i + 1, k):
            a = AxisRef(mech.legs[i].label, mech.legs[i].f)
            b = AxisRef(mech.legs[j].label, mech.legs[j].f)
            yield a, b, mech.moving.matrix[i][j]
            a = AxisRef(mech.legs[i].label, 1)
            b = AxisRef(mech.legs[j].label, 1)
            yield a, b, mech.fixed.matrix[i][j]


_DIRECTIONAL = (RelationCode.PARALLEL, RelationCode.COAXIAL, RelationCode.PERPENDICULAR)


def _merge_codes(old: RelationCode, new: RelationCode, a: AxisRef, b: AxisRef) -> RelationCode:
    """Combine two seeds for the same pair, rejecting contradictions."""
    if old == new:
        return old
    pair = {old, new}
    if RelationCode.PERPENDICULAR in pair and pair & {RelationCode.PARALLEL, RelationCode.COAXIAL}:
        raise InconsistentRelations(
            f"axes {a} and {b} are seeded both perpendicular and parallel"
        )
    # keep the more constraining code
    strength = {
        RelationCode.ARBITRARY: 0,
        RelationCode.COPLANAR: 1,
        RelationCode.COMMON_POINT: 1,
        RelationCode.PERPENDICULAR: 2,
        RelationCode.PARALLEL: 2,
        RelationCode.COAXIAL: 3,
    }
    return old if strength[old] >= strength[new] else new


def build_relation_graph(mech: MechanismTopology) -> RelationGraph:
    """Build the closed relation graph for a mechanism.

    Raises InconsistentRelations when closure makes some parallel class
    perpendicular to itself, naming the offending cycle.
    """
    kinds: dict[AxisRef, JointKind] = {}
    for leg in mech.legs:
        for i, kind in enumerate(leg.joints, start=1):
            kinds[AxisRef(leg.label, i)] = kind

    seeds: dict[frozenset[AxisRef], RelationCode] = {}
    for a, b, code in _seed_edges(mech):
        if a not in kinds or b not in kinds:
            raise UnknownAxis(f"seeded relation references unknown axis {a} or {b}")
        pair = frozenset((a, b))
        if pair in seeds:
            seeds[pair] = _merge_codes(seeds[pair], code, a, b)
        elif code != RelationCode.ARBITRARY:
            seeds[pair] = code

    parallel = _UnionFind(kinds)
    coaxial = _UnionFind(kinds)
    for pair, code in seeds.items():
        a, b = sorted(pair)
        if code in (RelationCode.PARALLEL, RelationCode.COAXIAL):
            parallel.union(a, b)
        if code == RelationCode.COAXIAL:
            coaxial.union(a, b)
    parallel_root = {axis: parallel.find(axis) for axis in kinds}
    coaxial_root = {axis: coaxial.find(axis) for axis in kinds}

    perp_pairs: set[frozenset[AxisRef]] = set()
    for pair, code in seeds.items():
        if code is not RelationCode.PERPENDICULAR:
            continue
        a, b = sorted(pair)
        ra, rb = parallel_root[a], parallel_root[b]
        if ra == rb:
            raise InconsistentRelations(_describe_cycle(a, b, seeds))
        perp_pairs.add(frozenset((ra, rb)))

    return RelationGraph(kinds, parallel_root, coaxial_root, frozenset(perp_pairs), dict(seeds))


def _describe_cycle(a: AxisRef, b: AxisRef, seeds) -> str:
    """Name the parallel chain that collapses a seeded perpendicular pair."""
    adjacency: dict[AxisRef, list[AxisRef]] = {}
    for pair, code in seeds.items():
        if code in (RelationCode.PARALLEL, RelationCode.COAXIAL):
            x, y = sorted(pair)
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
    if b in prev:
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        chain = " ~ ".join(str(x) for x in reversed(path))
        return f"axes {a} _|_ {b} conflict with the parallel chain {chain}"
    return f"axes {a} _|_ {b} conflict with seeded parallel relations"
