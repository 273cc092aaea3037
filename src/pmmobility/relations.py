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

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .topology import MAX_LEG_JOINTS, JointKind, MechanismTopology, RelationCode

# bound once, as reading a member off its enum class is a Python-level lookup
ARBITRARY, PARALLEL, PERPENDICULAR, COAXIAL = map(RelationCode, range(4))


class AxisRef(NamedTuple):
    """Reference to one joint axis: leg number and 1-based joint index.

    A named tuple: it hashes, sorts and compares like the plain tuple
    (leg, joint), so it is a cheap dict key.  str gives "leg.joint".
    """

    leg: int
    joint: int

    def __str__(self) -> str:
        return f"{self.leg}.{self.joint}"


@lru_cache(maxsize=256)  # a parsed mechanism's legs fill at most 36 entries
def leg_axes(label: int, f: int) -> tuple[AxisRef, ...]:
    """The axes of joints 1..f of leg label: one cached tuple per (label, f),
    sharing one AxisRef per (leg, joint), which is a saving and not API."""
    if f < MAX_LEG_JOINTS:
        return leg_axes(label, MAX_LEG_JOINTS)[:f]
    return tuple(AxisRef(label, j) for j in range(1, f + 1))


class UnknownAxis(KeyError):
    """An AxisRef does not name a joint of the mechanism."""


class InconsistentRelations(ValueError):
    """The seeded relations contradict each other (e.g. an axis would be
    both parallel and perpendicular to another)."""


class Unsatisfiable(ValueError):
    """The seeded relations admit no generic geometric instance."""


class RelationGraph:
    """Derived axis relations for one mechanism.

    Use build_relation_graph to construct.  relation_between returns the
    strongest derivable relation for a pair; same_axis tells whether two
    refs name the same line (identical ref or seeded coaxial chain).
    parallel and coaxial map every axis to the root of its class, which is
    the smallest AxisRef of that class.  seeded keys each seeded pair by the
    ordered tuple (smaller, larger); perp_pairs holds both orders of each
    perpendicular pair of parallel roots, so that lookup needs no sorting.
    axes and seeded_pairs sort on each call: only the numeric oracle asks.
    """

    def __init__(
        self,
        kinds: dict[AxisRef, JointKind],
        parallel: dict[AxisRef, AxisRef],
        coaxial: dict[AxisRef, AxisRef],
        perp_pairs: frozenset[tuple[AxisRef, AxisRef]],
        seeded: dict[tuple[AxisRef, AxisRef], RelationCode],
    ) -> None:
        self._kinds = kinds
        self._parallel = parallel
        self._coaxial = coaxial
        self._perp_pairs = perp_pairs
        self._seeded = seeded

    # -- lookups ---------------------------------------------------------

    def axes(self) -> tuple[AxisRef, ...]:
        return tuple(sorted(self._kinds))

    def _unknown(self, *axes: AxisRef) -> UnknownAxis:
        """The error for the first of axes that is not a joint of this
        mechanism; the lookups index first and ask only on a KeyError."""
        axis = next(axis for axis in axes if axis not in self._kinds)
        return UnknownAxis(f"axis {axis} is not a joint of this mechanism")

    def kind(self, axis: AxisRef) -> JointKind:
        try:
            return self._kinds[axis]
        except KeyError:
            raise self._unknown(axis) from None

    def label(self, axis: AxisRef) -> str:
        """Short joint name like R41 (kind, leg, joint index)."""
        return f"{self.kind(axis).value}{axis.leg}{axis.joint}"

    def same_axis(self, a: AxisRef, b: AxisRef) -> bool:
        """True when a and b are the same line: equal refs or coaxial."""
        try:
            return self._coaxial[a] == self._coaxial[b] or a == b
        except KeyError:
            raise self._unknown(a, b) from None

    def parallel(self, a: AxisRef, b: AxisRef) -> bool:
        """True when the directions of a and b are known parallel."""
        try:
            return self._parallel[a] == self._parallel[b]
        except KeyError:
            raise self._unknown(a, b) from None

    def perpendicular(self, a: AxisRef, b: AxisRef) -> bool:
        """True when the directions of a and b are known perpendicular."""
        try:
            return (self._parallel[a], self._parallel[b]) in self._perp_pairs
        except KeyError:
            raise self._unknown(a, b) from None

    def parallel_class(self, axis: AxisRef) -> AxisRef:
        """Smallest axis parallel to the given one."""
        try:
            return self._parallel[axis]
        except KeyError:
            raise self._unknown(axis) from None

    def coaxial_class(self, axis: AxisRef) -> AxisRef:
        """Smallest axis on the same line as the given one."""
        try:
            return self._coaxial[axis]
        except KeyError:
            raise self._unknown(axis) from None

    def relation_between(self, a: AxisRef, b: AxisRef) -> RelationCode:
        """Strongest derivable relation between two axes.

        Order of strength: Coaxial, then Parallel, then Perpendicular, then
        any seeded positional code, else Arbitrary.  An axis is parallel to
        itself.
        """
        try:
            ca, cb = self._coaxial[a], self._coaxial[b]
        except KeyError:
            raise self._unknown(a, b) from None
        if a == b:
            return PARALLEL
        if ca == cb:
            return COAXIAL
        pa, pb = self._parallel[a], self._parallel[b]
        if pa == pb:
            return PARALLEL
        if (pa, pb) in self._perp_pairs:
            return PERPENDICULAR
        return self._seeded.get((a, b) if a < b else (b, a), ARBITRARY)

    # -- constraint enumeration (used by the numeric oracle) -------------

    def seeded_pairs(self) -> tuple[tuple[AxisRef, AxisRef, RelationCode], ...]:
        return tuple(sorted((a, b, code) for (a, b), code in self._seeded.items()))

    def perpendicular_classes(self) -> dict[AxisRef, set[AxisRef]]:
        """Every parallel class root, mapped to the roots of the classes
        known perpendicular to it; a new dict on each call."""
        out: dict[AxisRef, set[AxisRef]] = {root: set() for root in self._parallel.values()}
        for a, b in self._perp_pairs:
            out[a].add(b)
        return out


# how constraining each code is, for merging two seeds of one pair
_STRENGTH = {
    RelationCode.ARBITRARY: 0,
    RelationCode.COPLANAR: 1,
    RelationCode.COMMON_POINT: 1,
    RelationCode.PERPENDICULAR: 2,
    RelationCode.PARALLEL: 2,
    RelationCode.COAXIAL: 3,
}


def _merge_codes(old: RelationCode, new: RelationCode, a: AxisRef, b: AxisRef) -> RelationCode:
    """Combine two seeds for the same pair, rejecting contradictions."""
    if {old, new} in ({PERPENDICULAR, PARALLEL}, {PERPENDICULAR, COAXIAL}):
        raise InconsistentRelations(f"axes {a} and {b} are seeded both perpendicular and parallel")
    # keep the more constraining code
    return old if _STRENGTH[old] >= _STRENGTH[new] else new


def join_classes(root: dict, members: dict, a: AxisRef, b: AxisRef) -> None:
    """Merge the classes of a and b by relabelling the larger root's class.

    root maps each axis to the smallest axis of its class (its values are
    its own keys); members maps each root of two or more axes to its class.
    """
    ra, rb = root[a], root[b]
    if ra is rb:
        return
    if rb < ra:
        ra, rb = rb, ra
    moved = members.pop(rb, None) or [rb]
    for axis in moved:
        root[axis] = ra
    members.setdefault(ra, [ra]).extend(moved)


def build_relation_graph(mech: MechanismTopology) -> RelationGraph:
    """Build the closed relation graph for a mechanism.

    Seeds go in leg by leg, row by row, then the moving and the fixed pair
    of each two legs.  Raises InconsistentRelations when closure makes some
    parallel class perpendicular to itself, naming the offending cycle.
    """
    kinds: dict[AxisRef, JointKind] = {}
    seeds: dict[tuple[AxisRef, AxisRef], RelationCode] = {}
    first, last = [], []
    for leg in mech.legs:
        refs = leg_axes(leg.label, leg.f)
        kinds.update(zip(refs, leg.joints))
        # the upper triangle only: its pairs come ordered (smaller, larger)
        for i, (a, row) in enumerate(zip(refs, leg.relations), start=1):
            for b, code in zip(refs[i:], row[i:]):
                if code is not ARBITRARY:
                    seeds[a, b] = code
        first.append(refs[0])
        last.append(refs[-1])

    # the moving and the fixed pair of two legs are one pair when both legs
    # have one joint; no other platform pair can meet an earlier seed
    sides = ((last, mech.moving.matrix), (first, mech.fixed.matrix))
    for i in range(len(first)):
        for j in range(i + 1, len(first)):
            for ends, matrix in sides:
                a, b = ends[i], ends[j]
                pair = (a, b) if a < b else (b, a)
                code = matrix[i][j]
                if pair in seeds:
                    seeds[pair] = _merge_codes(seeds[pair], code, a, b)
                elif code is not ARBITRARY:
                    seeds[pair] = code

    parallel_root, parallel_members = dict(zip(kinds, kinds)), {}
    coaxial_root, coaxial_members = parallel_root.copy(), {}
    for (a, b), code in seeds.items():
        if code is PARALLEL:
            join_classes(parallel_root, parallel_members, a, b)
        elif code is COAXIAL:
            join_classes(parallel_root, parallel_members, a, b)
            join_classes(coaxial_root, coaxial_members, a, b)

    perp_pairs: set[tuple[AxisRef, AxisRef]] = set()
    for (a, b), code in seeds.items():
        if code is not PERPENDICULAR:
            continue
        ra, rb = parallel_root[a], parallel_root[b]
        if ra is rb:
            raise InconsistentRelations(_describe_cycle(a, b, seeds))
        perp_pairs.update(((ra, rb), (rb, ra)))

    return RelationGraph(kinds, parallel_root, coaxial_root, frozenset(perp_pairs), seeds)


def _describe_cycle(a: AxisRef, b: AxisRef, seeds) -> str:
    """Name the parallel chain that collapses a seeded perpendicular pair:
    the first path from a to b of a breadth-first search over the parallel
    seeds that visits the neighbours of each axis in sorted order."""
    adjacency: dict[AxisRef, list[AxisRef]] = {}
    for (x, y), code in seeds.items():
        if code is PARALLEL or code is COAXIAL:
            adjacency.setdefault(x, []).append(y)
            adjacency.setdefault(y, []).append(x)
    for neighbours in adjacency.values():
        neighbours.sort()
    prev: dict[AxisRef, AxisRef] = {a: a}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            break
        for nxt in adjacency[node]:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    # a and b share a parallel root, so these seeds join them: b is reached
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    chain = " ~ ".join(map(str, reversed(path)))
    return f"axes {a} _|_ {b} conflict with the parallel chain {chain}"
