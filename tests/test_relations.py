from __future__ import annotations

import random

import pytest

from pmmobility import (
    AxisRef,
    InconsistentRelations,
    RelationCode,
    UnknownAxis,
    build_relation_graph,
    decode_leg,
)
from pmmobility.relations import join_classes, leg_axes

from helpers import (
    PRRRR_MATRIX,
    RRC_MATRIX,
    UPS_MATRIX,
    corpus_graphs,
    corpus_mechanisms,
    labeled_random_mechanism,
    leg_from_relations,
    make_mechanism,
    pair_mechanism,
    random_mechanism,
    reference_class_roots,
    reference_relation_graph,
)


def brute_force_relations(mech):
    """Independent closure: fixpoint iteration over an explicit pair table.

    Starts from the seeded codes and repeatedly applies two rules until
    nothing changes: parallel/coaxial merge transitively, and a
    perpendicular pair spreads to everything parallel to either side.
    Returns the strongest relation per unordered pair.
    """
    axes = []
    seeds = {}
    for leg in mech.legs:
        for i in range(1, leg.f + 1):
            axes.append(AxisRef(leg.label, i))
        for i in range(1, leg.f + 1):
            for j in range(i + 1, leg.f + 1):
                code = leg.relations[i - 1][j - 1]
                if code is not RelationCode.ARBITRARY:
                    seeds[frozenset((AxisRef(leg.label, i), AxisRef(leg.label, j)))] = code
    k = mech.leg_count
    for i in range(k):
        for j in range(i + 1, k):
            for matrix, pick in ((mech.moving.matrix, -1), (mech.fixed.matrix, 0)):
                code = matrix[i][j]
                if code is RelationCode.ARBITRARY:
                    continue
                a = AxisRef(mech.legs[i].label, 1 if pick == 0 else mech.legs[i].f)
                b = AxisRef(mech.legs[j].label, 1 if pick == 0 else mech.legs[j].f)
                key = frozenset((a, b))
                old = seeds.get(key)
                if old is None or _stronger(code, old):
                    if old is not None and _direction_conflict(old, code):
                        raise InconsistentRelations(f"{a} vs {b}")
                    seeds[key] = code
                elif old is not None and _direction_conflict(old, code):
                    raise InconsistentRelations(f"{a} vs {b}")

    parallel = {frozenset((a, b)) for pair, c in seeds.items()
                for a, b in [sorted(pair)]
                if c in (RelationCode.PARALLEL, RelationCode.COAXIAL)}
    coaxial = {frozenset((a, b)) for pair, c in seeds.items()
               for a, b in [sorted(pair)]
               if c is RelationCode.COAXIAL}
    perp = {pair for pair, c in seeds.items() if c is RelationCode.PERPENDICULAR}

    changed = True
    while changed:
        changed = False
        for x in axes:
            for y in axes:
                if x >= y:
                    continue
                for z in axes:
                    if z in (x, y):
                        continue
                    # transitive parallel through z
                    if (
                        frozenset((x, z)) in parallel
                        and frozenset((z, y)) in parallel
                        and frozenset((x, y)) not in parallel
                    ):
                        parallel.add(frozenset((x, y)))
                        changed = True
                    if (
                        frozenset((x, z)) in coaxial
                        and frozenset((z, y)) in coaxial
                        and frozenset((x, y)) not in coaxial
                    ):
                        coaxial.add(frozenset((x, y)))
                        changed = True
                    # perpendicularity spreads over parallels, from each end
                    if (
                        frozenset((x, z)) in perp
                        and frozenset((z, y)) in parallel
                        and frozenset((x, y)) not in perp
                    ):
                        perp.add(frozenset((x, y)))
                        changed = True
                    if (
                        frozenset((y, z)) in perp
                        and frozenset((z, x)) in parallel
                        and frozenset((x, y)) not in perp
                    ):
                        perp.add(frozenset((x, y)))
                        changed = True
    conflict = parallel & perp
    if conflict:
        raise InconsistentRelations(f"{sorted(conflict)[0]}")

    out = {}
    for i, a in enumerate(axes):
        for b in axes[i + 1:]:
            pair = frozenset((a, b))
            if pair in coaxial:
                out[pair] = RelationCode.COAXIAL
            elif pair in parallel:
                out[pair] = RelationCode.PARALLEL
            elif pair in perp:
                out[pair] = RelationCode.PERPENDICULAR
            else:
                out[pair] = seeds.get(pair, RelationCode.ARBITRARY)
    return out


def _stronger(new, old):
    rank = {
        RelationCode.ARBITRARY: 0,
        RelationCode.COPLANAR: 1,
        RelationCode.COMMON_POINT: 1,
        RelationCode.PERPENDICULAR: 2,
        RelationCode.PARALLEL: 2,
        RelationCode.COAXIAL: 3,
    }
    return rank[new] > rank[old]


def _direction_conflict(a, b):
    pair = {a, b}
    return RelationCode.PERPENDICULAR in pair and pair & {
        RelationCode.PARALLEL,
        RelationCode.COAXIAL,
    }


def assert_matches_brute_force(mech):
    g = build_relation_graph(mech)
    expected = brute_force_relations(mech)
    for pair, code in expected.items():
        a, b = sorted(pair)
        assert g.relation_between(a, b) is code, f"{a} vs {b}"


def test_matches_brute_force_on_fixtures(tricept, three_rrc):
    assert_matches_brute_force(tricept)
    assert_matches_brute_force(three_rrc)
    assert_matches_brute_force(pair_mechanism(PRRRR_MATRIX))
    assert_matches_brute_force(pair_mechanism(UPS_MATRIX))


def test_matches_brute_force_on_random_mechanisms():
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        mech = random_mechanism(rng, max_legs=3)
        try:
            expected = brute_force_relations(mech)
        except InconsistentRelations:
            with pytest.raises(InconsistentRelations):
                build_relation_graph(mech)
            continue
        g = build_relation_graph(mech)
        for pair, code in expected.items():
            a, b = sorted(pair)
            assert g.relation_between(a, b) is code, f"{mech.name}: {a} vs {b}"
        checked += 1


def test_derived_perpendicular_through_parallel():
    # R1 || R2 and R2 _|_ R3 force R1 _|_ R3 even though (1,3) is unseeded
    leg = leg_from_relations(1, "RRR", {(1, 2): 1, (2, 3): 2})
    mech = make_mechanism("derived", [leg, leg_from_relations(2, "RRR", {(1, 2): 1, (2, 3): 2})])
    g = build_relation_graph(mech)
    assert g.relation_between(AxisRef(1, 1), AxisRef(1, 3)) is RelationCode.PERPENDICULAR


def test_prrrr_perpendicular_survives_unseeding():
    # drop the seeded (3,5) entry; closure re-derives it from R3 || R2 _|_ R5
    matrix = [row[:] for row in PRRRR_MATRIX]
    matrix[2][4] = matrix[4][2] = 0
    g = build_relation_graph(pair_mechanism(matrix))
    assert g.relation_between(AxisRef(1, 3), AxisRef(1, 5)) is RelationCode.PERPENDICULAR


def test_coaxial_chain():
    leg = leg_from_relations(1, "RRR", {(1, 2): 3, (2, 3): 3})
    mech = make_mechanism("coax", [leg, leg_from_relations(2, "RRR", {(1, 2): 3, (2, 3): 3})])
    g = build_relation_graph(mech)
    assert g.same_axis(AxisRef(1, 1), AxisRef(1, 3))
    assert g.relation_between(AxisRef(1, 1), AxisRef(1, 3)) is RelationCode.COAXIAL
    assert g.parallel(AxisRef(1, 1), AxisRef(1, 3))
    assert not g.same_axis(AxisRef(1, 1), AxisRef(2, 1))


def test_relation_is_reflexive_and_symmetric(tricept):
    g = build_relation_graph(tricept)
    axes = g.axes()
    for a in axes:
        assert g.relation_between(a, a) is RelationCode.PARALLEL
    for a in axes:
        for b in axes:
            assert g.relation_between(a, b) is g.relation_between(b, a)


def test_same_pair_conflicting_seeds():
    # one joint per leg: the moving and fixed platforms relate the same
    # axis pair, so contradictory codes collide on one seed
    legs = [leg_from_relations(1, "R", {}), leg_from_relations(2, "R", {})]
    mech = make_mechanism("clash", legs, moving_codes={(1, 2): 3}, fixed_codes={(1, 2): 2})
    with pytest.raises(InconsistentRelations, match="both perpendicular and parallel"):
        build_relation_graph(mech)


def test_perpendicular_inside_parallel_chain_names_the_cycle():
    legs = [leg_from_relations(label, "R", {}) for label in (1, 2, 3)]
    mech = make_mechanism(
        "cycle",
        legs,
        moving_codes={(1, 2): 1, (2, 3): 1, (1, 3): 2},
    )
    with pytest.raises(InconsistentRelations, match="parallel chain"):
        build_relation_graph(mech)


def test_unknown_axis():
    g = build_relation_graph(pair_mechanism(PRRRR_MATRIX))
    known, ghost, ghost2 = AxisRef(1, 1), AxisRef(9, 1), AxisRef(1, 6)
    for lookup in (g.kind, g.label, g.parallel_class, g.coaxial_class):
        with pytest.raises(UnknownAxis, match=r"axis 9\.1 is not"):
            lookup(ghost)
    for lookup in (g.same_axis, g.parallel, g.perpendicular, g.relation_between):
        for a, b, named in (
            (ghost, known, r"9\.1"),
            (known, ghost, r"9\.1"),
            (ghost, ghost, r"9\.1"),
            (ghost, ghost2, r"9\.1"),
            (ghost2, ghost, r"1\.6"),
        ):
            with pytest.raises(UnknownAxis, match=rf"axis {named} is not"):
                lookup(a, b)


def test_labels(tricept):
    g = build_relation_graph(tricept)
    assert g.label(AxisRef(4, 1)) == "R41"
    assert g.label(AxisRef(4, 3)) == "P43"
    assert g.label(AxisRef(1, 3)) == "P13"


def test_parallel_class_representative():
    g = build_relation_graph(pair_mechanism(RRC_MATRIX))
    root = g.parallel_class(AxisRef(1, 4))
    assert root == AxisRef(1, 1)
    assert all(g.parallel_class(AxisRef(1, j)) == root for j in range(1, 5))


@pytest.mark.parametrize("generator", [random_mechanism, labeled_random_mechanism])
def test_class_roots_are_the_smallest_member(generator):
    # the oracle draws one direction per parallel root and one point per
    # coaxial root in sorted order, so the roots pin its random stream
    rng = random.Random(5)
    checked = 0
    while checked < 40:
        try:
            g = build_relation_graph(generator(rng))
        except InconsistentRelations:
            continue
        axes = g.axes()
        for a in axes:
            assert g.coaxial_class(a) == min(b for b in axes if g.same_axis(a, b))
            assert g.parallel_class(a) == min(b for b in axes if g.parallel(a, b))
        checked += 1


def test_seeded_pairs_sorted_and_nontrivial(three_rrc):
    g = build_relation_graph(three_rrc)
    pairs = g.seeded_pairs()
    assert pairs == tuple(sorted(pairs))
    assert all(code is not RelationCode.ARBITRARY for _, _, code in pairs)
    cpt = [(a, b) for a, b, code in pairs if code is RelationCode.COMMON_POINT]
    assert len(cpt) == 6  # three moving pairs and three fixed pairs


def test_monotonicity_of_added_seeds():
    # seeding one more parallel never weakens a derived relation
    base = leg_from_relations(1, "RRRR", {(1, 2): 1, (3, 4): 2})
    richer = leg_from_relations(1, "RRRR", {(1, 2): 1, (3, 4): 2, (2, 3): 1})
    order = {
        RelationCode.ARBITRARY: 0,
        RelationCode.COPLANAR: 0,
        RelationCode.COMMON_POINT: 0,
        RelationCode.PERPENDICULAR: 1,
        RelationCode.PARALLEL: 1,
        RelationCode.COAXIAL: 2,
    }
    g_base = build_relation_graph(make_mechanism("a", [base, leg_from_relations(2, "RRRR", {})]))
    g_rich = build_relation_graph(make_mechanism("b", [richer, leg_from_relations(2, "RRRR", {})]))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            before = g_base.relation_between(AxisRef(1, i), AxisRef(1, j))
            after = g_rich.relation_between(AxisRef(1, i), AxisRef(1, j))
            if before in (RelationCode.PARALLEL, RelationCode.COAXIAL):
                assert after in (RelationCode.PARALLEL, RelationCode.COAXIAL)
            if before is RelationCode.PERPENDICULAR:
                assert after is RelationCode.PERPENDICULAR
            assert order[after] >= order[before]


def test_axis_ref_hashes_sorts_and_prints_like_its_pair():
    ref = AxisRef(2, 3)
    assert hash(ref) == hash((2, 3))
    refs = [AxisRef(2, 1), AxisRef(1, 3), AxisRef(1, 2), AxisRef(10, 1)]
    assert sorted(refs) == [AxisRef(1, 2), AxisRef(1, 3), AxisRef(2, 1), AxisRef(10, 1)]
    assert str(ref) == "2.3"
    assert repr(ref) == "AxisRef(leg=2, joint=3)"
    with pytest.raises(AttributeError):
        ref.leg = 4
    table = {AxisRef(2, 3): "first"}
    table[AxisRef(2, 3)] = "second"
    assert table == {AxisRef(2, 3): "second"}


def test_leg_axes_are_shared_refs_equal_to_their_pairs():
    for label in (1, 2, 6, 9):
        full = leg_axes(label, 6)
        for f in range(1, 7):
            axes = leg_axes(label, f)
            assert axes is leg_axes(label, f)
            assert axes == tuple(AxisRef(label, j) for j in range(1, f + 1))
            assert axes == tuple((label, j) for j in range(1, f + 1))
            assert all(a is b for a, b in zip(axes, full))
    # a graph holds the shared refs, and fresh equal refs still look up
    mech, g = corpus_graphs()[0]
    assert all(axis is leg_axes(axis.leg, 6)[axis.joint - 1] for axis in g.axes())
    for leg in mech.legs:
        for j in range(1, leg.f + 1):
            assert g.kind(AxisRef(leg.label, j)) is g.kind(leg_axes(leg.label, leg.f)[j - 1])


def test_relabelling_matches_the_union_find():
    # every root the smallest axis of its class, in the order of the axes,
    # and the member lists exactly the classes of two or more axes
    rng = random.Random(27)
    refs = [AxisRef(leg, j) for leg in range(1, 7) for j in range(1, 7)]
    merged = 0
    for _ in range(500):
        axes = rng.sample(refs, rng.randint(1, 20))
        pairs = [(rng.choice(axes), rng.choice(axes)) for _ in range(rng.randint(0, 15))]
        root, members = dict(zip(axes, axes)), {}
        for a, b in pairs:
            join_classes(root, members, a, b)
        expected = reference_class_roots(axes, pairs)
        assert list(root.items()) == list(expected.items()), pairs
        classes: dict[AxisRef, list[AxisRef]] = {}
        for axis in axes:
            classes.setdefault(expected[axis], []).append(axis)
        assert {r: sorted(m) for r, m in members.items()} == {
            r: sorted(m) for r, m in classes.items() if len(m) > 1
        }
        merged += len(members)
    assert merged > 500


@pytest.mark.parametrize("generator", [random_mechanism, labeled_random_mechanism])
def test_relation_is_symmetric_on_random_mechanisms(generator):
    # the graph keys a seeded pair by its ordered refs, so ask every pair
    # both ways round, positional pairs included
    rng = random.Random(7)
    checked = 0
    positional = {RelationCode.COPLANAR: 0, RelationCode.COMMON_POINT: 0}
    while checked < 30:
        try:
            g = build_relation_graph(generator(rng))
        except InconsistentRelations:
            continue
        axes = g.axes()
        for a in axes:
            for b in axes:
                code = g.relation_between(a, b)
                assert code is g.relation_between(b, a), f"{a} vs {b}"
                assert g.perpendicular(a, b) == g.perpendicular(b, a), f"{a} vs {b}"
                if code in positional and a < b:
                    positional[code] += 1
        checked += 1
    assert all(count > 0 for count in positional.values()), positional


def test_perpendicular_classes_match_perpendicular_lookups():
    # the oracle reads the classes and their perpendicular pairs at once
    perpendicular_pairs = 0
    for _, g in corpus_graphs():
        classes = g.perpendicular_classes()
        assert set(classes) == {g.parallel_class(a) for a in g.axes()}
        for a in classes:
            for b in classes:
                assert (b in classes[a]) == g.perpendicular(a, b), f"{a} vs {b}"
                perpendicular_pairs += b in classes[a]
        assert g.perpendicular_classes() is not classes
    assert perpendicular_pairs > 0


def _graph_state(g):
    return (
        list(g._kinds.items()),
        list(g._parallel.items()),
        list(g._coaxial.items()),
        g._perp_pairs,
        list(g._seeded.items()),
    )


def test_build_matches_the_per_pair_reference():
    # the one-pass build must give what the plain per-pair walk gives: the
    # same classes and perpendicular pairs, the same seeds in the same
    # insertion order, and the same message for the first seed that fails
    rng = random.Random(17)
    mechs = list(corpus_mechanisms()) + [random_mechanism(rng, max_legs=6) for _ in range(300)]
    seen = {"built": 0, "one-joint pair": 0, "merge clash": 0, "parallel chain": 0}
    for mech in mechs:
        try:
            expected = reference_relation_graph(mech)
        except InconsistentRelations as exc:
            with pytest.raises(InconsistentRelations) as raised:
                build_relation_graph(mech)
            assert str(raised.value) == str(exc), mech.name
            seen["merge clash" if "both perpendicular" in str(exc) else "parallel chain"] += 1
            continue
        assert _graph_state(build_relation_graph(mech)) == _graph_state(expected), mech.name
        seen["built"] += 1
        seen["one-joint pair"] += sum(leg.f == 1 for leg in mech.legs) >= 2
    assert all(count > 0 for count in seen.values()), seen
