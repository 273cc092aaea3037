from __future__ import annotations

import random

import numpy as np
import pytest

from pmmobility import (
    AxisRef,
    IndeterminateRelation,
    LoopRank,
    OverlappingSupport,
    PocMatrix,
    Policy,
    analyze_leg,
    analyze_mechanism,
    build_relation_graph,
    intersect_rotation,
    intersect_translation,
    normalize,
    poc_or,
    union,
)
from pmmobility.oracle import Unsatisfiable, instantiate_geometry
from pmmobility.poc import (
    EMPTY_DIRECTION,
    FULL_DIRECTION,
    AlongAxis,
    MeetLine,
    NormalLine,
    NormalPlane,
    SpanPlane,
    line_direction,
    lines_parallel,
    plane_direction,
    rotation_view,
    translation_view,
)

from helpers import (
    PRRRR_MATRIX,
    RRC_MATRIX,
    UP_MATRIX,
    UPS_MATRIX,
    labeled_random_mechanism,
    leg_and_graph,
    leg_from_relations,
    make_mechanism,
    numeric_basis,
    numeric_intersection_dim,
    numeric_union_dim,
    pair_mechanism,
)


# --------------------------------------------------------------------------
# PocMatrix value type


def test_poc_matrix_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        PocMatrix((0, 4), (0, 0))


def test_poc_matrix_rejects_misplaced_three():
    with pytest.raises(ValueError):
        PocMatrix((0, 3), (0, 0))
    with pytest.raises(ValueError):
        PocMatrix((3, 1), (0, 0))


def test_poc_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        PocMatrix((0, 0), (0, 0, 0))


def test_poc_matrix_sums_and_widen():
    m = PocMatrix((2, 0, 1), (1, 0, 0), owners=(1, 1))
    assert (m.xi_t, m.xi_r, m.rank, m.width) == (3, 1, 4, 3)
    wide = m.widen(6)
    assert wide.t == (2, 0, 1, 0, 0, 0)
    assert wide.owners == (1, 1)
    with pytest.raises(ValueError):
        wide.widen(3)


def test_with_owner_only_marks_nonzero_rows():
    m = PocMatrix((1, 0), (0, 0)).with_owner(3)
    assert m.owners == (3, None)


# --------------------------------------------------------------------------
# poc_or


def test_poc_or_combines_disjoint_supports():
    a = PocMatrix((0, 2, 0, 0, 0), (0, 1, 0, 0, 0), owners=(1, 1))
    b = PocMatrix((0, 0, 0, 1, 0), (0, 0, 0, 1, 0), owners=(1, 1))
    m = poc_or([a, b])
    assert (m.t, m.r) == ((0, 2, 0, 1, 0), (0, 1, 0, 1, 0))
    assert m.owners == (1, 1)


def test_poc_or_zero_matrix_is_identity():
    x = PocMatrix((2, 0, 0, 0), (1, 0, 0, 0), owners=(1, 1))
    zero = PocMatrix((0, 0, 0, 0), (0, 0, 0, 0))
    assert poc_or([x, zero]) == x


def test_poc_or_second_reference_combination():
    a = PocMatrix((2, 0, 0, 0), (1, 0, 0, 0), owners=(1, 1))
    b = PocMatrix((0, 0, 0, 1), (0, 0, 0, 0), owners=(1, None))
    m = poc_or([a, b])
    assert (m.t, m.r) == ((2, 0, 0, 1), (1, 0, 0, 0))


def test_poc_or_rejects_overlap():
    a = PocMatrix((1, 0), (0, 0))
    with pytest.raises(OverlappingSupport, match="claimed twice"):
        poc_or([a, a])


def test_poc_or_rejects_width_mismatch():
    with pytest.raises(ValueError):
        poc_or([PocMatrix((1,), (0,)), PocMatrix((1, 0), (0, 0))])


# --------------------------------------------------------------------------
# normalize


def test_normalize_prrrr_combined_matrix():
    leg, g = leg_and_graph(PRRRR_MATRIX)
    combined = PocMatrix((0, 2, 0, 1, 0), (0, 1, 0, 1, 0)).with_owner(1)
    m = normalize(combined, g)
    assert (m.t, m.r) == ((3, 0, 0, 0, 0), (0, 1, 0, 1, 0))


def test_normalize_rrc_combined_matrix():
    leg, g = leg_and_graph(RRC_MATRIX)
    combined = PocMatrix((2, 0, 0, 1), (1, 0, 0, 0)).with_owner(1)
    m = normalize(combined, g)
    assert (m.t, m.r) == ((3, 0, 0, 0), (1, 0, 0, 0))


def test_normalize_rotation_overflow():
    # the six joint leg has five rotation entries in distinct classes:
    # beyond three the row collapses and the surplus feeds translations
    leg, g = leg_and_graph(UPS_MATRIX)
    combined = PocMatrix((0, 0, 1, 0, 0, 0), (1, 1, 0, 1, 1, 1)).with_owner(1)
    m = normalize(combined, g)
    assert (m.t, m.r) == ((3, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0))


def test_normalize_parallel_rotations_become_planar_translations():
    def all_parallel(f):
        return {(i, j): 1 for i in range(1, f + 1) for j in range(i + 1, f + 1)}

    for f in (4, 5):
        leg = leg_from_relations(1, "R" * f, all_parallel(f))
        mech = make_mechanism("par", [leg, leg_from_relations(2, "R" * f, all_parallel(f))])
        g = build_relation_graph(mech)
        lp = analyze_leg(leg, g)
        # translations stay inside the common normal plane: rank 2, not 3
        assert (lp.xi_t, lp.xi_r) == (2, 1), f


def test_normalize_is_fixed_point_on_reference_legs():
    for matrix in (UP_MATRIX, RRC_MATRIX, PRRRR_MATRIX, UPS_MATRIX):
        leg, g = leg_and_graph(matrix)
        m = analyze_leg(leg, g).matrix
        assert normalize(m, g) == m


def test_normalize_keeps_already_normalized_full_rows():
    leg, g = leg_and_graph(UPS_MATRIX)
    m = PocMatrix((3, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0))
    assert normalize(m, g) == m


# --------------------------------------------------------------------------
# views


def test_translation_view_of_up_leg():
    leg, g = leg_and_graph(UP_MATRIX)
    m = analyze_leg(leg, g).matrix
    desc = translation_view(m, g)
    assert desc.rank == 1
    assert desc.line == AlongAxis(AxisRef(1, 3))


def test_rotation_view_of_up_leg():
    leg, g = leg_and_graph(UP_MATRIX)
    m = analyze_leg(leg, g).matrix
    desc = rotation_view(m, g)
    assert desc.rank == 2
    assert desc.plane == SpanPlane(AlongAxis(AxisRef(1, 1)), AlongAxis(AxisRef(1, 2)))


def test_full_and_empty_views():
    leg, g = leg_and_graph(UPS_MATRIX)
    m = analyze_leg(leg, g).matrix
    assert translation_view(m, g) is FULL_DIRECTION
    assert rotation_view(m, g) is FULL_DIRECTION
    zero = PocMatrix((0,) * 6, (0,) * 6)
    assert translation_view(zero, g) is EMPTY_DIRECTION
    assert rotation_view(zero, g) is EMPTY_DIRECTION


def test_loop_rank_of_leg_pairs():
    assert analyze_mechanism(pair_mechanism(RRC_MATRIX)).loop_ranks == (LoopRank(3, 2),)
    assert analyze_mechanism(pair_mechanism(UPS_MATRIX)).loop_ranks == (LoopRank(3, 3),)


# --------------------------------------------------------------------------
# the rule tables, enumerated cell by cell
#
# One mechanism provides every relation the tables distinguish.  Leg 1
# carries three mutually perpendicular prismatic directions x, y, z, a
# coaxial revolute pair on x, and a revolute on z; leg 2 contributes an
# arbitrary axis and, via the moving platform, a revolute parallel (but
# not coaxial) to leg 1's last one.

CELLS_LEG1 = leg_from_relations(
    1,
    "PPPRRR",
    {
        (1, 2): 2, (1, 3): 2, (2, 3): 2,
        (1, 4): 1, (1, 5): 1, (4, 5): 3,
        (4, 6): 2, (5, 6): 2,
        (2, 4): 2, (2, 5): 2, (2, 6): 2,
        (3, 4): 2, (3, 5): 2, (3, 6): 1,
    },
)
CELLS_LEG2 = leg_from_relations(2, "RR", {})
CELLS = make_mechanism("cells", [CELLS_LEG1, CELLS_LEG2], moving_codes={(1, 2): 1})


@pytest.fixture(scope="module")
def cells_graph():
    return build_relation_graph(CELLS)


def _cells_forms():
    x1, y, z = AxisRef(1, 1), AxisRef(1, 2), AxisRef(1, 3)
    r4, r5, r6 = AxisRef(1, 4), AxisRef(1, 5), AxisRef(1, 6)
    w1, w2 = AxisRef(2, 1), AxisRef(2, 2)
    return {
        "Lx": line_direction(AlongAxis(x1)),
        "Lx2": line_direction(AlongAxis(r4)),
        "Ly": line_direction(AlongAxis(y)),
        "Lz": line_direction(AlongAxis(z)),
        "Lw": line_direction(AlongAxis(w1)),
        "Nx": line_direction(NormalLine(r4)),
        "Lmeet": line_direction(MeetLine(NormalPlane(r4), NormalPlane(r6))),
        "Pyz": plane_direction(NormalPlane(r4)),
        "Pyz2": plane_direction(NormalPlane(r5)),
        "Pxy": plane_direction(NormalPlane(r6)),
        "Sxy": plane_direction(SpanPlane(AlongAxis(x1), AlongAxis(y))),
        "Sgen": plane_direction(SpanPlane(AlongAxis(x1), AlongAxis(w1))),
        "Rx": line_direction(AlongAxis(r4)),
        "Rx2": line_direction(AlongAxis(r5)),
        "Rz": line_direction(AlongAxis(r6)),
        "Rz2": line_direction(AlongAxis(w2)),
        "Rw": line_direction(AlongAxis(w1)),
        "Sxz": plane_direction(SpanPlane(AlongAxis(r4), AlongAxis(r6))),
    }


# (a, b, intersection rank, union dim); every rank pair and every relation
# branch of the tables appears at least once
TRANSLATION_CELLS = [
    ("empty", "empty", 0, 0),
    ("empty", "Lx", 0, 1),
    ("empty", "Pyz", 0, 2),
    ("empty", "full", 0, 3),
    ("Lx", "Lx", 1, 1),        # identical operands
    ("Lx", "Lx2", 1, 1),       # distinct refs, parallel axes
    ("Lx", "Ly", 0, 2),        # perpendicular
    ("Lx", "Lw", 0, 2),        # arbitrary: general position
    ("Ly", "Pyz", 1, 2),       # line inside the plane
    ("Lx", "Pyz", 0, 3),       # line along the plane normal
    ("Lw", "Pyz", 0, 3),       # arbitrary line vs plane
    ("Lx", "Sxy", 1, 2),       # line matches a span generator
    ("Lmeet", "Ly", 1, 1),     # meet of two planes recognized as y
    ("Lmeet", "Pyz", 1, 2),    # meet lies in its parent plane
    ("Lx", "full", 1, 3),
    ("Pyz", "Pyz2", 2, 2),     # normal planes of coaxial axes
    ("Sxy", "Pxy", 2, 2),      # span equals the normal plane
    ("Pyz", "Pxy", 1, 3),      # distinct planes meet in a line
    ("Sgen", "Pyz", 1, 3),     # generic span vs plane
    ("Pyz", "full", 2, 3),
    ("full", "full", 3, 3),
]

ROTATION_CELLS = [
    ("empty", "empty", 0, 0),
    ("empty", "Rx", 0, 1),
    ("empty", "Sxz", 0, 2),
    ("empty", "full", 0, 3),
    ("Rx", "Rx", 1, 1),        # identical operands
    ("Rx", "Rx2", 1, 1),       # coaxial pair: same rotation line
    ("Rz", "Rz2", 0, 1),       # parallel but not coaxial: no shared line
    ("Rx", "Rz", 0, 2),        # perpendicular
    ("Rx", "Rw", 0, 2),        # arbitrary
    ("Rx2", "Sxz", 1, 2),      # axis parallel to a span generator
    ("Rw", "Sxz", 0, 3),
    ("Rx", "full", 1, 3),
    ("Sxz", "Sxz", 2, 2),
    ("Pyz", "Pxy", 1, 3),
    ("Sxz", "full", 2, 3),
    ("full", "full", 3, 3),
]


def _resolve_name(forms, name):
    if name == "empty":
        return EMPTY_DIRECTION
    if name == "full":
        return FULL_DIRECTION
    return forms[name]


@pytest.mark.parametrize("a_name,b_name,int_rank,uni_dim", TRANSLATION_CELLS)
def test_translation_table_cell(cells_graph, a_name, b_name, int_rank, uni_dim):
    forms = _cells_forms()
    a = _resolve_name(forms, a_name)
    b = _resolve_name(forms, b_name)
    assert intersect_translation(a, b, cells_graph).rank == int_rank
    assert intersect_translation(b, a, cells_graph).rank == int_rank
    assert union(a, b, cells_graph).rank == uni_dim
    assert union(b, a, cells_graph).rank == uni_dim
    # the modular identity ties the two tables together
    assert int_rank + uni_dim == a.rank + b.rank


@pytest.mark.parametrize("a_name,b_name,int_rank,uni_dim", ROTATION_CELLS)
def test_rotation_table_cell(cells_graph, a_name, b_name, int_rank, uni_dim):
    forms = _cells_forms()
    a = _resolve_name(forms, a_name)
    b = _resolve_name(forms, b_name)
    assert intersect_rotation(a, b, cells_graph).rank == int_rank
    assert intersect_rotation(b, a, cells_graph).rank == int_rank
    assert union(a, b, cells_graph).rank == uni_dim
    assert union(b, a, cells_graph).rank == uni_dim
    # the loop fold takes xi_r from the direction meet by this identity
    meet = intersect_translation(a, b, cells_graph)
    assert union(a, b, cells_graph).rank + meet.rank == a.rank + b.rank


def test_rotation_parallel_axes_share_only_the_direction(cells_graph):
    # rotations about distinct parallel axes: the union has one direction
    # but the chains share no rotation, so the intersection is empty and
    # the direction-subspace identity deliberately does not apply
    forms = _cells_forms()
    a, b = forms["Rz"], forms["Rz2"]
    assert intersect_rotation(a, b, cells_graph).rank == 0
    assert union(a, b, cells_graph).rank == 1


def test_table_cells_against_numeric_subspaces(cells_graph):
    forms = _cells_forms()
    for seed in (0, 1, 2):
        inst = instantiate_geometry(CELLS, cells_graph, seed=seed)
        for table, skip_parallel_lines in ((TRANSLATION_CELLS, False), (ROTATION_CELLS, True)):
            for a_name, b_name, int_rank, uni_dim in table:
                cache: dict = {}
                rng = np.random.default_rng(seed + 1000)
                a = _resolve_name(forms, a_name)
                b = _resolve_name(forms, b_name)
                na = numeric_basis(a, inst, cache, rng)
                nb = numeric_basis(b, inst, cache, rng)
                assert numeric_union_dim(na, nb) == uni_dim, (a_name, b_name, seed)
                if skip_parallel_lines and (a_name, b_name) == ("Rz", "Rz2"):
                    # numerically the parallel directions intersect; the
                    # rotation rule diverges there on purpose
                    assert numeric_intersection_dim(na, nb) == 1
                    continue
                assert numeric_intersection_dim(na, nb) == int_rank, (a_name, b_name, seed)


# --------------------------------------------------------------------------
# policy handling


def test_general_policy_resolves_open_questions_silently(cells_graph):
    forms = _cells_forms()
    assert intersect_translation(forms["Lw"], forms["Pyz"], cells_graph).rank == 0


def test_strict_policy_raises_on_open_questions(cells_graph):
    forms = _cells_forms()
    with pytest.raises(IndeterminateRelation, match="cannot decide"):
        intersect_translation(forms["Lw"], forms["Pyz"], cells_graph, Policy.STRICT)
    with pytest.raises(IndeterminateRelation):
        union(forms["Lw"], forms["Ly"], cells_graph, Policy.STRICT)


def test_strict_policy_passes_on_decided_questions(cells_graph):
    forms = _cells_forms()
    assert intersect_translation(forms["Lx"], forms["Ly"], cells_graph, Policy.STRICT).rank == 0
    assert union(forms["Lx"], forms["Lx2"], cells_graph, Policy.STRICT).rank == 1
    assert intersect_rotation(forms["Rx"], forms["Rx2"], cells_graph, Policy.STRICT).rank == 1


def test_strict_normalize_raises_when_span_is_open():
    leg = leg_from_relations(1, "PP", {})
    mech = make_mechanism("open", [leg, leg_from_relations(2, "PP", {})])
    g = build_relation_graph(mech)
    combined = PocMatrix((1, 1), (0, 0)).with_owner(1)
    assert normalize(combined, g).xi_t == 2
    with pytest.raises(IndeterminateRelation):
        normalize(combined, g, Policy.STRICT)


# --------------------------------------------------------------------------
# randomized semantics check against numeric subspaces


def _rotation_line_divergence(g, a, b):
    """Rank 1 pair of parallel lines that are not provably the same axis."""
    if a.rank != 1 or b.rank != 1 or a == b:
        return False
    if (
        isinstance(a.line, AlongAxis)
        and isinstance(b.line, AlongAxis)
        and g.same_axis(a.line.axis, b.line.axis)
    ):
        return False
    return lines_parallel(g, a.line, b.line) is True


def _descriptor_pools(mech, g):
    pool_t = [EMPTY_DIRECTION, FULL_DIRECTION]
    pool_r = [EMPTY_DIRECTION, FULL_DIRECTION]
    matrices = [analyze_leg(leg, g).matrix for leg in mech.legs]
    state_t = translation_view(matrices[0], g)
    state_r = rotation_view(matrices[0], g)
    pool_t.append(state_t)
    pool_r.append(state_r)
    for m in matrices[1:]:
        leg_t = translation_view(m, g)
        leg_r = rotation_view(m, g)
        pool_t.append(leg_t)
        pool_r.append(leg_r)
        state_t = intersect_translation(state_t, leg_t, g)
        state_r = intersect_rotation(state_r, leg_r, g)
        pool_t.append(state_t)
        pool_r.append(state_r)
    return pool_t, pool_r


def check_algebra_against_numeric(case_target: int, seed: int = 20240815):
    """Randomized agreement run; returns the number of checked cases.

    Every case checks commutativity, idempotence, the rank bounds, the
    modular identity, and agreement of both operations with numerically
    instantiated subspaces.  Rank 1 rotation pairs on parallel but
    distinct axes keep their pinned interpretation instead of the
    subspace one.
    """
    rng = random.Random(seed)
    cases = 0
    attempts = 0
    while cases < case_target:
        attempts += 1
        assert attempts < case_target * 50, "generator starved"
        mech = labeled_random_mechanism(rng)
        try:
            g = build_relation_graph(mech)
            inst = instantiate_geometry(mech, g, seed=rng.randrange(10_000))
        except Unsatisfiable:
            continue
        pool_t, pool_r = _descriptor_pools(mech, g)
        for pool, intersect, rotation in (
            (pool_t, intersect_translation, False),
            (pool_r, intersect_rotation, True),
        ):
            picks = [(rng.choice(pool), rng.choice(pool)) for _ in range(6)]
            # line against line is where the semantics differ the most, so
            # cover every such pair the pools offer
            ones = list(dict.fromkeys(d for d in pool if d.rank == 1))
            picks.extend(
                (ones[i], ones[j])
                for i in range(len(ones))
                for j in range(i, len(ones))
            )
            for a, b in picks:
                sym_int = intersect(a, b, g).rank
                sym_uni = union(a, b, g).rank
                assert intersect(b, a, g).rank == sym_int
                assert union(b, a, g).rank == sym_uni
                assert intersect(a, a, g).rank == a.rank
                assert union(a, a, g).rank == a.rank
                assert sym_int <= min(a.rank, b.rank)
                assert max(a.rank, b.rank) <= sym_uni <= min(3, a.rank + b.rank)
                cache: dict = {}
                np_rng = np.random.default_rng(cases + 17)
                na = numeric_basis(a, inst, cache, np_rng)
                nb = numeric_basis(b, inst, cache, np_rng)
                assert numeric_union_dim(na, nb) == sym_uni, mech.name
                if rotation and _rotation_line_divergence(g, a, b):
                    assert sym_int == 0
                    assert sym_uni == 1
                else:
                    assert numeric_intersection_dim(na, nb) == sym_int, mech.name
                    assert sym_int + sym_uni == a.rank + b.rank
                cases += 1
    return cases


def test_randomized_agreement_with_numeric_subspaces():
    assert check_algebra_against_numeric(240) >= 240
