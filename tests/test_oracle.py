"""Numeric oracle: geometry sampling, ranks, and symbolic agreement."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from helpers import (
    PRRRR_MATRIX,
    RRC_MATRIX,
    UP_MATRIX,
    UPS_MATRIX,
    labeled_random_mechanism,
    leg_from_relations,
    make_mechanism,
    pair_mechanism,
)
from pmmobility import analyze_mechanism, parse_mechanism_file
from pmmobility.oracle import (
    RESIDUAL_TOL,
    Unsatisfiable,
    _line_distance,
    _rank,
    instantiate_geometry,
    leg_twist_space,
    numeric_loop_and_platform,
    union_and_intersection,
    verify_mechanism,
)
from pmmobility.relations import AxisRef, build_relation_graph

ALL_FIXTURES = (
    "tricept",
    "three_rrc",
    "toy_hinge",
    "rigid_perp",
    "two_ups",
    "ups_up",
    "prrrr_pair",
    "rrc_pair",
    "ups_ups_up",
    "rrc_quad",
)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sampled_geometry_satisfies_relations(fixtures_dir, name):
    mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
    g = build_relation_graph(mech)
    for seed in (0, 1, 2):
        inst = instantiate_geometry(mech, g, seed=seed)
        for label, value in inst.residuals(g):
            assert value <= RESIDUAL_TOL, (name, seed, label, value)


def test_sampled_geometry_is_frozen():
    # pins the sampler's draw order, so the oracle's verdicts for a given
    # --seed stay reproducible across refactors of instantiate_geometry
    rng = random.Random(7)
    digest = hashlib.sha256()
    sampled = 0
    while sampled < 60:
        mech = labeled_random_mechanism(rng)
        g = build_relation_graph(mech)
        try:
            instances = [instantiate_geometry(mech, g, seed=s) for s in (0, 1, 2)]
        except Unsatisfiable:
            continue
        for inst in instances:
            for axis in g.axes():
                digest.update(np.round(inst.direction[axis], 12).tobytes())
                digest.update(np.round(inst.point[axis], 12).tobytes())
        sampled += 1
    assert digest.hexdigest() == (
        "364d4bfafa8493face7ef37f4fb26d8efd96e96fadb75695e674bd6913793a98"
    )


def test_same_seed_reproduces_geometry(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "tricept.mech")
    a = instantiate_geometry(mech, seed=5)
    b = instantiate_geometry(mech, seed=5)
    for axis in a.direction:
        assert np.array_equal(a.direction[axis], b.direction[axis])
        assert np.array_equal(a.point[axis], b.point[axis])


def test_different_seeds_differ(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "tricept.mech")
    a = instantiate_geometry(mech, seed=0)
    b = instantiate_geometry(mech, seed=1)
    assert any(
        not np.array_equal(a.direction[axis], b.direction[axis]) for axis in a.direction
    )


@pytest.mark.parametrize(
    "matrix,rank",
    [(UPS_MATRIX, 6), (UP_MATRIX, 3), (PRRRR_MATRIX, 5), (RRC_MATRIX, 4)],
    ids=["UPS", "UP", "PRRRR", "RRC"],
)
def test_reference_leg_twist_ranks(matrix, rank):
    mech = pair_mechanism(matrix)
    g = build_relation_graph(mech)
    for seed in (0, 3, 11):
        inst = instantiate_geometry(mech, g, seed=seed)
        assert leg_twist_space(mech, 0, inst).rank == rank


def test_single_revolute_leg_rank():
    mech = make_mechanism(
        "hinge", [leg_from_relations(1, "R", {}), leg_from_relations(2, "R", {})]
    )
    inst = instantiate_geometry(mech, seed=0)
    assert leg_twist_space(mech, 0, inst).rank == 1


def test_tricept_numeric_values(fixtures_dir):
    # frozen numeric expectations, computed without the symbolic side
    mech = parse_mechanism_file(fixtures_dir / "tricept.mech")
    g = build_relation_graph(mech)
    for seed in range(20):
        result = numeric_loop_and_platform(mech, instantiate_geometry(mech, g, seed=seed))
        assert result.loop_ranks == (6, 6, 6)
        assert result.dof == 3
        assert result.platform_dim == 3
        assert (result.platform_xi_t, result.platform_xi_r) == (1, 2)


def test_three_rrc_numeric_values(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "three_rrc.mech")
    g = build_relation_graph(mech)
    for seed in range(20):
        result = numeric_loop_and_platform(mech, instantiate_geometry(mech, g, seed=seed))
        assert result.loop_ranks == (5, 4)
        assert result.dof == 3
        assert result.platform_dim == 3
        assert (result.platform_xi_t, result.platform_xi_r) == (3, 0)


def test_rank_uses_caller_scale_for_blocks():
    # a block of rounding noise must not count as full rank against itself
    block = np.eye(3) * 1e-17
    assert _rank(block)[0] == 3
    assert _rank(block, scale=1.0)[0] == 0


def test_four_mutually_perpendicular_axes_unsatisfiable():
    legs = [
        leg_from_relations(1, "RRRR", {p: 2 for p in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]}),
        leg_from_relations(2, "R", {}),
    ]
    mech = make_mechanism("imposs", legs)
    with pytest.raises(Unsatisfiable):
        instantiate_geometry(mech, seed=0)


def test_coplanar_axes_are_anchored_to_meet():
    legs = [
        leg_from_relations(1, "RR", {(1, 2): 4}),
        leg_from_relations(2, "R", {}),
    ]
    mech = make_mechanism("flat", legs)
    g = build_relation_graph(mech)
    for seed in (0, 1, 2):
        inst = instantiate_geometry(mech, g, seed=seed)
        assert _line_distance(inst, AxisRef(1, 1), AxisRef(1, 2)) <= RESIDUAL_TOL


def test_subspace_intersection_units():
    e = np.eye(6)
    _, overlap, _ = union_and_intersection(e[:2], e[1:3])
    assert overlap.shape == (1, 6)
    assert abs(float(overlap[0] @ e[1])) == pytest.approx(1.0)
    _, disjoint, _ = union_and_intersection(e[:1], e[1:2])
    assert disjoint.shape == (0, 6)
    _, same, _ = union_and_intersection(e[:2], e[:2])
    assert same.shape == (2, 6)


def test_union_and_intersection_of_random_subspaces():
    rng = np.random.default_rng(4)
    for _ in range(300):
        ka, kb = (int(k) for k in rng.integers(1, 7, size=2))
        common = rng.normal(size=(int(rng.integers(0, min(ka, kb) + 1)), 6))
        a, b = (
            np.linalg.qr(np.vstack([common, rng.normal(size=(k - len(common), 6))]).T)[0].T
            for k in (ka, kb)
        )
        rank, basis, _ = union_and_intersection(a, b)
        assert rank == _rank(np.vstack([a, b]))[0]
        assert basis.shape == (ka + kb - rank, 6)
        assert np.allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-12)
        for space in (a, b):
            # a row inside the span equals its projection onto the span
            assert np.allclose(basis @ space.T @ space, basis, atol=1e-12)


def test_case_studies_agree_across_seeds(tricept, tricept_report, three_rrc, three_rrc_report):
    for mech, report in ((tricept, tricept_report), (three_rrc, three_rrc_report)):
        result = verify_mechanism(mech, report, seeds=range(20))
        assert result.all_agree, [c.detail for c in result.comparisons if not c.agrees]
        assert result.agreement == 20


def test_oracle_flags_rotation_only_union_shortfall():
    # the union rule works on motion patterns: for two skew rotation
    # triples it reports rank 3 while six generic screws span rank 6,
    # so the oracle must disagree rather than smooth it over
    skew = {p: 0 for p in [(1, 2), (1, 3), (2, 3)]}
    mech = make_mechanism(
        "skew-pair",
        [leg_from_relations(1, "RRR", skew), leg_from_relations(2, "RRR", skew)],
    )
    report = analyze_mechanism(mech)
    result = verify_mechanism(mech, report, seeds=range(5))
    assert not result.all_agree
    assert any("loop ranks" in c.detail for c in result.comparisons)


def test_oracle_flags_concurrent_quad_overstatement():
    # four concurrent axes span rank 3; the catalogue only consumes
    # concurrent triples, so the symbolic side overstates the fourth
    quad = {p: 5 for p in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]}
    mech = make_mechanism(
        "quad-point",
        [leg_from_relations(1, "RRRR", quad), leg_from_relations(2, "R", {})],
    )
    report = analyze_mechanism(mech)
    result = verify_mechanism(mech, report, seeds=range(5))
    assert not result.all_agree
