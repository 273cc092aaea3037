"""Numeric oracle: geometry sampling, ranks, and symbolic agreement."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    PRRRR_MATRIX,
    RRC_MATRIX,
    UP_MATRIX,
    UPS_MATRIX,
    invert,
    labeled_random_mechanism,
    leg_from_relations,
    make_mechanism,
    numeric_rank,
    pair_mechanism,
    permute_legs,
    reference_unions,
)
from pmmobility import (
    RelationCode,
    analyze_mechanism,
    oracle,
    parse_mechanism_file,
    parse_mechanism_text,
)
from pmmobility.oracle import (
    _RESAMPLE_STEP,
    RESIDUAL_TOL,
    NumericMobility,
    OraclePlan,
    Unsatisfiable,
    _cutoff,
    _leg_spaces,
    _line_distance,
    _one_seed_leg,
    _twists,
    _unions,
    instantiate_geometry,
    numeric_loop_and_platform,
    verify_mechanism,
)
from pmmobility.relations import AxisRef, build_relation_graph
from pmmobility.report import render_human, render_structured

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


def _leg_space(mech, leg_index, inst):
    """Rank, orthonormal twist basis and near flag of one leg (0-based) for
    one seed, from a stack of one."""
    [(rank, vh, near)] = _leg_spaces([_twists(*_one_seed_leg(mech.legs[leg_index], inst))])
    r = int(rank[0])
    return r, vh[0, :r], bool(near[0])


def _union_pair(a, b):
    """Union rank, intersection basis and near flag of two row-orthonormal
    subspaces, from a stack of one pair."""
    [(rank, _, meet)], near = _unions(a[None], b[None])
    return rank, meet[0], bool(near[0])


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
        "e382cbaefdb7899ee6087cf35070161dff83eb367345147d1f3fea7a2c0c68ed"
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
        assert _leg_space(mech, 0, inst)[0] == rank


def test_single_revolute_leg_rank():
    mech = make_mechanism(
        "hinge", [leg_from_relations(1, "R", {}), leg_from_relations(2, "R", {})]
    )
    inst = instantiate_geometry(mech, seed=0)
    assert _leg_space(mech, 0, inst)[0] == 1


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
    s = np.linalg.svd(block[None], compute_uv=False)
    assert _cutoff(s, s[..., :1])[0][0] == 3
    assert _cutoff(s, 1.0)[0][0] == 0


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


def test_coplanar_residual_measures_the_distance_off_the_plane():
    legs = [leg_from_relations(1, "RR", {(1, 2): 4}), leg_from_relations(2, "R", {})]
    mech = make_mechanism("flat", legs)
    g = build_relation_graph(mech)
    inst = instantiate_geometry(mech, g, seed=0)
    a, b = AxisRef(1, 1), AxisRef(1, 2)
    assert [label for label, _ in inst.residuals(g)] == ["1.1#1.2"]
    assert dict(inst.residuals(g))["1.1#1.2"] <= RESIDUAL_TOL
    # the sampled lines are not parallel, so they span one plane
    normal = np.cross(inst.direction[a], inst.direction[b])
    inst.point[b] = inst.point[b] + 0.5 * normal / np.linalg.norm(normal)
    assert dict(inst.residuals(g))["1.1#1.2"] == pytest.approx(0.5)


# 1.1 * 2.1 and 1.1 # 1.3 once fixed all three lines before 1.3 # 2.1 was
# placed, and the sampler skipped that pair
PINNED_COPLANAR = """\
mechanism pinned-coplanar
leg 1: R - R - R
rel 1 3 #
leg 2: R
platform moving:
  R 4
  4 R
platform fixed:
  R *
  * R
"""

# a planar four-bar: every axis is parallel, and 1.1 # 1.2 says nothing more
PARALLEL_COPLANAR = """\
mechanism parallel-coplanar
leg 1: R # R
leg 2: R || R
platform moving:
  R ||
  || R
platform fixed:
  R ||
  || R
"""

# labeled corpus index 14: class 2.4 must be perpendicular to 1.3, 2.2 and
# 2.3, which sorted root order would all draw first
DRAW_ORDER = """\
mechanism draw-order
leg 1:
  9 1 0
  1 9 0
  0 0 9
leg 2:
  9 4 4 0
  4 8 2 2
  4 2 8 2
  0 2 2 9
platform moving:
  9 2
  2 9
platform fixed:
  9 1
  1 9
"""


@pytest.mark.parametrize(
    "text",
    [PINNED_COPLANAR, PARALLEL_COPLANAR, DRAW_ORDER],
    ids=["pinned-coplanar", "parallel-coplanar", "draw-order"],
)
def test_sampled_geometry_meets_seeded_relations_only(text):
    # every seed samples, meets every relation, and draws parallel axes that
    # are not coaxial or seeded to meet on distinct lines
    mech = parse_mechanism_text(text)
    g = build_relation_graph(mech)
    meeting = {(a, b) for a, b, code in g.seeded_pairs() if code is RelationCode.COMMON_POINT}
    for seed in range(20):
        inst = instantiate_geometry(mech, g, seed=seed)
        for label, value in inst.residuals(g):
            assert value <= RESIDUAL_TOL, (seed, label, value)
        for i, a in enumerate(g.axes()):
            for b in g.axes()[i + 1:]:
                if g.relation_between(a, b) is RelationCode.PARALLEL and (a, b) not in meeting:
                    assert _line_distance(inst, a, b) > 1e-6, (seed, str(a), str(b))


def test_subspace_intersection_units():
    e = np.eye(6)
    _, overlap, _ = _union_pair(e[:2], e[1:3])
    assert overlap.shape == (1, 6)
    assert abs(float(overlap[0] @ e[1])) == pytest.approx(1.0)
    _, disjoint, _ = _union_pair(e[:1], e[1:2])
    assert disjoint.shape == (0, 6)
    _, same, _ = _union_pair(e[:2], e[:2])
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
        rank, basis, _ = _union_pair(a, b)
        assert rank == numeric_rank(np.vstack([a, b]))
        assert basis.shape == (ka + kb - rank, 6)
        assert np.allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-12)
        for space in (a, b):
            # a row inside the span equals its projection onto the span
            assert np.allclose(basis @ space.T @ space, basis, atol=1e-12)


def _tilted_pairs(rng, ka, kb, n):
    """n stacked pairs of random row-orthonormal bases (ka x 6, kb x 6) that
    share up to min(ka, kb) directions, each of b's tilted off a's by an
    angle of about 10^U(-11, -5), so that some fall inside the rank
    threshold, some outside, and some in its near band."""
    a, b = np.empty((n, ka, 6)), np.empty((n, kb, 6))
    for i in range(n):
        q = np.linalg.qr(rng.normal(size=(6, 6)))[0].T
        shared = int(rng.integers(0, min(ka, kb) + 1))
        tilt = 10.0 ** rng.uniform(-11, -5, size=(shared, 1))
        # mix a's rows so that the shared directions are not its rows
        a[i] = np.linalg.qr(rng.normal(size=(ka, ka)))[0] @ q[:ka]
        tilted = q[:shared] + tilt * rng.normal(size=(shared, 6))
        b[i] = np.linalg.qr(np.vstack([tilted, rng.normal(size=(kb - shared, 6))]).T)[0].T
    return a, b


def _per_seed(n, meets):
    """Per seed, the union rank and the projector onto the intersection."""
    out = [None] * n
    for rank, members, basis in meets:
        for i, rows in zip(np.arange(n)[members], basis):
            out[i] = rank, rows.T @ rows
    return out


@pytest.mark.parametrize("rtol,near", [(None, None), (0.3, 1.1)], ids=["default", "coarse"])
def test_unions_match_the_direct_svd(monkeypatch, rtol, near):
    if rtol is not None:
        monkeypatch.setattr(oracle, "RANK_RTOL", rtol)
        monkeypatch.setattr(oracle, "NEAR_FACTOR", near)
    rng = np.random.default_rng(20)
    flagged = tilted_meets = 0
    # every shape, so either operand may be empty, ka + kb may pass 6, and
    # both may be the whole space
    for ka, kb in itertools.product(range(7), repeat=2):
        if ka == kb == 0:
            continue
        a, b = _tilted_pairs(rng, ka, kb, 20)
        meets, near_flag = _unions(a, b)
        expected_meets, expected_near = reference_unions(a, b)
        rank = [r for r, _ in _per_seed(20, meets)]
        assert rank == [r for r, _ in _per_seed(20, expected_meets)], (ka, kb)
        assert near_flag.tolist() == expected_near.tolist(), (ka, kb)
        flagged += int(near_flag.sum())
        # the reference's intersection lies in its first operand's span and
        # _unions' in the smaller one's, which differ by the angles below
        # the threshold: compare with the reference in that order
        small, large = (a, b) if ka <= kb else (b, a)
        expected_meets, _ = reference_unions(small, large)
        s = np.linalg.svd(np.concatenate([small, large], axis=-2), compute_uv=False)
        for i, ((r, got), (_, want)) in enumerate(
            zip(_per_seed(20, meets), _per_seed(20, expected_meets))
        ):
            # a tilted direction counted as shared: more than the generic
            # intersection of ka + kb - 6 rows
            tilted_meets += ka + kb - r > max(0, ka + kb - 6)
            # the intersection is only as well defined as the gap between
            # the singular values kept and dropped: a backward error of a few
            # ulps moves it by about 1e-16 / gap (Wedin), bounded with room
            gap = s[i, r - 1] - (s[i, r] if r < s.shape[-1] else 0.0)
            assert np.abs(got - want).max() <= max(1e-12, 1e-14 / gap), (ka, kb, i, gap)
        for _, _, basis in meets:
            assert np.allclose(basis @ basis.mT, np.eye(basis.shape[-2]), atol=1e-12)
    assert flagged >= 20 and tilted_meets >= 100


def test_empty_and_full_space_unions_factor_nothing(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("a union with a closed form was factored")

    rng = np.random.default_rng(22)
    pairs = [(k, m, *_tilted_pairs(rng, k, m, 20)) for k, m in ((0, 3), (2, 6))]
    monkeypatch.setattr(oracle.np.linalg, "svd", no_svd)
    for k, m, small, large in pairs:
        for a, b in ((small, large), (large, small)):
            [(rank, members, meet)], near = _unions(a, b)
            assert rank == min(k + m, 6), (k, m)
            assert not near.any(), (k, m)
            assert np.arange(20)[members].tolist() == list(range(20))
            # the smaller operand lies in the larger, so it is the intersection
            assert meet.shape == small.shape
            assert np.allclose(meet.mT @ meet, small.mT @ small, atol=1e-12)


def test_leg_spaces_rank_each_leg_against_its_own_scale():
    # three joint counts, each leg ranked against its own largest singular
    # value: a leg scaled far down keeps its ranks, as its threshold scales
    legs = [leg_from_relations(label, "R" * f, {}) for label, f in ((1, 3), (2, 4), (3, 5))]
    mech = make_mechanism("three_counts", legs)
    plan = OraclePlan(mech, build_relation_graph(mech))
    direction, point = plan.sample(range(20))
    twists = _twists(direction[:, plan._axis_class], point[:, plan._axis_anchor], plan._revolute)
    stacks = [twists[:, :3], 1e-12 * twists[:, 3:7], twists[:, 7:]]
    spaces = _leg_spaces(stacks)
    assert [rank.tolist() for rank, _, _ in spaces] == [[3] * 20, [4] * 20, [5] * 20]
    assert not any(near.any() for _, _, near in spaces)
    for stack, (_, vh, _) in zip(stacks, spaces):
        # one right singular vector per joint, and they span the leg's rows
        assert vh.shape == stack.shape
        assert np.allclose(stack @ vh.mT @ vh, stack, atol=1e-12 * np.abs(stack).max())


def test_case_studies_agree_across_seeds(tricept, tricept_report, three_rrc, three_rrc_report):
    for mech, report in ((tricept, tricept_report), (three_rrc, three_rrc_report)):
        result = verify_mechanism(mech, report, seeds=range(20))
        assert result.all_agree, [c.detail for c in result.comparisons if not c.agrees]
        assert result.agreement == 20


def _skew_pair():
    """Two legs of three mutually skew revolutes."""
    skew = {p: 0 for p in [(1, 2), (1, 3), (2, 3)]}
    return make_mechanism(
        "skew-pair",
        [leg_from_relations(1, "RRR", skew), leg_from_relations(2, "RRR", skew)],
    )


def test_oracle_flags_rotation_only_union_shortfall():
    # the union rule works on motion patterns: for two skew rotation
    # triples it reports rank 3 while six generic screws span rank 6,
    # so the oracle must disagree rather than smooth it over
    mech = _skew_pair()
    report = analyze_mechanism(mech)
    result = verify_mechanism(mech, report, seeds=range(5))
    assert not result.all_agree
    assert any("loop ranks" in c.detail for c in result.comparisons)


def test_structured_report_lists_oracle_mismatches():
    mech = _skew_pair()
    report = analyze_mechanism(mech)
    result = verify_mechanism(mech, report, seeds=range(5))
    disagreeing = [c.seed for c in result.comparisons if not c.agrees]
    assert disagreeing
    doc = render_structured(report, oracle=result)["oracle"]
    assert doc["seeds"] == list(range(5))
    assert doc["agreement"] == 5 - len(disagreeing)
    assert doc["all_agree"] is False
    assert [m["seed"] for m in doc["mismatches"]] == disagreeing
    human = render_human(report, oracle=result).splitlines()
    assert [f"  seed {m['seed']}: {m['detail']}" for m in doc["mismatches"]] == [
        line for line in human if line.startswith("  seed ")
    ]


def test_mismatch_details_name_each_differing_number(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "three_rrc.mech")
    g = build_relation_graph(mech)
    n = numeric_loop_and_platform(mech, instantiate_geometry(mech, g, 0))
    assert (n.loop_ranks, n.platform_dim, n.platform_xi_t, n.platform_xi_r, n.dof) == (
        (5, 4), 3, 3, 0, 3
    )

    def detail(loops=(5, 4), dim=3, xi_t=3, xi_r=0, dof=3):
        # a report that differs from the oracle's seed 0 where asked
        report = SimpleNamespace(
            loop_ranks=tuple(SimpleNamespace(xi=r) for r in loops),
            poc=SimpleNamespace(rank=dim, xi_t=xi_t, xi_r=xi_r),
            dof=dof,
            graph=g,
        )
        [comparison] = verify_mechanism(mech, report, [0]).comparisons
        return comparison.detail

    assert detail() == "ok"
    assert detail(loops=(5, 5), dof=2) == "loop ranks (5, 4) != (5, 5); dof 3 != 2"
    assert detail(dim=4) == "platform dim 3 != 4"
    assert detail(xi_t=2, xi_r=1) == "split (3T,0R) != (2T,1R)"
    assert detail(dim=2, xi_t=2) == "platform dim 3 != 2; split (3T,0R) != (2T,0R)"


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


def _batch_corpus(fixtures_dir):
    mechs = [parse_mechanism_file(fixtures_dir / f"{name}.mech") for name in ALL_FIXTURES]
    rng = random.Random(5)
    return mechs + [labeled_random_mechanism(rng) for _ in range(40)]


def _one_seed_at_a_time(mech, report, seeds):
    return tuple(c for s in seeds for c in verify_mechanism(mech, report, [s]).comparisons)


def test_batched_seeds_match_one_seed_calls(fixtures_dir):
    checked = 0
    for mech in _batch_corpus(fixtures_dir):
        report = analyze_mechanism(mech)
        plan = OraclePlan(mech, report.graph)
        try:
            expected = _one_seed_at_a_time(mech, report, range(20))
        except Unsatisfiable:
            with pytest.raises(Unsatisfiable):
                verify_mechanism(mech, report, range(20))
            with pytest.raises(Unsatisfiable):
                plan.sample(range(20))
            continue
        result = verify_mechanism(mech, report, range(20))
        assert result.seeds == tuple(range(20))
        assert result.comparisons == expected, mech.name
        draw = plan.sample(range(20))
        for seed in range(20):
            stacked = plan.instance(draw, seed, seed)
            alone = instantiate_geometry(mech, report.graph, seed)
            for axis in report.graph.axes():
                assert np.array_equal(stacked.direction[axis], alone.direction[axis])
                assert np.array_equal(stacked.point[axis], alone.point[axis])
        checked += 1
    assert checked >= 40
    empty = verify_mechanism(mech, report, range(0))
    assert (empty.seeds, empty.comparisons) == ((), ())


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_empty_seed_stack_ranks_to_nothing(fixtures_dir, name):
    # verify_mechanism never ranks an empty stack, so only this reaches it
    mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
    plan = OraclePlan(mech, build_relation_graph(mech))
    direction, point = plan.sample([])
    assert direction.shape[0] == point.shape[0] == 0
    assert plan.rank((direction, point)) == []


def _independent_draw(seed, classes, lines):
    """The normal and uniform draws of a fresh generator for one seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(classes, 3)), rng.uniform(size=(lines, 3))


def test_each_seed_draws_its_own_pcg64_stream():
    # no perpendicular classes and no rows to meet, so the directions are the
    # normalised normal draws and the points are the uniform draws as drawn
    legs = [
        leg_from_relations(1, "RRR", {(1, 2): RelationCode.PARALLEL}),
        leg_from_relations(2, "RP", {(1, 2): RelationCode.COAXIAL}),
    ]
    mech = make_mechanism("free", legs)
    plan = OraclePlan(mech, build_relation_graph(mech))
    seeds = [7, 3, 7, 3 + _RESAMPLE_STEP, 0, 5 + 2 * _RESAMPLE_STEP, 19, 2]
    direction, point = plan.sample(seeds)
    classes, lines = direction.shape[1], point.shape[1]
    assert (classes, lines) == (3, 4)
    for i, seed in enumerate(seeds):
        normal, uniform = _independent_draw(seed, classes, lines)
        assert direction[i].tobytes() == oracle._unit(normal).tobytes(), seed
        assert point[i].tobytes() == uniform.tobytes(), seed
    # a call right after a longer one starts from the seed's own state again
    plan.sample(range(20))
    direction, point = plan.sample([5])
    normal, uniform = _independent_draw(5, classes, lines)
    assert direction[0].tobytes() == oracle._unit(normal).tobytes()
    assert point[0].tobytes() == uniform.tobytes()


def _reference_directions(plan, seeds):
    """The directions of plan for each seed, projected one seed at a time
    from the draws of a fresh generator, with no cache."""
    classes, lines = len(plan._roots), plan._incidence.shape[1]
    out = []
    for seed in seeds:
        normal = _independent_draw(seed, classes, lines)[0][None]
        direction = oracle._unit(normal)
        for c, earlier in plan._constrained:
            d = normal[:, c]
            basis = np.linalg.qr(direction[:, list(earlier)].mT)[0]
            d = d - (basis @ (basis.mT @ d[..., None]))[..., 0]
            direction[:, c] = oracle._unit(d)
        out.append(direction[0])
    return np.stack(out)


def test_plans_of_one_shape_keep_their_own_constrained_directions():
    # one shape of draws (four classes, four lines), perpendicular to
    # different earlier classes, so only the constraints tell them apart
    perp = RelationCode.PERPENDICULAR
    plans = []
    for pairs in ({(1, 2): perp}, {(1, 2): perp, (2, 3): perp}):
        legs = [leg_from_relations(1, "RRR", pairs), leg_from_relations(2, "R", {})]
        mech = make_mechanism("perp", legs)
        plans.append(OraclePlan(mech, build_relation_graph(mech)))
    shapes = {(len(p._roots), p._incidence.shape[1]) for p in plans}
    assert shapes == {(4, 4)} and plans[0]._constrained != plans[1]._constrained
    for seeds, order in (((31, 32, 33), plans), ((41, 42, 43), plans[::-1])):
        for plan in order:
            direction, _ = plan.sample(seeds)
            assert direction.tobytes() == _reference_directions(plan, seeds).tobytes()


@pytest.mark.parametrize("name", ["tricept", "rrc_quad"])
def test_writing_into_a_sample_leaves_later_samples_alone(fixtures_dir, name):
    mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
    plan = OraclePlan(mech, build_relation_graph(mech))
    direction, point = plan.sample(range(5))
    expected = direction.copy(), point.copy()
    direction[...] = 0.0
    point[...] = 0.0
    again = plan.sample(range(5))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, expected))
    # the cache hands out its stacks read-only, so no caller can write them
    shape = (len(plan._roots), plan._incidence.shape[1], plan._constrained)
    assert not any(a.flags.writeable for a in oracle._draws(tuple(range(5)), *shape))


def test_unsatisfiable_shape_raises_on_every_call():
    legs = [
        leg_from_relations(1, "RRRR", {p: 2 for p in itertools.combinations(range(1, 5), 2)}),
        leg_from_relations(2, "R", {}),
    ]
    mech = make_mechanism("imposs", legs)
    plan = OraclePlan(mech, build_relation_graph(mech))
    messages = []
    for _ in range(2):
        with pytest.raises(Unsatisfiable) as raised:
            plan.sample(range(3))
        messages.append(str(raised.value))
    assert messages == ["parallel class 1.4 has no direction perpendicular to all of 1.1, 1.2, 1.3"] * 2


def test_concurrent_verification_matches_sequential(monkeypatch, fixtures_dir):
    # a coarse threshold makes the verdicts depend on the draw, so a thread
    # that drew from another thread's stream would report other comparisons
    monkeypatch.setattr(oracle, "RANK_RTOL", 0.3)
    monkeypatch.setattr(oracle, "NEAR_FACTOR", 1.1)
    names = ("tricept", "three_rrc", "rrc_quad", "ups_ups_up")
    mechs = [parse_mechanism_file(fixtures_dir / f"{n}.mech") for n in names]
    reports = [analyze_mechanism(m) for m in mechs]
    expected = [verify_mechanism(m, r, range(20)).comparisons for m, r in zip(mechs, reports)]
    assert all(len({c.detail for c in e}) > 2 for e in expected)
    # the threads start on an empty draw cache, so they also race on misses
    oracle._draws.cache_clear()
    results: list[list] = [[] for _ in mechs]
    start = threading.Barrier(len(mechs), timeout=30)

    def work(k):
        start.wait()
        for _ in range(8):
            results[k].append(verify_mechanism(mechs[k], reports[k], range(20)).comparisons)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(mechs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[e] * 8 for e in expected]


def test_invalid_seeds_raise_numpy_errors(tricept, tricept_report):
    with pytest.raises(ValueError):
        verify_mechanism(tricept, tricept_report, [-1])
    with pytest.raises(TypeError):
        verify_mechanism(tricept, tricept_report, [1.5])
    # np.int64(1) == 1.0 as a cache key, but a float seed stays an error
    # after seed 1 has been drawn
    verify_mechanism(tricept, tricept_report, [np.int64(1)])
    with pytest.raises(TypeError):
        verify_mechanism(tricept, tricept_report, [1.0])


def _reference_fold(mech, inst):
    """The fold one leg and one loop at a time, as a reference."""
    spaces, near = [], False
    for i in range(mech.leg_count):
        _, basis, near_leg = _leg_space(mech, i, inst)
        spaces.append(basis)
        near = near or near_leg
    loops, current = [], spaces[0]
    for nxt in spaces[1:]:
        rank, current, near_loop = _union_pair(current, nxt)
        loops.append(rank)
        near = near or near_loop
    xi_r = 0
    if len(current):
        s = np.linalg.svd(current[None, :, :3], compute_uv=False)
        split, near_split = _cutoff(s, 1.0)
        xi_r = int(split[0])
        near = near or bool(near_split[0])
    return NumericMobility(
        loop_ranks=tuple(loops),
        platform_dim=len(current),
        platform_xi_t=len(current) - xi_r,
        platform_xi_r=xi_r,
        dof=mech.total_joint_dof - sum(loops),
        near_threshold=near,
    )


@pytest.mark.parametrize("rtol,near", [(None, None), (0.3, 1.1)], ids=["default", "coarse"])
def test_stacked_fold_matches_reference(monkeypatch, fixtures_dir, rtol, near):
    if rtol is not None:
        # ranks and near flags then vary from seed to seed
        monkeypatch.setattr(oracle, "RANK_RTOL", rtol)
        monkeypatch.setattr(oracle, "NEAR_FACTOR", near)
    flagged = 0
    for mech in _batch_corpus(fixtures_dir):
        g = build_relation_graph(mech)
        plan = OraclePlan(mech, g)
        try:
            draw = plan.sample(range(10))
        except Unsatisfiable:
            continue
        for seed, stacked in enumerate(plan.rank(draw)):
            inst = plan.instance(draw, seed, seed)
            expected = _reference_fold(mech, inst)
            assert stacked == expected == numeric_loop_and_platform(mech, inst)
            flagged += expected.near_threshold
    assert rtol is None or flagged >= 100


def test_fold_splits_groups_where_seed_ranks_differ(monkeypatch, fixtures_dir):
    # at the default threshold the seeds of a stack agree on every rank and
    # the fold keeps one group; a coarse one makes the ranks vary by seed
    monkeypatch.setattr(oracle, "RANK_RTOL", 0.3)
    monkeypatch.setattr(oracle, "NEAR_FACTOR", 1.1)
    calls = []

    def spy(a, b):
        meets, near = _unions(a, b)
        calls.append((len(a), b.shape[-2], len(meets)))
        return meets, near

    monkeypatch.setattr(oracle, "_unions", spy)
    leg_split = union_split = 0
    for mech in _batch_corpus(fixtures_dir):
        plan = OraclePlan(mech, build_relation_graph(mech))
        try:
            draw = plan.sample(range(20))
        except Unsatisfiable:
            continue
        calls.clear()
        for seed, stacked in enumerate(plan.rank(draw)):
            assert stacked == _reference_fold(mech, plan.instance(draw, seed, seed)), seed
        # the union calls of each loop take all 20 seeds between them
        pending = iter(calls)
        for _ in range(mech.leg_count - 1):
            loop, seen = [], 0
            while seen < 20:
                seeds, kb, unions = next(pending)
                loop.append((kb, unions))
                seen += seeds
            leg_split += len({kb for kb, _ in loop}) > 1
            union_split += any(unions > 1 for _, unions in loop)
        assert next(pending, None) is None
    assert leg_split and union_split


def _oracle_answers(mech):
    plan = OraclePlan(mech, build_relation_graph(mech))
    return [
        (r.dof, r.platform_dim, r.platform_xi_t, r.platform_xi_r)
        for r in plan.rank(plan.sample(range(3)))
    ]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_oracle_answer_ignores_leg_order_and_inversion(fixtures_dir, name):
    mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
    assert permute_legs(mech, range(mech.leg_count)) == mech == invert(invert(mech))
    expected = _oracle_answers(mech)
    for order in itertools.permutations(range(mech.leg_count)):
        assert _oracle_answers(permute_legs(mech, order)) == expected, order
    assert _oracle_answers(invert(mech)) == expected


def _numeric_report(mech, g, seed):
    """A report whose numbers are the oracle's own for one draw."""
    n = numeric_loop_and_platform(mech, instantiate_geometry(mech, g, seed))
    return SimpleNamespace(
        loop_ranks=tuple(SimpleNamespace(xi=r) for r in n.loop_ranks),
        poc=SimpleNamespace(rank=n.platform_dim, xi_t=n.platform_xi_t, xi_r=n.platform_xi_r),
        dof=n.dof,
        graph=g,
    )


def test_flagged_seeds_report_their_third_draw(monkeypatch, fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "three_rrc.mech")
    g = build_relation_graph(mech)
    # a coarse threshold makes the ranks depend on the draw, and a huge near
    # band flags every draw, so each seed ends on its last resample
    monkeypatch.setattr(oracle, "RANK_RTOL", 0.3)
    monkeypatch.setattr(oracle, "NEAR_FACTOR", 1e30)
    moved = 0
    for seed in range(10):
        third = _numeric_report(mech, g, seed + 2 * _RESAMPLE_STEP)
        assert verify_mechanism(mech, third, [seed]).all_agree, seed
        first = _numeric_report(mech, g, seed)
        moved += not verify_mechanism(mech, first, [seed]).all_agree
    assert moved >= 3


def test_partly_flagged_batch_matches_one_seed_calls(monkeypatch, fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "tricept.mech")
    g = build_relation_graph(mech)
    monkeypatch.setattr(oracle, "RANK_RTOL", 0.3)
    monkeypatch.setattr(oracle, "NEAR_FACTOR", 1.1)

    def flagged(seeds):
        return [
            s for s in seeds
            if numeric_loop_and_platform(mech, instantiate_geometry(mech, g, s)).near_threshold
        ]

    # some seeds settle on their first draw, some on their second, some on none
    first = flagged(range(20))
    second = flagged([s + _RESAMPLE_STEP for s in first])
    assert 0 < len(second) < len(first) < 20
    report = _numeric_report(mech, g, 0)
    expected = _one_seed_at_a_time(mech, report, range(20))
    assert verify_mechanism(mech, report, range(20)).comparisons == expected
    assert any(c.agrees for c in expected) and not all(c.agrees for c in expected)
    # each seed reports the first draw that is not flagged, else its third
    for seed in range(20):
        attempt = (seed in first) + (seed + _RESAMPLE_STEP in second)
        settled = _numeric_report(mech, g, seed + attempt * _RESAMPLE_STEP)
        assert verify_mechanism(mech, settled, range(20)).comparisons[seed].agrees, seed


def test_verify_raises_on_four_mutually_perpendicular_axes():
    legs = [
        leg_from_relations(1, "RRRR", {p: 2 for p in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]}),
        leg_from_relations(2, "R", {}),
    ]
    mech = make_mechanism("imposs", legs)
    with pytest.raises(Unsatisfiable):
        verify_mechanism(mech, analyze_mechanism(mech), range(20))
