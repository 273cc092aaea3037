"""Mechanism-level analysis against frozen expectations."""

from __future__ import annotations

import random

import pytest

from helpers import UP_MATRIX, UPS_MATRIX, make_mechanism, random_mechanism
from pmmobility import analyze_mechanism, decode_leg, parse_mechanism_file
from pmmobility.mobility import classify
from pmmobility.poc import IndeterminateRelation, PocMatrix, Policy, normalize
from pmmobility.relations import InconsistentRelations, build_relation_graph
from pmmobility.report import render_structured
from pmmobility.topology import InvalidMechanism, MechanismTopology

# fixture name -> (dof, classification, loop xi values, total joint dof)
GOLDEN_MOBILITY = {
    "tricept": (3, "1T2R", (6, 6, 6), 21),
    "three_rrc": (3, "3T0R", (5, 4), 12),
    "toy_hinge": (1, "0T1R", (1,), 2),
    "rigid_perp": (0, "0T0R", (2,), 2),
    "two_ups": (6, "3T3R", (6,), 12),
    "ups_up": (3, "1T2R", (6,), 9),
    "prrrr_pair": (4, "3T1R", (6,), 10),
    "rrc_pair": (3, "3T0R", (5,), 8),
    "ups_ups_up": (3, "1T2R", (6, 6), 15),
    "rrc_quad": (3, "3T0R", (5, 4, 4), 16),
}


@pytest.fixture(scope="module")
def reports(fixtures_dir):
    out = {}
    for name in GOLDEN_MOBILITY:
        mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
        out[name] = analyze_mechanism(mech)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_MOBILITY))
def test_fixture_mobility(reports, name):
    dof, pattern, loop_xis, total = GOLDEN_MOBILITY[name]
    report = reports[name]
    assert report.dof == dof
    assert report.classification == pattern
    assert tuple(rank.xi for rank in report.loop_ranks) == loop_xis
    assert report.total_joint_dof == total
    assert report.dof + sum(loop_xis) == total
    assert report.rigid is (dof <= 0)


def test_tricept_platform_poc(tricept_report):
    # one translation along the central prismatic, rotations about the
    #  central leg's base revolute pair
    assert tricept_report.poc == PocMatrix(
        (0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0), owners=(4, 4)
    )
    assert tricept_report.translation_joints == ("P43",)
    assert tricept_report.rotation_joints == ("R41", "R42")


def test_three_rrc_platform_poc(three_rrc_report):
    assert three_rrc_report.poc == PocMatrix(
        (3, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), owners=(None, None)
    )
    assert three_rrc_report.translation_joints == ()
    assert three_rrc_report.rotation_joints == ()


def test_classification_matches_poc(reports):
    for report in reports.values():
        assert report.classification == classify(report.poc)
        assert report.classification == f"{report.poc.xi_t}T{report.poc.xi_r}R"


def test_platform_poc_bounded_by_legs(reports):
    # the platform output is an intersection, so no leg can be exceeded
    for report in reports.values():
        assert report.poc.xi_t <= min(lp.xi_t for lp in report.legs)
        assert report.poc.xi_r <= min(lp.xi_r for lp in report.legs)


def test_sub_pocs_follow_the_loops(reports):
    for report in reports.values():
        assert len(report.sub_pocs) == len(report.loop_ranks)
        assert report.sub_pocs[-1] == report.poc


def test_trace_steps_are_sequential(tricept_report):
    trace = render_structured(tricept_report, trace=True)["trace"]
    assert [s["step"] for s in trace] == list(range(1, len(trace) + 1))
    assert trace[0]["title"] == "topology"
    assert trace[-1]["title"] == "moving platform POC"
    loop_titles = [s["title"] for s in trace if s["title"].startswith("loop")]
    assert len(loop_titles) == 3


def test_single_leg_rejected():
    leg = decode_leg(UP_MATRIX, label=1)
    mech = make_mechanism("lonely", [leg])
    with pytest.raises(InvalidMechanism, match="leg count 1 < 2"):
        analyze_mechanism(mech)


def test_platform_diagonal_mismatch_rejected():
    good = make_mechanism(
        "pair", [decode_leg(UP_MATRIX, 1), decode_leg(UP_MATRIX, 2)]
    )
    bad = MechanismTopology(
        name="pair", legs=good.legs, moving=good.fixed, fixed=good.fixed
    )
    with pytest.raises(InvalidMechanism, match="moving platform diagonal"):
        analyze_mechanism(bad)


def test_leg_order_invariance():
    orders = [(UPS_MATRIX, UPS_MATRIX, UP_MATRIX), (UPS_MATRIX, UP_MATRIX, UPS_MATRIX)]
    results = []
    for order in orders:
        legs = [decode_leg(m, label=i) for i, m in enumerate(order, start=1)]
        results.append(analyze_mechanism(make_mechanism("perm", legs)))
    first, second = results
    assert first.dof == second.dof
    assert first.classification == second.classification
    assert sum(r.xi for r in first.loop_ranks) == sum(r.xi for r in second.loop_ranks)


def test_analysis_is_deterministic(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "tricept.mech")
    assert analyze_mechanism(mech) == analyze_mechanism(mech)


def test_dof_identity_and_normal_forms():
    # over random topologies: the dof plus all loop ranks returns the total
    # joint dof, and every emitted POC matrix is already in normal form
    rng = random.Random(971)
    analyzed = 0
    while analyzed < 100:
        mech = random_mechanism(rng)
        try:
            report = analyze_mechanism(mech)
        except InconsistentRelations:
            continue
        analyzed += 1
        g = build_relation_graph(mech)
        total = sum(leg.f for leg in mech.legs)
        assert report.total_joint_dof == total
        assert report.dof + sum(r.xi for r in report.loop_ranks) == total
        for lp in report.legs:
            assert normalize(lp.matrix, g) == lp.matrix
        assert normalize(report.poc, g) == report.poc
    assert analyzed == 100


def test_strict_policy_passes_on_decided_fixtures(fixtures_dir):
    for name in ("toy_hinge", "rigid_perp"):
        mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
        strict = analyze_mechanism(mech, policy=Policy.STRICT)
        assert strict.dof == GOLDEN_MOBILITY[name][0]


def test_strict_policy_raises_inside_leg(tricept):
    # the UPS legs leave the prismatic unrelated to the base pair
    with pytest.raises(IndeterminateRelation, match="cannot decide whether") as err:
        analyze_mechanism(tricept, policy=Policy.STRICT)
    assert err.value.step is None
    assert not str(err.value).startswith("loop")


def test_strict_policy_reports_failing_loop(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "rrc_pair.mech")
    with pytest.raises(IndeterminateRelation, match=r"^loop 1 \(adding leg 2\):") as err:
        analyze_mechanism(mech, policy=Policy.STRICT)
    assert err.value.step == 1
    assert str(err.value) == (
        "loop 1 (adding leg 2): cannot decide whether "
        "the axis of joint 1.1 is parallel to the axis of joint 2.1"
    )
