from __future__ import annotations

import dataclasses
import random

import pytest

from pmmobility import (
    InvalidMechanism,
    JointKind,
    LegTopology,
    RelationCode,
    TopologyError,
    analyze_mechanism,
    decode_leg,
    encode_leg,
    parse_mechanism_file,
    validate_mechanism,
)
from pmmobility.topology import Asymmetric, InvalidDiagonal, InvalidRelation, TooLarge

from helpers import (
    PRRRR_MATRIX,
    REFERENCE_LEGS,
    RRC_MATRIX,
    UP_MATRIX,
    UPS_MATRIX,
    make_mechanism,
    pair_mechanism,
    relation_platform,
)
from pmmobility import PlatformSide


def test_joint_kind_codes():
    assert JointKind.REVOLUTE.code == 8
    assert JointKind.PRISMATIC.code == 9
    assert JointKind.from_code(8) is JointKind.REVOLUTE
    assert JointKind.from_code(9) is JointKind.PRISMATIC
    assert JointKind.from_letter("R") is JointKind.REVOLUTE
    assert JointKind.from_letter("P") is JointKind.PRISMATIC


def test_decode_up_leg():
    leg = decode_leg(UP_MATRIX, label=1)
    assert leg.signature == "RRP"
    assert leg.f == 3
    assert leg.relations[0][1] is RelationCode.PERPENDICULAR
    assert leg.relations[1][2] is RelationCode.PERPENDICULAR


def test_decode_rrc_leg():
    leg = decode_leg(RRC_MATRIX)
    assert leg.signature == "RRRP"
    assert all(
        leg.relations[i - 1][j - 1] is RelationCode.PARALLEL
        for i in range(1, 5)
        for j in range(i + 1, 5)
    )


def test_signature_is_kept_without_touching_equality_hash_or_repr():
    leg, fresh = decode_leg(UP_MATRIX, label=1), decode_leg(UP_MATRIX, label=1)
    before = (hash(leg), repr(leg))
    assert leg.signature == "RRP"
    assert leg.signature is leg.signature
    assert (hash(leg), repr(leg)) == before
    assert leg == fresh and hash(leg) == hash(fresh) and repr(leg) == repr(fresh)


@pytest.mark.parametrize("name", sorted(REFERENCE_LEGS))
def test_encode_decode_round_trip(name):
    matrix, _ = REFERENCE_LEGS[name]
    assert encode_leg(decode_leg(matrix)) == matrix


def test_encode_up_from_scratch():
    perp = RelationCode.PERPENDICULAR
    arb = RelationCode.ARBITRARY
    leg = LegTopology(
        label=1,
        joints=(JointKind.REVOLUTE, JointKind.REVOLUTE, JointKind.PRISMATIC),
        relations=(
            (arb, perp, perp),
            (perp, arb, perp),
            (perp, perp, arb),
        ),
    )
    assert encode_leg(leg) == UP_MATRIX


def test_decode_rejects_asymmetric():
    with pytest.raises(Asymmetric):
        decode_leg([[8, 3], [2, 8]])


def test_leg_topology_accepts_list_rows():
    A, P, S = RelationCode.ARBITRARY, RelationCode.PARALLEL, RelationCode.PERPENDICULAR
    rels = [[A, P, S], [P, A, A], [S, A, A]]
    leg = LegTopology(label=1, joints=(JointKind.REVOLUTE,) * 3, relations=rels)
    assert leg.relations[0][2] is S


def test_asymmetric_names_the_first_differing_pair():
    A, P, S = RelationCode.ARBITRARY, RelationCode.PARALLEL, RelationCode.PERPENDICULAR
    rels = [[A, A, P, A], [A, A, A, S], [S, A, A, A], [A, P, A, A]]
    with pytest.raises(Asymmetric, match=r"^relation entries \(1,3\) and \(3,1\) differ$"):
        LegTopology(label=1, joints=(JointKind.REVOLUTE,) * 4, relations=rels)


def test_decode_rejects_bad_relation_code():
    with pytest.raises(InvalidRelation):
        decode_leg([[8, 7], [7, 8]])


def test_decode_rejects_bad_diagonal():
    with pytest.raises(InvalidDiagonal):
        decode_leg([[7]])


def test_decode_rejects_oversized_leg():
    n = 7
    matrix = [[8 if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(TooLarge):
        decode_leg(matrix)


def test_decode_rejects_non_square():
    with pytest.raises(Asymmetric):
        decode_leg([[8, 1], [1, 8, 1]])


def test_decode_rejects_empty():
    with pytest.raises(TopologyError):
        decode_leg([])


def test_leg_topology_rejects_too_many_joints():
    joints = (JointKind.REVOLUTE,) * 7
    rels = tuple((RelationCode.ARBITRARY,) * 7 for _ in range(7))
    with pytest.raises(TooLarge):
        LegTopology(label=1, joints=joints, relations=rels)


def test_joint_kind_rejects_unknown_letter():
    with pytest.raises(InvalidDiagonal, match="joint letter 'X' is not R or P"):
        JointKind.from_letter("X")


@pytest.mark.parametrize(
    "relations",
    [
        ((RelationCode.ARBITRARY,) * 2,),
        ((RelationCode.ARBITRARY,) * 2, (RelationCode.ARBITRARY,)),
    ],
    ids=["missing-row", "short-row"],
)
def test_leg_topology_rejects_non_square_relations(relations):
    with pytest.raises(Asymmetric, match="relation matrix must be 2x2"):
        LegTopology(label=1, joints=(JointKind.REVOLUTE,) * 2, relations=relations)


def test_leg_topology_rejects_no_joints():
    with pytest.raises(TopologyError, match="a leg needs at least one joint"):
        LegTopology(label=1, joints=(), relations=())


def test_mechanism_counts():
    mech = pair_mechanism(UPS_MATRIX)
    assert mech.leg_count == 2
    assert mech.total_joint_dof == 12
    assert len(analyze_mechanism(mech).loop_ranks) == 1


def test_mechanism_topology_is_a_frozen_value():
    mech = pair_mechanism(UP_MATRIX)
    assert hash(mech) == hash(pair_mechanism(UP_MATRIX))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mech.name = "other"


def test_validate_accepts_pair():
    assert validate_mechanism(pair_mechanism(PRRRR_MATRIX)) == []


def test_validate_rejects_single_leg():
    mech = make_mechanism("lonely", [decode_leg(UP_MATRIX, label=1)])
    problems = validate_mechanism(mech)
    assert any("leg count 1 < 2" in p for p in problems)


def test_validate_rejects_too_many_legs():
    legs = [decode_leg(UP_MATRIX, label=i) for i in range(1, 8)]
    problems = validate_mechanism(make_mechanism("crowd", legs))
    assert problems == ["leg count 7 > 6"]


def test_validate_rejects_platform_size_mismatch():
    mech = pair_mechanism(RRC_MATRIX)
    wrong = relation_platform(
        PlatformSide.MOVING, [JointKind.PRISMATIC] * 3
    )
    bad = type(mech)(name=mech.name, legs=mech.legs, moving=wrong, fixed=mech.fixed)
    problems = validate_mechanism(bad)
    assert any("platform matrix size mismatch" in p for p in problems)


def test_validate_rejects_wrong_platform_diagonal():
    mech = pair_mechanism(RRC_MATRIX)
    wrong = relation_platform(PlatformSide.MOVING, [JointKind.REVOLUTE] * 2)
    bad = type(mech)(name=mech.name, legs=mech.legs, moving=wrong, fixed=mech.fixed)
    problems = validate_mechanism(bad)
    assert any("moving platform diagonal" in p for p in problems)


def test_validate_rejects_wrong_fixed_platform_diagonal():
    mech = pair_mechanism(UP_MATRIX)
    wrong = relation_platform(PlatformSide.FIXED, [JointKind.PRISMATIC] * 2)
    bad = type(mech)(name=mech.name, legs=mech.legs, moving=mech.moving, fixed=wrong)
    assert validate_mechanism(bad) == [
        "fixed platform diagonal 1 is P, leg 1 starts with R",
        "fixed platform diagonal 2 is P, leg 2 starts with R",
    ]


def test_validate_reports_sizes_before_diagonals():
    # a wrong moving diagonal and a fixed platform of the wrong size: every
    # size problem comes first, then the diagonals of the sides that fit
    mech = pair_mechanism(UP_MATRIX)
    moving = relation_platform(PlatformSide.MOVING, [JointKind.REVOLUTE] * 2)
    fixed = relation_platform(PlatformSide.FIXED, [JointKind.REVOLUTE] * 3)
    bad = type(mech)(name=mech.name, legs=mech.legs, moving=moving, fixed=fixed)
    assert validate_mechanism(bad) == [
        "platform matrix size mismatch: fixed is 3x3 for 2 legs",
        "moving platform diagonal 1 is R, leg 1 ends with P",
        "moving platform diagonal 2 is R, leg 2 ends with P",
    ]


def test_validate_rejects_a_platform_block_in_the_wrong_slot(fixtures_dir):
    # the parser cannot build such a block; a topology built in code can
    mech = parse_mechanism_file(fixtures_dir / "toy_hinge.mech")
    moving = dataclasses.replace(mech.moving, side=PlatformSide.FIXED)
    bad = dataclasses.replace(mech, moving=moving)
    assert validate_mechanism(bad) == ["moving platform relations are marked fixed"]
    with pytest.raises(InvalidMechanism, match="moving platform relations are marked fixed"):
        analyze_mechanism(bad)
    swapped = dataclasses.replace(mech, moving=mech.fixed, fixed=mech.moving)
    assert validate_mechanism(swapped) == [
        "moving platform relations are marked fixed",
        "fixed platform relations are marked moving",
    ]


def test_validate_rejects_out_of_order_labels():
    legs = (decode_leg(UP_MATRIX, label=2), decode_leg(UP_MATRIX, label=1))
    mech = make_mechanism("disorder", legs)
    problems = validate_mechanism(mech)
    assert any("labels" in p for p in problems)


def test_invalid_mechanism_carries_problems():
    err = InvalidMechanism(["a", "b"])
    assert err.problems == ("a", "b")
    assert "a; b" in str(err)


def test_random_round_trip():
    rng = random.Random(20240817)
    for _ in range(50):
        f = rng.randint(1, 6)
        matrix = [[0] * f for _ in range(f)]
        for i in range(f):
            matrix[i][i] = rng.choice((8, 9))
            for j in range(i + 1, f):
                matrix[i][j] = matrix[j][i] = rng.randint(0, 5)
        assert encode_leg(decode_leg(matrix)) == matrix
