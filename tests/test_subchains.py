from __future__ import annotations

import itertools
import random

import pytest

from pmmobility import (
    AxisRef,
    InconsistentRelations,
    PocMatrix,
    SubchainKind,
    TopologyError,
    build_relation_graph,
    catalogue_poc_matrices,
    extract_subchains,
    subchain_poc,
)
from pmmobility.subchains import _BY_KEY, _CATALOG, Segment

from helpers import (
    PRRRR_MATRIX,
    RRC_MATRIX,
    UP_MATRIX,
    UPS_MATRIX,
    corpus_graphs,
    leg_and_graph,
    leg_from_relations,
    make_mechanism,
    pair_mechanism,
    random_mechanism,
)

# catalogued POC pattern per kind: (t row, r row) at the kind's own width
CATALOGUE_POC = {
    SubchainKind.G2_RR_PARALLEL: ((1, 0), (1, 0)),
    SubchainKind.G2_RP_PERP: ((1, 0), (1, 0)),
    SubchainKind.G2_PR_PERP: ((0, 1), (0, 1)),
    SubchainKind.G3_RRR_PARALLEL: ((2, 0, 0), (1, 0, 0)),
    SubchainKind.G3_RRP: ((2, 0, 0), (1, 0, 0)),
    SubchainKind.G3_PRR: ((0, 2, 0), (0, 1, 0)),
    SubchainKind.G3_RPR: ((2, 0, 0), (1, 0, 0)),
    SubchainKind.G3_RPP: ((2, 0, 0), (1, 0, 0)),
    SubchainKind.G3_PPR: ((0, 0, 2), (0, 0, 1)),
    SubchainKind.G3_PRP: ((0, 2, 0), (0, 1, 0)),
    SubchainKind.S2_RR_SKEW: ((0, 0), (1, 1)),
    SubchainKind.S2_RR_PERP: ((0, 0), (1, 1)),
    SubchainKind.S3_RRR_SKEW: ((0, 0, 0), (1, 1, 1)),
    SubchainKind.S3_RRR_CONCURRENT: ((0, 0, 0), (1, 1, 1)),
    SubchainKind.S3_RRR_PERP: ((0, 0, 0), (1, 1, 1)),
    SubchainKind.SINGLE_R: ((0,), (1,)),
    SubchainKind.SINGLE_P: ((1,), (0,)),
}


def test_catalogue_matches_reference_patterns():
    catalogue = catalogue_poc_matrices()
    assert set(catalogue) == set(CATALOGUE_POC)
    for kind, (t, r) in CATALOGUE_POC.items():
        assert (catalogue[kind].t, catalogue[kind].r) == (t, r), kind


def test_multi_joint_kinds_collapse_to_seven_matrices():
    catalogue = catalogue_poc_matrices()
    multi = {
        kind: m
        for kind, m in catalogue.items()
        if kind not in (SubchainKind.SINGLE_R, SubchainKind.SINGLE_P)
    }
    assert len(multi) == 15
    distinct = {(m.t, m.r) for m in multi.values()}
    assert len(distinct) == 7
    assert distinct == {
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
        ((2, 0, 0), (1, 0, 0)),
        ((0, 2, 0), (0, 1, 0)),
        ((0, 0, 2), (0, 0, 1)),
        ((0, 0), (1, 1)),
        ((0, 0, 0), (1, 1, 1)),
    }


def segmentation(matrix):
    leg, g = leg_and_graph(matrix)
    return [(s.kind, s.start, s.stop) for s in extract_subchains(leg, g)]


def test_segmentation_of_reference_legs():
    assert segmentation(UPS_MATRIX) == [
        (SubchainKind.S2_RR_PERP, 1, 2),
        (SubchainKind.SINGLE_P, 3, 3),
        (SubchainKind.S3_RRR_PERP, 4, 6),
    ]
    assert segmentation(UP_MATRIX) == [
        (SubchainKind.S2_RR_PERP, 1, 2),
        (SubchainKind.SINGLE_P, 3, 3),
    ]
    assert segmentation(PRRRR_MATRIX) == [
        (SubchainKind.G3_PRR, 1, 3),
        (SubchainKind.G2_RR_PARALLEL, 4, 5),
    ]
    assert segmentation(RRC_MATRIX) == [
        (SubchainKind.G3_RRR_PARALLEL, 1, 3),
        (SubchainKind.SINGLE_P, 4, 4),
    ]


def all_pairs(f, code):
    return {(i, j): code for i in range(1, f + 1) for j in range(i + 1, f + 1)}


def test_greedy_longest_match_wins():
    # four parallel revolutes: a G3 then a trailing single
    leg = leg_from_relations(1, "RRRR", all_pairs(4, 1))
    mech = make_mechanism("par4", [leg, leg_from_relations(2, "RRRR", all_pairs(4, 1))])
    g = build_relation_graph(mech)
    assert [(s.kind, s.start, s.stop) for s in extract_subchains(leg, g)] == [
        (SubchainKind.G3_RRR_PARALLEL, 1, 3),
        (SubchainKind.SINGLE_R, 4, 4),
    ]
    # five: a G3 then a G2
    leg5 = leg_from_relations(1, "RRRRR", all_pairs(5, 1))
    mech5 = make_mechanism("par5", [leg5, leg_from_relations(2, "RRRRR", all_pairs(5, 1))])
    g5 = build_relation_graph(mech5)
    assert [(s.kind, s.start, s.stop) for s in extract_subchains(leg5, g5)] == [
        (SubchainKind.G3_RRR_PARALLEL, 1, 3),
        (SubchainKind.G2_RR_PARALLEL, 4, 5),
    ]


def test_catalogue_is_listed_in_match_order():
    # extract_subchains looks windows up in a table derived from the
    # catalogue, longest first; keys never tie, so the listed order (planar
    # before spherical on equal length, singles last) is for the reader.
    # The family is the first word of a kind's value; a single's is its letter
    families = ("G3", "S3", "G2", "S2", "R", "P")
    keys = [(-len(p.joints), families.index(p.kind.value.split()[0])) for p in _CATALOG]
    assert keys == sorted(keys)
    assert [p.kind for p in _CATALOG[-2:]] == [SubchainKind.SINGLE_R, SubchainKind.SINGLE_P]


def test_spherical_triples():
    concurrent = leg_from_relations(1, "RRR", all_pairs(3, 5))
    skew = leg_from_relations(1, "RRR", {})
    for leg, kind in ((concurrent, SubchainKind.S3_RRR_CONCURRENT), (skew, SubchainKind.S3_RRR_SKEW)):
        mech = make_mechanism("sph", [leg, leg_from_relations(2, "RRR", {})])
        g = build_relation_graph(mech)
        assert [s.kind for s in extract_subchains(leg, g)] == [kind]


def test_two_joint_kinds():
    cases = [
        ("RR", {(1, 2): 1}, SubchainKind.G2_RR_PARALLEL),
        ("RR", {(1, 2): 2}, SubchainKind.S2_RR_PERP),
        ("RR", {}, SubchainKind.S2_RR_SKEW),
        ("RP", {(1, 2): 2}, SubchainKind.G2_RP_PERP),
        ("PR", {(1, 2): 2}, SubchainKind.G2_PR_PERP),
    ]
    for letters, pairs, kind in cases:
        leg = leg_from_relations(1, letters, pairs)
        mech = make_mechanism("two", [leg, leg_from_relations(2, letters, pairs)])
        g = build_relation_graph(mech)
        assert [s.kind for s in extract_subchains(leg, g)] == [kind], letters


def test_segment_properties():
    leg, g = leg_and_graph(UPS_MATRIX)
    segments = extract_subchains(leg, g)
    assert [(s.kind, s.start, s.stop) for s in segments] == [
        (SubchainKind.S2_RR_PERP, 1, 2),
        (SubchainKind.SINGLE_P, 3, 3),
        (SubchainKind.S3_RRR_PERP, 4, 6),
    ]


def test_segmentation_covers_every_joint_once():
    rng = random.Random(7)
    for _ in range(40):
        mech = random_mechanism(rng)
        try:
            g = build_relation_graph(mech)
        except Exception:
            continue
        for leg in mech.legs:
            segments = extract_subchains(leg, g)
            covered = [j for s in segments for j in range(s.start, s.stop + 1)]
            assert covered == list(range(1, leg.f + 1)), leg.signature
            assert extract_subchains(leg, g) == segments  # deterministic


def test_subchain_poc_placement():
    # a G3 at the head of a five joint leg marks the first revolute's column
    m = subchain_poc(SubchainKind.G3_PRR, 1, 5)
    assert (m.t, m.r) == ((0, 2, 0, 0, 0), (0, 1, 0, 0, 0))
    # a trailing single prismatic keeps its own column
    m = subchain_poc(SubchainKind.SINGLE_P, 4, 4)
    assert (m.t, m.r) == ((0, 0, 0, 1), (0, 0, 0, 0))
    # a spherical triple at the tail marks all three columns
    m = subchain_poc(SubchainKind.S3_RRR_PERP, 4, 6)
    assert (m.t, m.r) == ((0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1))


def test_subchain_poc_rejects_bad_range():
    with pytest.raises(ValueError):
        subchain_poc(SubchainKind.G3_PRR, 5, 6)
    with pytest.raises(ValueError):
        subchain_poc(SubchainKind.SINGLE_R, 0, 3)


def test_subchain_poc_returns_poc_matrices():
    for kind, m in catalogue_poc_matrices().items():
        assert isinstance(m, PocMatrix)
        assert m.rank >= 1


def reference_segments(leg, g):
    """The first-match scan over the catalogue, in catalogue order."""

    def matches(pattern, start):
        size = len(pattern.joints)
        if start + size - 1 > leg.f:
            return False
        if leg.joints[start - 1:start - 1 + size] != pattern.joints:
            return False
        return all(
            g.relation_between(AxisRef(leg.label, start + i - 1), AxisRef(leg.label, start + j - 1))
            is code
            for i, j, code in pattern.tests
        )

    segments = []
    pos = 1
    while pos <= leg.f:
        pattern = next(p for p in _CATALOG if matches(p, pos))
        segments.append(Segment(pattern.kind, pos, pos + len(pattern.joints) - 1))
        pos += len(pattern.joints)
    return tuple(segments)


def test_lookup_matches_first_match_scan_on_the_corpus():
    legs = 0
    for mech, g in corpus_graphs():
        for leg in mech.legs:
            assert extract_subchains(leg, g) == reference_segments(leg, g), (mech.name, leg.label)
            legs += 1
    assert legs > 1000


def test_lookup_matches_first_match_scan_on_every_three_joint_leg():
    checked = 0
    kinds = set()
    for letters in itertools.product("RP", repeat=3):
        for codes in itertools.product(range(6), repeat=3):
            pairs = dict(zip(((1, 2), (1, 3), (2, 3)), codes))
            try:
                leg = leg_from_relations(1, "".join(letters), pairs)
                mech = make_mechanism("sweep", [leg, leg_from_relations(2, "".join(letters), pairs)])
                g = build_relation_graph(mech)
            except (InconsistentRelations, TopologyError):
                continue
            segments = extract_subchains(leg, g)
            assert segments == reference_segments(leg, g), (letters, codes)
            kinds.update(s.kind for s in segments)
            checked += 1
    assert checked > 1500
    assert kinds == set(SubchainKind)


def test_lookup_table_is_the_catalogue():
    # keys never tie, and a key names every pair of an n-joint window in
    # the order the lookup asks them
    assert len(_BY_KEY) == len(_CATALOG)
    assert list(_BY_KEY.values()) == list(_CATALOG)
    pairs = {1: [], 2: [(1, 2)], 3: [(1, 2), (1, 3), (2, 3)]}
    for pattern in _CATALOG:
        assert [(i, j) for i, j, _ in pattern.tests] == pairs[len(pattern.joints)], pattern.kind
