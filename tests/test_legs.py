"""Leg analysis: reference outputs, trace structure, numeric agreement."""

import numpy as np
import pytest

from pmmobility import analyze_leg, build_relation_graph, normalize
from pmmobility.oracle import (
    Unsatisfiable,
    _leg_spaces,
    _one_seed_leg,
    _twists,
    instantiate_geometry,
)
from pmmobility.subchains import _CATALOG, extract_subchains, segments_poc, subchain_poc

from helpers import (
    REFERENCE_LEGS,
    corpus_graphs,
    labeled_random_mechanism,
    leg_and_graph,
    leg_from_relations,
    make_mechanism,
    numeric_rank,
    oracle_leg_spaces,
    pair_mechanism,
    poc_or,
)


@pytest.mark.parametrize("name", sorted(REFERENCE_LEGS))
def test_reference_leg_matrices(name):
    matrix, expected = REFERENCE_LEGS[name]
    leg, g = leg_and_graph(matrix)
    result = analyze_leg(leg, g)
    assert (result.matrix.t, result.matrix.r) == expected, name
    assert result.matrix.width == 6


def test_leg_matrix_owners():
    matrix, _ = REFERENCE_LEGS["UP"]
    leg, g = leg_and_graph(matrix)
    result = analyze_leg(leg, g)
    assert result.matrix.owners == (1, 1)


def test_trace_matches_segments_and_combined():
    matrix, _ = REFERENCE_LEGS["UPS"]
    leg, g = leg_and_graph(matrix)
    result = analyze_leg(leg, g)
    assert result.segments == extract_subchains(leg, g)
    parts = [subchain_poc(s.kind, s.start, leg.f).with_owner(1) for s in result.segments]
    assert result.matrix == normalize(poc_or(parts), g).widen(6)
    assert all(part.owners[0] == 1 or part.owners[1] == 1 for part in parts)


def test_leg_matrix_matches_union_of_segment_matrices_on_the_corpus():
    # poc_or over per-segment matrices is the reference for the one matrix
    # analyze_leg scatters the segments into
    for mech, g in corpus_graphs():
        for leg in mech.legs:
            ledger = []
            result = analyze_leg(leg, g, ledger)
            parts = [
                subchain_poc(s.kind, s.start, leg.f).with_owner(leg.label)
                for s in extract_subchains(leg, g)
            ]
            assert segments_poc(result.segments, leg.f, leg.label) == poc_or(parts)
            expected_ledger = []
            expected = normalize(poc_or(parts), g, expected_ledger).widen(6)
            assert result.matrix == expected, (mech.name, leg.label)
            assert ledger == expected_ledger, (mech.name, leg.label)


def test_coaxial_revolute_pair_adds_nothing():
    coaxial = leg_from_relations(1, "RR", {(1, 2): 3})
    mech = make_mechanism("coax", [coaxial, leg_from_relations(2, "RR", {(1, 2): 3})])
    g = build_relation_graph(mech)
    result = analyze_leg(coaxial, g)
    assert (result.matrix.xi_t, result.matrix.xi_r) == (0, 1)

    parallel = leg_from_relations(1, "RR", {(1, 2): 1})
    mech = make_mechanism("par", [parallel, leg_from_relations(2, "RR", {(1, 2): 1})])
    g = build_relation_graph(mech)
    result = analyze_leg(parallel, g)
    # distinct parallel axes do generate the relative translation
    assert (result.matrix.xi_t, result.matrix.xi_r) == (1, 1)


def test_leg_rank_never_exceeds_joint_count():
    import random

    rng = random.Random(5)
    for _ in range(40):
        mech = labeled_random_mechanism(rng)
        g = build_relation_graph(mech)
        for leg in mech.legs:
            result = analyze_leg(leg, g)
            assert result.matrix.rank <= min(leg.f, 6)


def _numeric_leg_ranks(mech, leg_index, inst):
    d, p, revolute = _one_seed_leg(mech.legs[leg_index], inst)
    rank = int(_leg_spaces([_twists(d, p, revolute)])[0][0][0])
    # the angular block of the twists: revolute directions, prismatic zeros
    angular = numeric_rank(np.where(revolute, d[0], 0.0))
    return rank, angular


@pytest.mark.parametrize("name", sorted(REFERENCE_LEGS))
def test_reference_legs_match_numeric_twists(name):
    matrix, _ = REFERENCE_LEGS[name]
    mech = pair_mechanism(matrix, name=name.lower())
    g = build_relation_graph(mech)
    result = analyze_leg(mech.legs[0], g)
    for seed in range(20):
        inst = instantiate_geometry(mech, g, seed=seed)
        rank, angular = _numeric_leg_ranks(mech, 0, inst)
        assert rank == result.matrix.xi_t + result.matrix.xi_r, (name, seed)
        assert angular == result.matrix.xi_r, (name, seed)


def test_random_legs_match_numeric_twists():
    import random

    rng = random.Random(20240815)
    checked = 0
    while checked < 60:
        mech = labeled_random_mechanism(rng)
        g = build_relation_graph(mech)
        try:
            instances = [instantiate_geometry(mech, g, seed=s) for s in (0, 1, 2)]
        except Unsatisfiable:
            continue
        for i, leg in enumerate(mech.legs):
            result = analyze_leg(leg, g)
            for inst in instances:
                rank, angular = _numeric_leg_ranks(mech, i, inst)
                assert rank == result.matrix.xi_t + result.matrix.xi_r, (mech.name, leg.label)
                assert angular == result.matrix.xi_r, (mech.name, leg.label)
            checked += 1


@pytest.mark.parametrize("pattern", _CATALOG, ids=lambda p: p.kind.name)
def test_catalogue_pattern_matches_the_oracle_leg_twist_space(pattern):
    # each pattern, built as a lone leg with exactly its tested relations,
    # is one segment whose (xi_t, xi_r) the sampled leg twist space shares:
    # the catalogue is sound, so a leg disagreement comes from composing
    # segments
    letters = "".join(kind.value for kind in pattern.joints)
    leg = leg_from_relations(1, letters, {(i, j): code for i, j, code in pattern.tests})
    mech = make_mechanism("pattern", [leg, leg_from_relations(2, "R", {})])
    g = build_relation_graph(mech)
    assert [s.kind for s in extract_subchains(leg, g)] == [pattern.kind]
    result = analyze_leg(leg, g)
    for seed in (0, 1, 2):
        inst = instantiate_geometry(mech, g, seed=seed)
        [space] = oracle_leg_spaces(_twists(*_one_seed_leg(leg, inst)))
        assert (result.matrix.xi_t, result.matrix.xi_r) == space, seed
