"""Agreement ratchet over the roadmap corpus.

The corpus is 300 random_mechanism and 300 labeled_random_mechanism
topologies, each generator from its own random.Random(1), checked with
oracle seeds 0-2.  The expected sets are exact: a change that fixes a
disagreement shrinks them in the same commit, and a change that grows one
fails here.
"""

from __future__ import annotations

import random

import pytest

from helpers import labeled_random_mechanism, random_mechanism
from pmmobility import InconsistentRelations, analyze_mechanism, build_relation_graph, oracle
from pmmobility.oracle import (
    RESIDUAL_TOL,
    OraclePlan,
    Unsatisfiable,
    instantiate_geometry,
    verify_mechanism,
)

DISAGREE = {
    "raw": {
        5, 12, 21, 50, 55, 60, 66, 70, 75, 80, 81, 84, 90, 97, 103, 106, 116, 118,
        122, 137, 147, 148, 153, 157, 160, 164, 169, 175, 177, 190, 193, 196, 202,
        213, 222, 223, 233, 235, 237, 240, 241, 258, 259, 260, 268, 270, 275, 277,
        280, 286, 287, 290,
    },
    "labeled": {
        4, 11, 13, 15, 25, 28, 29, 30, 37, 38, 44, 51, 55, 56, 58, 61, 62, 64, 65,
        69, 74, 75, 76, 79, 83, 85, 86, 91, 94, 95, 99, 102, 108, 110, 111, 113,
        114, 115, 117, 129, 130, 132, 136, 142, 143, 144, 145, 146, 149, 150, 151,
        152, 155, 163, 165, 166, 168, 171, 173, 176, 180, 182, 183, 184, 186, 188,
        190, 191, 194, 195, 198, 202, 213, 215, 219, 221, 228, 236, 239, 241, 243,
        244, 248, 249, 258, 268, 270, 273, 274, 279, 281, 282, 292, 298,
    },
}

UNSATISFIABLE = {
    # four mutually perpendicular parallel classes, which R^3 cannot hold
    "raw": {99},
    "labeled": set(),
}

OFF_RELATIONS = {
    # 3.4 * 3.6 are numerically parallel: both are perpendicular to 3.1 and
    # to 3.2 || 3.5, but the relation graph does not derive 3.4 || 3.6, so
    # the oracle draws them as two parallel lines that do not meet
    "raw": {260},
    "labeled": set(),
}

GENERATORS = {"raw": random_mechanism, "labeled": labeled_random_mechanism}


@pytest.mark.parametrize("corpus", ["raw", "labeled"])
def test_roadmap_corpus_ratchet(corpus):
    rng = random.Random(1)
    disagree, unsatisfiable, off_relations = set(), set(), set()
    for index in range(300):
        mech = GENERATORS[corpus](rng)
        try:
            report = analyze_mechanism(mech)
        except InconsistentRelations:
            continue
        try:
            result = verify_mechanism(mech, report, range(3))
        except Unsatisfiable:
            unsatisfiable.add(index)
            continue
        if not result.all_agree:
            disagree.add(index)
        inst = instantiate_geometry(mech, report.graph, seed=0)
        if any(value > RESIDUAL_TOL for _, value in inst.residuals(report.graph)):
            off_relations.add(index)
    assert unsatisfiable == UNSATISFIABLE[corpus]
    assert off_relations == OFF_RELATIONS[corpus]
    assert disagree == DISAGREE[corpus]


def test_draw_cache_holds_every_corpus_shape():
    # 20 seeds over the 467 consistent topologies draw 279 distinct shapes,
    # so a second pass must find every one still cached.  The unsatisfiable
    # shape raises and is never cached, so it misses on each pass
    plans = []
    for generate in GENERATORS.values():
        rng = random.Random(1)
        for _ in range(300):
            mech = generate(rng)
            try:
                plans.append(OraclePlan(mech, build_relation_graph(mech)))
            except InconsistentRelations:
                continue
    oracle._draws.cache_clear()
    misses = []
    for _ in range(2):
        before, unsatisfiable = oracle._draws.cache_info().misses, 0
        for plan in plans:
            try:
                plan.sample(range(20))
            except Unsatisfiable:
                unsatisfiable += 1
        misses.append(oracle._draws.cache_info().misses - before)
    assert len(plans) == 467 and unsatisfiable == 1
    assert misses[1] == unsatisfiable
