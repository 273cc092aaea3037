"""Agreement ratchet over the roadmap corpus.

The corpus is 300 random_mechanism and 300 labeled_random_mechanism
topologies, each generator from its own random.Random(1), checked with
oracle seeds 0-2.  The expected sets are exact: a change that fixes a
disagreement shrinks them in the same commit, and a change that grows one
fails here.  The mechanisms the relation graph rejects are pinned too, as
a rule that rejects more can empty the other sets.
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

REJECTED = {
    # the relation graph raises InconsistentRelations
    "raw": {
        2, 3, 6, 7, 9, 10, 11, 17, 18, 19, 20, 22, 23, 24, 25, 26, 27, 30, 32,
        33, 34, 38, 39, 40, 43, 48, 49, 52, 54, 56, 58, 62, 64, 67, 69, 71, 73,
        74, 76, 77, 82, 85, 87, 88, 89, 92, 93, 94, 95, 96, 98, 100, 104, 107,
        111, 112, 114, 117, 123, 124, 125, 126, 127, 129, 130, 131, 133, 138,
        139, 144, 146, 150, 151, 152, 154, 158, 161, 162, 163, 166, 167, 171,
        173, 174, 179, 180, 182, 183, 184, 187, 188, 189, 192, 195, 197, 199,
        201, 203, 205, 206, 208, 217, 221, 224, 226, 227, 229, 239, 242, 243,
        246, 247, 248, 250, 251, 253, 256, 257, 266, 267, 269, 271, 274, 276,
        279, 282, 284, 289, 291, 292, 293, 297, 299,
    },
    "labeled": set(),
}

# each pinned set by its name in tests/scoreboard.py, in the order checked
PINNED = {
    "unsatisfiable": UNSATISFIABLE,
    "off-relation": OFF_RELATIONS,
    "disagree": DISAGREE,
    "rejected": REJECTED,
}

GENERATORS = {"raw": random_mechanism, "labeled": labeled_random_mechanism}


def corpus_sets(corpus: str) -> dict[str, set[int]]:
    """The index sets of one corpus, keyed as PINNED."""
    rng = random.Random(1)
    found: dict[str, set[int]] = {name: set() for name in PINNED}
    for index in range(300):
        mech = GENERATORS[corpus](rng)
        try:
            report = analyze_mechanism(mech)
        except InconsistentRelations:
            found["rejected"].add(index)
            continue
        try:
            result = verify_mechanism(mech, report, range(3))
        except Unsatisfiable:
            found["unsatisfiable"].add(index)
            continue
        if not result.all_agree:
            found["disagree"].add(index)
        inst = instantiate_geometry(mech, report.graph, seed=0)
        if any(value > RESIDUAL_TOL for _, value in inst.residuals(report.graph)):
            found["off-relation"].add(index)
    return found


@pytest.mark.parametrize("corpus", ["raw", "labeled"])
def test_roadmap_corpus_ratchet(corpus):
    found = corpus_sets(corpus)
    for name, pinned in PINNED.items():
        assert found[name] == pinned[corpus], name


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
