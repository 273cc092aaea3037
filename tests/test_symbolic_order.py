"""Leg-order and inversion ratchet over the roadmap corpus.

A mechanism's mobility does not depend on the order its legs are listed
in, nor on which platform is called fixed.  The symbolic analysis does not
honour that yet.  The corpus is 300 random_mechanism and 300
labeled_random_mechanism topologies, each generator from its own
random.Random(1).  For each analyzable mechanism, its symbolic
(dof, classification) is compared under every other leg order
(permute_legs) and under inversion (invert).  The expected index sets are
exact: a change that makes an answer order-free shrinks them in the same
commit, and a change that grows one fails here.  No numpy is needed.
"""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import invert, labeled_random_mechanism, permute_legs, random_mechanism
from pmmobility import InconsistentRelations, analyze_mechanism

CHANGES_UNDER_PERMUTATION = {
    "raw": {46, 106, 135, 202, 219, 263, 270},
    "labeled": {10, 155, 186, 191, 214, 215, 257},
}

CHANGES_UNDER_INVERSION = {
    "raw": {99, 148, 233, 249, 258, 275},
    "labeled": {38, 50, 62, 141, 143, 219, 234, 268, 281},
}

# each pinned set by its name in tests/scoreboard.py
PINNED = {"leg order": CHANGES_UNDER_PERMUTATION, "inversion": CHANGES_UNDER_INVERSION}

GENERATORS = {"raw": random_mechanism, "labeled": labeled_random_mechanism}


def _answer(mech):
    try:
        report = analyze_mechanism(mech)
    except InconsistentRelations as err:
        return str(err)
    return report.dof, report.classification


def order_sets(corpus: str) -> dict[str, set[int]]:
    """The indices of one corpus whose answer changes under another leg
    order, and under inversion, keyed as PINNED."""
    rng = random.Random(1)
    found: dict[str, set[int]] = {name: set() for name in PINNED}
    for index in range(300):
        mech = GENERATORS[corpus](rng)
        answer = _answer(mech)
        if isinstance(answer, str):
            continue
        orders = itertools.permutations(range(len(mech.legs)))
        next(orders)  # the identity comes first
        if any(_answer(permute_legs(mech, order)) != answer for order in orders):
            found["leg order"].add(index)
        if _answer(invert(mech)) != answer:
            found["inversion"].add(index)
    return found


@pytest.mark.parametrize("corpus", ["raw", "labeled"])
def test_symbolic_answer_ratchet_under_leg_order_and_inversion(corpus):
    found = order_sets(corpus)
    for name, pinned in PINNED.items():
        assert found[name] == pinned[corpus], name
