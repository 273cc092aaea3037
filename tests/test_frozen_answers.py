"""Digests over the symbolic and the oracle answers for 600 seeded random
topologies.

The first guards refactors of the symbolic core (parser, relation graph,
POC algebra, loop fold, reports): any change in a report, its walkthrough,
its assumptions or the message of a rejected topology changes the digest.
The second guards refactors of the numeric oracle's ranker: any change in
a seed's loop ranks, platform space, split, DOF or near-threshold flag
changes it.
"""

from __future__ import annotations

import hashlib
import json
import random

from pmmobility import (
    InconsistentRelations,
    analyze_mechanism,
    render_human,
    render_structured,
)
from pmmobility.oracle import OraclePlan, Unsatisfiable

from helpers import labeled_random_mechanism, random_mechanism

COUNT = 300


def test_symbolic_answers_are_frozen():
    digest = hashlib.sha256()
    for generator in (random_mechanism, labeled_random_mechanism):
        rng = random.Random(1)
        for _ in range(COUNT):
            mech = generator(rng)
            try:
                report = analyze_mechanism(mech)
            except Exception as err:
                digest.update(f"{type(err).__name__}: {err}".encode())
            else:
                digest.update(render_human(report, trace=True).encode())
                digest.update(json.dumps(render_structured(report, trace=True), sort_keys=True).encode())
                digest.update("\n".join(report.assumptions).encode())
            digest.update(b"\0")
    assert digest.hexdigest() == (
        "96eaa40146a32892222446e8d98faaf2ab66846ab74a50aca5f443172cd7c371"
    )


def test_oracle_answers_are_frozen():
    # 466 of the 600 topologies are ranked at 20 seeds; 133 are rejected and
    # one cannot be sampled
    digest = hashlib.sha256()
    for generator in (random_mechanism, labeled_random_mechanism):
        rng = random.Random(1)
        for _ in range(COUNT):
            mech = generator(rng)
            try:
                report = analyze_mechanism(mech)
                plan = OraclePlan(mech, report.graph)
                results = plan.rank(plan.sample(range(20)))
            except (InconsistentRelations, Unsatisfiable) as err:
                digest.update(type(err).__name__.encode())
            else:
                for r in results:
                    answer = (
                        r.loop_ranks,
                        r.platform_dim,
                        r.platform_xi_t,
                        r.platform_xi_r,
                        r.dof,
                        r.near_threshold,
                    )
                    digest.update(repr(answer).encode())
            digest.update(b"\0")
    assert digest.hexdigest() == (
        "812e2989eb0cec1216339d8b81bdf0b3f7e7261589a1f92119398b070ac53295"
    )
