"""One digest over the symbolic answers for 600 seeded random topologies.

It guards refactors of the symbolic core (parser, relation graph, POC
algebra, loop fold, reports): any change in a report, its walkthrough, its
assumptions or the message of a rejected topology changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import random

from pmmobility import analyze_mechanism, render_human, render_structured

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
