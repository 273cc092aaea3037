"""Leg census: every small leg beside the oracle's leg twist space.

Usage, from the root of a checkout::

    python tests/census.py

A census leg is a joint letter string with one relation code on each of
its joint pairs, in the order (1,2), (1,3), ..., (2,3), ...  It is built
with leg_from_relations, paired with a relabelled copy of itself under
arbitrary platforms through make_mechanism, and analyzed.  Leg 1's
(xi_T, xi_R) is compared with the oracle's leg twist space at seeds 0-2:
its rank less its angular rank, and its angular rank.  A leg is
analyzable when the relation graph accepts it and the oracle can sample
it; it disagrees when any of the three seeds differs.

Run as a script, this sweeps every 4-joint leg with codes 0-2 (about 7 s)
and prints the analyzable, disagreeing and unsatisfiable counts with a
sha256 over the sorted disagreeing legs, and exits 1 unless all four equal
the values pinned here.  tests/test_leg_census.py pins the 3-joint
sweep, codes 0-5, leg by leg in tier-1; pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

if __name__ == "__main__":  # run from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helpers import leg_from_relations, make_mechanism, oracle_leg_spaces  # noqa: E402
from pmmobility import InconsistentRelations, Unsatisfiable, analyze_mechanism  # noqa: E402
from pmmobility.oracle import OraclePlan, _twists  # noqa: E402

# 4 joints, codes 0-2: analyzable, disagreeing, unsatisfiable, digest
PINNED = (7504, 802, 16, "71effe325c5476a8832412d0f65b153d7de5c49b935ff0476b55f2ae3c60ad5a")


def sweep(joints: int, codes) -> tuple[int, list[tuple[str, tuple[int, ...]]], int]:
    """The analyzable count, the disagreeing legs as (letters, codes) in
    sweep order, and the unsatisfiable count of one census."""
    pairs = list(itertools.combinations(range(1, joints + 1), 2))
    analyzable, unsatisfiable, disagreeing = 0, 0, []
    for letters in map("".join, itertools.product("RP", repeat=joints)):
        for combo in itertools.product(codes, repeat=len(pairs)):
            relations = dict(zip(pairs, combo))
            legs = [leg_from_relations(label, letters, relations) for label in (1, 2)]
            mech = make_mechanism("census", legs)
            try:
                report = analyze_mechanism(mech)
            except InconsistentRelations:
                continue
            plan = OraclePlan(mech, report.graph)
            try:
                direction, point = plan.sample(range(3))
            except Unsatisfiable:
                unsatisfiable += 1
                continue
            analyzable += 1
            twists = _twists(
                direction[:, plan._axis_class], point[:, plan._axis_anchor], plan._revolute
            )
            leg = report.legs[0]
            if any(space != (leg.matrix.xi_t, leg.matrix.xi_r) for space in oracle_leg_spaces(twists[:, :joints])):
                disagreeing.append((letters, combo))
    return analyzable, disagreeing, unsatisfiable


def digest(disagreeing) -> str:
    """sha256 over the sorted legs, one 'LETTERS codes' line each."""
    lines = sorted(f"{letters} {''.join(map(str, combo))}" for letters, combo in disagreeing)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> int:
    analyzable, disagreeing, unsatisfiable = sweep(4, range(3))
    found = (analyzable, len(disagreeing), unsatisfiable, digest(disagreeing))
    print(f"4-joint legs, codes 0-2: {found[0]} analyzable, {found[1]} disagree, "
          f"{found[2]} unsatisfiable")
    print(f"sha256 {found[3]}")
    if found != PINNED:
        print(f"expected {PINNED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
