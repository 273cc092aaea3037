"""The 3-joint leg census, pinned leg by leg (tests/census.py says how a
census leg is built and compared with the oracle).

The pinned set is a ratchet: a change that fixes a leg removes it here in
the same commit, and no change may add one.  The 4-joint sweep runs in CI
as ``python tests/census.py``.
"""

from __future__ import annotations

from census import sweep

# the codes of pairs (1,2), (1,3) and (2,3) of each disagreeing leg
DISAGREEING = {
    "RRR": "013 103 113 115 135 143 151 153 315 351 413 511 513 531",
    "RRP": "135 153 511 513 531",
    "RPR": "151 153 315 351 513",
    "RPP": "021 023 201 203 221 223 241 243 251 253 421 423 521 523",
    "PRR": "115 135 315 351 531",
    "PRP": "012 032 210 212 214 215 230 232 234 235 412 432 512 532",
    "PPR": "102 120 122 124 125 142 152 302 320 322 324 325 342 352",
}


def test_three_joint_leg_census_is_pinned():
    analyzable, disagreeing, unsatisfiable = sweep(3, range(6))
    assert (analyzable, unsatisfiable) == (1632, 0)
    found = {(letters, "".join(map(str, combo))) for letters, combo in disagreeing}
    assert found == {
        (letters, codes) for letters, line in DISAGREEING.items() for codes in line.split()
    }
    assert len(disagreeing) == 71
