"""Scoreboard of every pinned set of symbolic answers that are off.

Usage, from the root of a checkout::

    python tests/scoreboard.py [--json]

Each set is recomputed by the code of the test that pins it, and printed as
one line: its size, the members added and removed against the pinned
value, and a sha256 over its sorted members, one ``name index`` or
``LETTERS codes`` line each.  The pinned values are imported from the test
modules, so each set has one source of truth:

* the roadmap corpus (tests/test_oracle_corpus.py): mechanisms whose
  symbolic answer disagrees with the oracle at seeds 0-2, whose relations
  the oracle cannot sample, whose seed-0 draw is off a seeded relation, and
  which the relation graph rejects;
* the same corpus (tests/test_symbolic_order.py): mechanisms whose answer
  changes under another leg order, and under inversion;
* the leg census (tests/test_leg_census.py and tests/census.py): 3-joint
  legs, codes 0-5, pinned leg by leg, and 4-joint legs, codes 0-2, pinned
  by count and sha256 only, so that line has no added or removed members.

``--json`` prints the same data as one JSON object keyed by set name.  The
script takes about 6 s, always exits 0 once the sets are computed, and is
not collected by pytest; the tests are the gates.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import census  # noqa: E402
import test_leg_census  # noqa: E402
import test_oracle_corpus  # noqa: E402
import test_symbolic_order  # noqa: E402

CORPORA = ("raw", "labeled")


def _line(member: tuple[str, int | str]) -> str:
    return f"{member[0]} {member[1]}"


def row(found: set, pinned: set) -> dict:
    """One set's entry against its pinned members."""
    return {
        "size": len(found),
        "added": [_line(member) for member in sorted(found - pinned)],
        "removed": [_line(member) for member in sorted(pinned - found)],
        "sha256": hashlib.sha256("\n".join(sorted(map(_line, found))).encode()).hexdigest(),
    }


def scoreboard() -> dict[str, dict]:
    """Every set's entry, in a fixed order."""
    board = {}
    for prefix, module, sets in (
        ("corpus ", test_oracle_corpus, test_oracle_corpus.corpus_sets),
        ("", test_symbolic_order, test_symbolic_order.order_sets),
    ):
        found = {corpus: sets(corpus) for corpus in CORPORA}
        for name, pinned in module.PINNED.items():
            board[prefix + name] = row(
                {(corpus, index) for corpus in CORPORA for index in found[corpus][name]},
                {(corpus, index) for corpus in CORPORA for index in pinned[corpus]},
            )
    _, disagreeing, _ = census.sweep(3, range(6))
    board["3-joint census"] = row(
        {(letters, "".join(map(str, combo))) for letters, combo in disagreeing},
        test_leg_census.PINNED,
    )
    _, disagreeing, _ = census.sweep(4, range(3))
    sha = census.digest(disagreeing)
    # pinned by count and sha256 only: no members to add or remove
    board["4-joint census"] = {
        "size": len(disagreeing),
        "added": None,
        "removed": None,
        "sha256": sha,
        "pinned": (len(disagreeing), sha) == (census.PINNED[1], census.PINNED[3]),
    }
    return board


def text(board: dict[str, dict]) -> str:
    width = max(map(len, board))
    lines = []
    for name, entry in board.items():
        if entry["added"] is None:
            change = "as pinned" if entry["pinned"] else "not as pinned"
        else:
            change = " ".join(
                f"{sign}{len(members)}" + (f" ({', '.join(members)})" if members else "")
                for sign, members in (("+", entry["added"]), ("-", entry["removed"]))
            )
        lines.append(f"{name:<{width}}  {entry['size']:5}  {change}  sha256 {entry['sha256']}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    board = scoreboard()
    print(json.dumps(board, indent=2) if "--json" in argv else text(board))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
