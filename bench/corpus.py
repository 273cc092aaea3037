"""Seeded mechanism corpora for the benchmark.

The generators are a private copy of the random topology builders used by
the test suite, so that editing the tests cannot change what the benchmark
measures.  Each generated mechanism is written as matrix-form ``.mech`` text
and parsed back; the parse must reproduce the generated topology exactly.

* ``raw_mechanism``: 2-4 legs of 1-6 joints with relation codes drawn
  independently.  Many of these close into inconsistent relation sets, the
  way candidate enumeration in type synthesis does.
* ``labeled_mechanism``: directions drawn from an alphabet (an orthogonal
  x/y/z triad plus generic directions) and every true parallel or
  perpendicular fact seeded, so the result is analyzable and whatever the
  relation graph leaves open really is in general position.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from pmmobility import (
    JointKind,
    LegTopology,
    MechanismTopology,
    PlatformRelations,
    PlatformSide,
    RelationCode,
    encode_leg,
    parse_mechanism_text,
)

_LEG_CODES = (0, 0, 0, 1, 1, 2, 2, 4, 5)
_PLATFORM_CODES = (0, 0, 0, 0, 1, 2, 4, 5)
_TRIAD = ("x", "y", "z")
_DIR_LABELS = ("x", "y", "z", "g1", "g2", "g3")


def _symmetric(size: int, pairs: dict[tuple[int, int], int]) -> tuple[tuple[RelationCode, ...], ...]:
    rows = [[RelationCode.ARBITRARY] * size for _ in range(size)]
    for (i, j), code in pairs.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = RelationCode(code)
    return tuple(tuple(row) for row in rows)


def _leg(label: int, letters: str, pairs: dict[tuple[int, int], int]) -> LegTopology:
    kinds = tuple(JointKind.from_letter(ch) for ch in letters)
    return LegTopology(label=label, joints=kinds, relations=_symmetric(len(kinds), pairs))


def _mechanism(name: str, legs: list[LegTopology], moving: dict, fixed: dict) -> MechanismTopology:
    k = len(legs)
    return MechanismTopology(
        name=name,
        legs=tuple(legs),
        moving=PlatformRelations(
            PlatformSide.MOVING, tuple(leg.joints[-1] for leg in legs), _symmetric(k, moving)
        ),
        fixed=PlatformRelations(
            PlatformSide.FIXED, tuple(leg.joints[0] for leg in legs), _symmetric(k, fixed)
        ),
    )


def raw_mechanism(rng: random.Random, name: str, max_legs: int = 4) -> MechanismTopology:
    """Random topology; its relations may still prove inconsistent."""
    k = rng.randint(2, max_legs)
    legs = []
    for label in range(1, k + 1):
        f = rng.randint(1, 6)
        letters = "".join(rng.choice("RRP") for _ in range(f))
        pairs = {
            (i, j): rng.choice(_LEG_CODES) for i in range(1, f + 1) for j in range(i + 1, f + 1)
        }
        legs.append(_leg(label, letters, pairs))
    moving = {}
    fixed = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            moving[(i, j)] = rng.choice(_PLATFORM_CODES)
            fixed[(i, j)] = rng.choice(_PLATFORM_CODES)
    return _mechanism(name, legs, moving, fixed)


def _labeled_code(rng: random.Random, a: str, b: str, both_r: bool) -> int:
    if a == b:
        return 3 if both_r and rng.random() < 0.2 else 1
    if a in _TRIAD and b in _TRIAD:
        return 2
    return rng.choice((0, 0, 0, 4, 5))


class _PositionalCap:
    """Keeps coplanar/common-point chains to at most three joints.

    Those codes constrain axis positions and merge transitively when
    instantiated; four or more concurrent axes are coincidences the
    combination rules never consume, so a general-position generator must
    not create them.
    """

    def __init__(self) -> None:
        self._comp: dict[tuple[int, int], set[tuple[int, int]]] = {}

    def admit(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        ca = self._comp.setdefault(a, {a})
        cb = self._comp.setdefault(b, {b})
        if ca is cb:
            return True
        if len(ca) + len(cb) > 3:
            return False
        merged = ca | cb
        for node in merged:
            self._comp[node] = merged
        return True


def labeled_mechanism(rng: random.Random, name: str, max_legs: int = 3) -> MechanismTopology:
    """Random general-position topology over a labeled direction alphabet."""
    k = rng.randint(2, max_legs)
    cap = _PositionalCap()

    def code(a: str, b: str, both_r: bool, node_a: tuple[int, int], node_b: tuple[int, int]) -> int:
        c = _labeled_code(rng, a, b, both_r)
        if c in (4, 5) and not cap.admit(node_a, node_b):
            return 0
        return c

    legs = []
    leg_labels = []
    for label in range(1, k + 1):
        f = rng.randint(1, 6)
        letters = "".join(rng.choice("RRP") for _ in range(f))
        labels = [rng.choice(_DIR_LABELS) for _ in range(f)]
        pairs = {}
        for i in range(1, f + 1):
            for j in range(i + 1, f + 1):
                both_r = letters[i - 1] == "R" and letters[j - 1] == "R"
                pairs[(i, j)] = code(labels[i - 1], labels[j - 1], both_r, (label, i), (label, j))
        legs.append(_leg(label, letters, pairs))
        leg_labels.append(labels)
    moving = {}
    fixed = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            fi, fj = legs[i - 1].f, legs[j - 1].f
            moving[(i, j)] = code(leg_labels[i - 1][-1], leg_labels[j - 1][-1], False, (i, fi), (j, fj))
            fixed[(i, j)] = code(leg_labels[i - 1][0], leg_labels[j - 1][0], False, (i, 1), (j, 1))
    return _mechanism(name, legs, moving, fixed)


def _matrix_lines(rows) -> list[str]:
    return ["  " + " ".join(str(int(v)) for v in row) for row in rows]


def _platform_lines(platform: PlatformRelations) -> list[str]:
    rows = [
        [kind.code if i == j else int(platform.matrix[i][j]) for j in range(platform.size)]
        for i, kind in enumerate(platform.diagonal)
    ]
    return [f"platform {platform.side.value}:", *_matrix_lines(rows)]


def to_mech_text(mech: MechanismTopology) -> str:
    """Matrix-form ``.mech`` text for a topology."""
    lines = [f"mechanism {mech.name}", ""]
    for leg in mech.legs:
        lines += [f"leg {leg.label}:", *_matrix_lines(encode_leg(leg)), ""]
    lines += [*_platform_lines(mech.moving), "", *_platform_lines(mech.fixed)]
    return "\n".join(lines) + "\n"


def write_corpus(
    directory: Path, kind: str, seed: int, count: int
) -> tuple[list[Path], str]:
    """Generate ``count`` mechanisms, write them and check the round trip.

    Returns the file paths in corpus order and a sha256 digest of their
    text.  Raises AssertionError when a written file does not parse back to
    the generated topology.
    """
    generate = {"raw": raw_mechanism, "labeled": labeled_mechanism}[kind]
    rng = random.Random(f"{kind}:{seed}")
    digest = hashlib.sha256()
    paths = []
    for index in range(count):
        mech = generate(rng, f"{kind}-{seed}-{index:05d}")
        text = to_mech_text(mech)
        parsed = parse_mechanism_text(text)
        if parsed != mech:
            raise AssertionError(f"{mech.name}: written text does not parse back to the topology")
        path = directory / f"{mech.name}.mech"
        path.write_text(text, encoding="utf-8")
        digest.update(text.encode("utf-8"))
        paths.append(path)
    return paths, digest.hexdigest()
