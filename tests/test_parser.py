"""Mechanism file parsing: grammar, locations, and round trips."""

from __future__ import annotations

import random
import re

import pytest

from helpers import RRC_MATRIX, UP_MATRIX, UPS_MATRIX
from pmmobility import (
    InconsistentRelations,
    ParseError,
    RelationCode,
    TopologyError,
    analyze_mechanism,
    encode_leg,
    parse_mechanism_file,
    parse_mechanism_text,
)
from pmmobility.parser import RELATION_SYMBOLS

TAIL = """
platform moving:
  8 -
  - 8

platform fixed:
  8 -
  - 8
"""


def parse(text: str):
    warnings: list[str] = []
    mech = parse_mechanism_text(text, on_warning=warnings.append)
    return mech, warnings


def test_tricept_fixture_matrices(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "tricept.mech")
    assert mech.name == "tricept"
    assert [leg.f for leg in mech.legs] == [6, 6, 6, 3]
    for leg in mech.legs[:3]:
        assert encode_leg(leg) == UPS_MATRIX
    assert encode_leg(mech.legs[3]) == UP_MATRIX
    assert [k.value for k in mech.moving.diagonal] == ["R", "R", "R", "P"]
    assert [k.value for k in mech.fixed.diagonal] == ["R", "R", "R", "R"]


def test_three_rrc_fixture_matrices(fixtures_dir):
    mech = parse_mechanism_file(fixtures_dir / "three_rrc.mech")
    assert mech.name == "three-rrc"
    for leg in mech.legs:
        assert encode_leg(leg) == RRC_MATRIX
    # platform-adjacent axes meet in common points on both platforms,
    # which constrains positions but leaves the directions unrelated
    for plat in (mech.moving, mech.fixed):
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert plat.matrix[i][j] is RelationCode.COMMON_POINT


def _two_leg_doc(leg1: str, tail_moving: str = "8 -\n  - 8") -> str:
    return (
        "mechanism m\n"
        f"{leg1}\n"
        "leg 2: R\n"
        "\n"
        "platform moving:\n"
        f"  {tail_moving}\n"
        "\n"
        "platform fixed:\n"
        "  8 -\n"
        "  - 8\n"
    )


def test_inline_and_matrix_legs_agree():
    inline = _two_leg_doc(
        "leg 1: R || R || R || P\nrel 1 3 ||\nrel 1 4 ||\nrel 2 4 ||", "9 -\n  - 8"
    )
    matrix = _two_leg_doc(
        "leg 1:\n  8 1 1 1\n  1 8 1 1\n  1 1 8 1\n  1 1 1 9", "9 -\n  - 8"
    )
    a, warn_a = parse(inline)
    b, warn_b = parse(matrix)
    assert a.legs[0] == b.legs[0]
    assert warn_a == [] and warn_b == []


@pytest.mark.parametrize("symbol,code", sorted(RELATION_SYMBOLS.items()))
def test_relation_symbols(symbol, code):
    mech, _ = parse(_two_leg_doc(f"leg 1: R {symbol} R\nrel 1 2 {symbol}"))
    assert mech.legs[0].relations[0][1] is code


def test_numeric_relation_codes_in_matrix():
    mech, _ = parse(_two_leg_doc("leg 1:\n  8 0\n  0 8"))
    assert mech.legs[0].relations[0][1] is RelationCode.ARBITRARY


def test_inline_coplanar_and_first_column_code():
    # '#' only opens a comment at the start of a line; inside a row it is
    # the coplanar relation, and the mirrored first-column cell must use
    # the numeric code
    mech, _ = parse(_two_leg_doc("leg 1:\n  8 #\n  4 8"))
    assert mech.legs[0].relations[0][1] is RelationCode.COPLANAR


def test_line_start_hash_is_a_comment_even_indented():
    text = _two_leg_doc("leg 1:\n  # 8\n  4 8")
    with pytest.raises(ParseError, match="matrix row has 2 entries, expected 1"):
        parse(text)


def test_multi_word_mechanism_name():
    mech, _ = parse(_two_leg_doc("leg 1: R").replace("mechanism m", "mechanism two hinge door"))
    assert mech.name == "two hinge door"


def test_unrelated_pairs_warn_and_default_to_arbitrary():
    mech, warnings = parse(_two_leg_doc("leg 1: R || R || P", "9 -\n  - 8"))
    assert mech.legs[0].relations[0][2] is RelationCode.ARBITRARY
    assert len(warnings) == 1
    assert "leg 1: joint pairs (1,3) have no stated relation" in warnings[0]


def test_matrix_legs_do_not_warn():
    _, warnings = parse(_two_leg_doc("leg 1:\n  8 0 0\n  0 8 0\n  0 0 9", "9 -\n  - 8"))
    assert warnings == []


BAD_DOCS = [
    ("", "a mechanism file starts with 'mechanism NAME'"),
    ("leg 1: R\n", "a mechanism file starts with 'mechanism NAME'"),
    ("mechanism\n", "mechanism needs a name"),
    ("mechanism m\nmechanism n\n", "duplicate mechanism line"),
    ("mechanism m\nleg\n", "leg needs a number"),
    ("mechanism m\nleg one:\n", "'one' is not a leg number"),
    ("mechanism m\nleg 2: R\n", "expected 1, got 2"),
    ("mechanism m\nleg 1 R\n", "expected ':'"),
    ("mechanism m\nleg 1: Q\n", "expected a joint letter"),
    ("mechanism m\nleg 1: R R\n", "expected a relation symbol between joints"),
    ("mechanism m\nleg 1: R ||\n", "joint string ends with a relation"),
    (
        "mechanism m\nleg 1: R || R || R || R || R || R || R\n",
        "leg 1 has 7 joints, maximum is 6",
    ),
    ("mechanism m\nrel 1 2 ||\n", "rel lines must follow a joint-string leg header"),
    (
        "mechanism m\nleg 1:\n  8 0\n  0 8\nrel 1 2 ||\n",
        "rel lines must follow a joint-string leg header",
    ),
    ("mechanism m\nleg 1: R || R\nrel 1 2\n", "expected: rel I J SYMBOL"),
    ("mechanism m\nleg 1: R || R\nrel 1 5 ||\n", "joint index 5 out of range 1..2"),
    ("mechanism m\nleg 1: R || R\nrel 1 1 ||\n", "rel needs two different joints"),
    ("mechanism m\nleg 1: R || R\nrel 1 2 @\n", "'@' is not a relation"),
    ("mechanism m\nleg 1:\n  8 0 0\n  0 8\n  0 0 8\n", "matrix row has 2 entries, expected 3"),
    ("mechanism m\nleg 1:\n  7 0\n  0 8\n", "diagonal entry 7 is not a joint code"),
    ("mechanism m\nleg 1:\n  8 6\n  6 8\n", "6 is not a relation code"),
    ("mechanism m\nleg 1:\n  8 1\n  2 8\n", "conflicts with"),
    ("mechanism m\nleg 1:\nleg 2: R\n", "leg 1 has no joints"),
    ("mechanism m\nfoo\n", "unexpected 'foo'"),
    ("mechanism m\nleg 1: R\n8 0\n", "unexpected '8' after an inline leg"),
    ("mechanism m\nplatform moving:\n  8\n", "platform blocks must come after the legs"),
    ("mechanism m\nleg 1: R\nleg 2: R\nplatform top:\n", "platform side must be 'moving' or 'fixed'"),
    ("mechanism m\nleg 1: R\nleg 2: R\nplatform moving: 8\n", "platform rows start on the next line"),
    (
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:\n  8\nplatform fixed:\n  8 -\n  - 8\n",
        "platform moving matrix is 1x1 but there are 2 legs",
    ),
    (
        "mechanism m\nleg 1: R\nleg 2: R\n"
        "platform moving:\n  8 -\n  - 8\nplatform moving:\n  8 -\n  - 8\n",
        "duplicate platform moving block",
    ),
    (
        "mechanism m\nleg 1: R\nleg 2: R\n"
        "platform moving:\n  8 ||\n  - 8\nplatform fixed:\n  8 -\n  - 8\n",
        r"platform entries \(1,2\) and \(2,1\) differ",
    ),
    (
        "mechanism m\nleg 1: R\nleg 2: R\n"
        "platform moving:\n  9 -\n  - 8\nplatform fixed:\n  8 -\n  - 8\n",
        "platform moving diagonal 1 is P but leg 1 ends with R",
    ),
    (
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:\n  8 -\n  - 8\n",
        "missing platform fixed block",
    ),
]


@pytest.mark.parametrize("text,match", BAD_DOCS, ids=range(len(BAD_DOCS)))
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_mechanism_text(text)


def test_error_location_points_at_offending_token():
    text = "mechanism m\nleg 1: R || R\nrel 1 2 @\n"
    with pytest.raises(ParseError) as err:
        parse_mechanism_text(text)
    assert err.value.line == 3
    assert err.value.col == 9
    assert err.value.reason == "'@' is not a relation"
    assert str(err.value).startswith("line 3, col 9: ")


def test_error_location_for_misplaced_colon():
    with pytest.raises(ParseError) as err:
        parse_mechanism_text("mechanism m\nleg 1 R\n")
    assert (err.value.line, err.value.col) == (2, 6)


def test_fixture_files_all_parse(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.mech")):
        mech = parse_mechanism_file(path)
        assert mech.leg_count >= 2


def test_reencoded_legs_round_trip(fixtures_dir):
    # parse, re-render each leg as its matrix, re-parse, compare
    mech = parse_mechanism_file(fixtures_dir / "three_rrc.mech")
    lines = [f"mechanism {mech.name}"]
    for leg in mech.legs:
        lines.append(f"leg {leg.label}:")
        for row in encode_leg(leg):
            lines.append("  " + " ".join(str(v) for v in row))
    for side, plat in (("moving", mech.moving), ("fixed", mech.fixed)):
        lines.append(f"platform {side}:")
        for i in range(plat.size):
            cells = []
            for j in range(plat.size):
                if i == j:
                    cells.append(str(plat.diagonal[i].code))
                else:
                    cells.append(str(int(plat.matrix[i][j])))
            lines.append("  " + " ".join(cells))
    again = parse_mechanism_text("\n".join(lines) + "\n")
    assert again == mech


# tokens of the grammar, plus a few near misses and a line break
FUZZ_VOCABULARY = (
    "mechanism", "leg", "platform", "rel", "moving:", "fixed:", ":", "1:", "2:",
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "-1",
    "R", "P", "-", "||", "_|_", "/", "#", "*", "x", "\n",
)


def _mutate(text: str, rng: random.Random) -> str:
    """Replace, delete or insert one to three whitespace-separated tokens."""
    for _ in range(rng.randint(1, 3)):
        start, end = rng.choice([m.span() for m in re.finditer(r"\S+", text)])
        token = rng.choice(FUZZ_VOCABULARY)
        text = rng.choice(
            (
                text[:start] + token + text[end:],
                text[:start] + text[end:],
                text[:start] + token + " " + text[start:],
            )
        )
    return text


def test_mutated_fixtures_raise_only_input_errors(fixtures_dir):
    texts = [p.read_text(encoding="utf-8") for p in sorted(fixtures_dir.glob("*.mech"))]
    rng = random.Random(0)
    analyzed = 0
    for _ in range(600):
        text = _mutate(rng.choice(texts), rng)
        try:
            mech = parse_mechanism_text(text, on_warning=lambda message: None)
        except (ParseError, TopologyError):
            continue
        try:
            analyze_mechanism(mech)
        except (InconsistentRelations, TopologyError):
            continue
        analyzed += 1
    # enough mutants survive parsing that the analysis is exercised too
    assert analyzed >= 30
