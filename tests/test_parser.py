"""Mechanism file parsing: grammar, locations, and round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re

import pytest

from helpers import (
    RRC_MATRIX,
    UP_MATRIX,
    UPS_MATRIX,
    corpus_mechanisms,
    labeled_random_mechanism,
    mech_text,
    random_mechanism,
)
from pmmobility import (
    InconsistentRelations,
    JointKind,
    ParseError,
    RelationCode,
    TopologyError,
    analyze_mechanism,
    encode_leg,
    parse_mechanism_file,
    parse_mechanism_text,
    validate_mechanism,
)
from pmmobility import parser as parser_module
from pmmobility.parser import RELATION_SYMBOLS, SYMBOL_OF_RELATION

R, P = JointKind.REVOLUTE, JointKind.PRISMATIC

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


# errors raised on matrix rows, statement lines and unexpected lines, with
# the exact spot:
# columns count characters from 1, so a tab or an ideographic space (U+3000)
# is one column, and both separate cells like a blank
LOCATED_ERRORS = [
    pytest.param(
        "mechanism m\nleg 1:\n  8 0 0\n\t0 8\n  0 0 8\n",
        4, 2, "matrix row has 2 entries, expected 3",
        id="leg-row-length-tab-indent",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:\n  8 -\n 8\u3000-\u3000-\n",
        6, 2, "matrix row has 3 entries, expected 2",
        id="platform-row-length-ideographic-space",
    ),
    pytest.param(
        "mechanism m\nleg 1:\n  8\u30006\n  6 8\n",
        3, 5, "6 is not a relation code (0..5)",
        id="relation-cell-ideographic-space",
    ),
    pytest.param(
        "mechanism m\nleg 1:\n  8 0\n  0\t\t7\n",
        4, 6, "diagonal entry 7 is not a joint code (8, 9, R or P)",
        id="diagonal-cell-tab",
    ),
    pytest.param(
        "mechanism m\nleg 1:\n  8   ||\n    / 8\n",
        4, 5, "entry (2,1) = / conflicts with (1,2) = ||",
        id="leg-conflict",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:\n  8    ||\n  - 8\n",
        5, 8, "platform entries (1,2) and (2,1) differ",
        id="platform-entries-differ",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:\n  8 -\n  -   P\n"
        "platform fixed:\n  8 -\n  - 8\n",
        6, 7, "platform moving diagonal 2 is P but leg 2 ends with R",
        id="platform-diagonal-disagrees",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\n   \t8 0\n",
        3, 5, "unexpected '8' after an inline leg",
        id="row-after-inline-leg",
    ),
    pytest.param(
        "mechanism m\n\n  foo: bar\n",
        3, 3, "unexpected 'foo:'",
        id="unexpected-first-word",
    ),
    pytest.param(
        "mechanism m\n leg 1:\n" + "".join(
            "  " + " ".join("8" if i == j else "0" for j in range(7)) + "\n" for i in range(7)
        ),
        2, 2, "leg 1 has 7 joints, maximum is 6",
        id="matrix-leg-too-long",
    ),
    pytest.param(
        "# one leg\n  mechanism m\nleg 1: R\nplatform moving:\n  8\nplatform fixed:\n  8\n",
        2, 1, "leg count 1 < 2",
        id="one-leg-at-mechanism-line",
    ),
    pytest.param(
        "# a leg after a platform block\nmechanism m\nleg 1: R\nleg 2: R\n"
        "platform moving:\n  8 -\n  - 8\nleg 3: R\n"
        "platform fixed:\n  8 - -\n  - 8 -\n  - - 8\n",
        2, 1, "platform matrix size mismatch: moving is 2x2 for 3 legs",
        id="leg-after-platform-at-mechanism-line",
    ),
    # statement lines: the spot is the word the error names
    pytest.param(
        "mechanism m\n\tleg 1:\nleg 2: R\n",
        2, 2, "leg 1 has no joints",
        id="leg-header-tab-indent",
    ),
    pytest.param(
        "mechanism m\n\u3000leg 1 R\n",
        2, 7, "expected ':'",
        id="leg-header-ideographic-space-no-colon",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\n\tplatform moving:\nplatform fixed:\n",
        4, 2, "platform moving block has no rows",
        id="platform-header-tab-indent",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\n\u3000platform\u3000top:\n",
        4, 11, "platform side must be 'moving' or 'fixed', got 'top'",
        id="platform-header-ideographic-space",
    ),
    pytest.param(
        "mechanism m\nleg 1 : R\nleg 3 : R\n",
        3, 5, "leg numbers must run 1, 2, ... in order; expected 2, got 3",
        id="detached-colon-wrong-leg-number",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:  8 -\n",
        4, 19, "platform rows start on the next line",
        id="word-after-platform-colon",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving :\t8\n",
        4, 19, "platform rows start on the next line",
        id="word-after-detached-platform-colon",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\nplatform fixed:\n  8 -\n  - 8\n"
        "  platform fixed:\n  8 -\n  - 8\n",
        7, 3, "duplicate platform fixed block",
        id="duplicate-platform-block",
    ),
    pytest.param(
        "mechanism m\nleg 1: R || R || P\nrel 1  4 ||\n",
        3, 8, "joint index 4 out of range 1..3",
        id="rel-index-out-of-range",
    ),
    pytest.param(
        "mechanism m\nleg 1: R || R || P\nrel\t0 3 ||\n",
        3, 5, "joint index 0 out of range 1..3",
        id="rel-index-zero",
    ),
    pytest.param(
        "mechanism m\n  rel: 1 2 ||\n",
        2, 3, "rel lines must follow a joint-string leg header",
        id="statement-word-read-up-to-its-colon",
    ),
    # a statement word takes nothing glued after its colon
    pytest.param(
        "mechanism:junk door\n",
        1, 11, "unexpected 'junk' after 'mechanism:'",
        id="text-glued-to-mechanism-colon",
    ),
    pytest.param(
        "mechanism m\nleg:7 1: R\n",
        2, 5, "unexpected '7' after 'leg:'",
        id="text-glued-to-leg-colon",
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R\n\tplatform:x moving:\n",
        4, 11, "unexpected 'x' after 'platform:'",
        id="text-glued-to-platform-colon",
    ),
    # lines break at \r\n, \r and \n only, as editors and grep -n count
    # them: a form feed, vertical tab, \x1c-\x1e, NEL or U+2028/9 is
    # whitespace inside a line, and a text that ends in a line break has no
    # empty last line
    *(
        pytest.param(
            f"mechanism m{c}leg 1: R\nleg 2: Q\n",
            2, 5, "leg numbers must run 1, 2, ... in order; expected 1, got 2",
            id=f"u{ord(c):04x}-inside-a-line",
        )
        for c in "\x0c\x0b\x1c\x1d\x1e\x85\u2028\u2029"
    ),
    pytest.param(
        "mechanism m\nleg 1:\n  8\x850\n  0 8\n", 4, 1, "missing platform moving block",
        id="nel-inside-a-row",
    ),
    *(
        pytest.param(
            f"mechanism m{eol}leg 1: R{eol}leg 2: Q{eol}",
            3, 8, "expected a joint letter (R or P), got 'Q'", id=name,
        )
        for eol, name in (("\r", "cr-lines"), ("\r\n", "crlf-lines"))
    ),
    pytest.param(
        "mechanism m\nleg 1: R\nleg 2: R", 3, 1, "missing platform moving block",
        id="no-final-line-break",
    ),
    pytest.param(
        "mechanism m\rleg 1: R\rleg 2: R\r\r", 4, 1, "missing platform moving block",
        id="cr-blank-last-line",
    ),
    pytest.param(
        "mechanism m\r\n\r\n", 2, 1, "missing platform moving block",
        id="crlf-blank-last-line",
    ),
]


@pytest.mark.parametrize("text,line,col,reason", LOCATED_ERRORS)
def test_error_locations_in_rows(text, line, col, reason):
    with pytest.raises(ParseError) as err:
        parse_mechanism_text(text)
    assert (err.value.line, err.value.col, err.value.reason) == (line, col, reason)


# a line put as the second row of a 2x2 block: leg 1's (row on line 4) and
# the moving platform's (row on line 7); each outcome is a parse (None) or
# the (line, col, reason) of the ParseError.  Only a first word that is a
# statement word, read up to any ':', opens a statement; any other word,
# even one starting like one or holding a ':', is a row cell
_DIAGONAL_3 = "diagonal entry 3 is not a joint code (8, 9, R or P)"
_DIAGONAL_1 = "diagonal entry 1 is not a joint code (8, 9, R or P)"
_RULE = "rel lines must follow a joint-string leg header"
_SHORT = "matrix row has 2 entries, expected 1"
_NARROW = "matrix row has 1 entries, expected 2"
_DIFFER = "platform entries (1,2) and (2,1) differ"
LINES_IN_A_BLOCK = [
    ("rel 1 2 ||", (4, 3, _RULE), (7, 3, _RULE)),
    ("rel", (4, 3, _RULE), (7, 3, _RULE)),
    ("leg", (3, 3, _SHORT), (6, 3, _SHORT)),
    ("leg 3: R", (3, 3, _SHORT), (6, 3, _SHORT)),
    ("legs 3", (4, 8, _DIAGONAL_3), (7, 8, _DIAGONAL_3)),
    ("mechanism x", (4, 3, "duplicate mechanism line"), (7, 3, "duplicate mechanism line")),
    ("platform moving:", (3, 3, _SHORT), (6, 3, _SHORT)),
    ("platform", (3, 3, _SHORT), (6, 3, _SHORT)),
    ("lr 8", (4, 3, "'lr' is not a relation"), (7, 3, "'lr' is not a relation")),
    ("p:x 8", (4, 3, "'p:x' is not a relation"), (7, 3, "'p:x' is not a relation")),
    ("lr:1 8", (4, 3, "'lr:1' is not a relation"), (7, 3, "'lr:1' is not a relation")),
    ("r 1", (4, 5, _DIAGONAL_1), (7, 5, _DIAGONAL_1)),
    ("p", (4, 3, _NARROW), (7, 3, _NARROW)),
    ("p:", (4, 3, _NARROW), (7, 3, _NARROW)),
    ("m", (4, 3, _NARROW), (7, 3, _NARROW)),
    ("R 8", (4, 3, "'R' is not a relation"), (7, 3, "'R' is not a relation")),
    ("P 8", (4, 3, "'P' is not a relation"), (7, 3, "'P' is not a relation")),
    ("- 8", None, None),
    ("|| 8", (4, 3, "entry (2,1) = || conflicts with (1,2) = -"), (6, 5, _DIFFER)),
    ("_|_ 8", (4, 3, "entry (2,1) = _|_ conflicts with (1,2) = -"), (6, 5, _DIFFER)),
    ("/ 8", (4, 3, "entry (2,1) = / conflicts with (1,2) = -"), (6, 5, _DIFFER)),
    ("* 8", (4, 3, "entry (2,1) = * conflicts with (1,2) = -"), (6, 5, _DIFFER)),
    ("4 8", (4, 3, "entry (2,1) = # conflicts with (1,2) = -"), (6, 5, _DIFFER)),
    ("# 8", (3, 3, _SHORT), (6, 3, _SHORT)),
]


@pytest.mark.parametrize("line,in_leg,in_platform", LINES_IN_A_BLOCK)
def test_lines_inside_a_matrix_block(line, in_leg, in_platform):
    docs = (
        (lambda row: _two_leg_doc(f"leg 1:\n  8 0\n  {row}"), "0 8", in_leg),
        (lambda row: _two_leg_doc("leg 1: R", f"8 -\n  {row}"), "- 8", in_platform),
    )
    for doc, plain_row, outcome in docs:
        if outcome is None:
            assert parse_mechanism_text(doc(line)) == parse_mechanism_text(doc(plain_row))
            continue
        with pytest.raises(ParseError) as err:
            parse_mechanism_text(doc(line))
        assert (err.value.line, err.value.col, err.value.reason) == outcome


def test_statement_colon_with_nothing_glued_is_accepted():
    mech, _ = parse(_two_leg_doc("leg 1: R").replace("mechanism m", "mechanism: door"))
    assert mech.name == "door"


def test_a_leading_byte_order_mark_is_dropped(fixtures_dir, tmp_path):
    text = (fixtures_dir / "toy_hinge.mech").read_text(encoding="utf-8")
    bom = tmp_path / "bom.mech"
    bom.write_text("\ufeff" + text, encoding="utf-8")
    assert parse_mechanism_file(bom) == parse_mechanism_text(text)
    with pytest.raises(ParseError, match="line 1, col 1: a mechanism file starts"):
        parse_mechanism_text("\ufeff\ufeff" + text)


def test_colon_may_stand_alone_after_the_leg_number():
    tail = TAIL.replace("- 8\n\nplatform", "- 9\n\nplatform")
    mech, _ = parse("mechanism m\nleg 1 : R\nleg 2 : R || P\n" + tail)
    assert [leg.joints for leg in mech.legs] == [(R,), (R, P)]


def test_diagonal_cells_accept_what_int_reads():
    mech, _ = parse(
        "mechanism m\nleg 1:\n  08 0\n  0 +9\nleg 2: R\n"
        "platform moving:\n  +9 -\n  - 08\nplatform fixed:\n  8 -\n  - 8\n"
    )
    assert mech.legs[0].joints == (R, P)
    assert mech.moving.diagonal == (P, R)


def test_fixture_files_all_parse(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.mech")):
        mech = parse_mechanism_file(path)
        assert mech.leg_count >= 2


def test_reencoded_legs_round_trip(fixtures_dir):
    # parse, re-render each leg as its matrix, re-parse, compare
    mech = parse_mechanism_file(fixtures_dir / "three_rrc.mech")
    again = parse_mechanism_text(_matrix_doc(mech))
    assert again == mech


def _matrix_doc(mech, symbols: bool = False) -> str:
    """Matrix-form text for a topology, with numeric codes or with symbols.

    With symbols, diagonals are R/P and relations use their symbols, except
    a coplanar first cell, which would open a comment and is written as 4.
    """

    def row(kinds, relations, i):
        cells = []
        for j, code in enumerate(relations[i]):
            if i == j:
                cells.append(kinds[i].value if symbols else str(kinds[i].code))
            elif symbols and not (j == 0 and code is RelationCode.COPLANAR):
                cells.append(SYMBOL_OF_RELATION[code])
            else:
                cells.append(str(int(code)))
        return "  " + " ".join(cells)

    lines = [f"mechanism {mech.name}"]
    for leg in mech.legs:
        lines.append(f"leg {leg.label}:")
        lines += [row(leg.joints, leg.relations, i) for i in range(leg.f)]
    for plat in (mech.moving, mech.fixed):
        lines.append(f"platform {plat.side.value}:")
        lines += [row(plat.diagonal, plat.matrix, i) for i in range(plat.size)]
    return "\n".join(lines) + "\n"


# tokens of the grammar, plus a few near misses and a line break
FUZZ_VOCABULARY = (
    "mechanism", "leg", "platform", "rel", "moving:", "fixed:", ":", "1:", "2:",
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "-1",
    "R", "P", "-", "||", "_|_", "/", "#", "*", "x", "\n",
    "01", "+2", "0_3", "\t", "\u3000",
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


# sha256 of every outcome in test_parse_outcomes_are_frozen
PARSE_OUTCOMES_DIGEST = "244a909da90b9af6ff8f022aafbd7b38816055b5da7c3d730734eddd7067dd9a"


def test_parse_outcomes_are_frozen(fixtures_dir):
    # fixtures plus matrix-form texts of generated topologies, half of them
    # spelled with symbols; each mutant's outcome, parsed or refused, is
    # hashed, so a parser rewrite must keep every topology, warning, error
    # message and error location
    rng = random.Random(13)
    texts = [p.read_text(encoding="utf-8") for p in sorted(fixtures_dir.glob("*.mech"))]
    for n in range(40):
        mech = (random_mechanism if n % 2 else labeled_random_mechanism)(rng)
        texts.append(_matrix_doc(mech, symbols=n % 4 >= 2))
    digest = hashlib.sha256()
    for _ in range(3000):
        warnings: list[str] = []
        try:
            mech = parse_mechanism_text(_mutate(rng.choice(texts), rng), warnings.append)
        except (ParseError, TopologyError) as err:
            outcome = (
                type(err).__name__,
                getattr(err, "line", None),
                getattr(err, "col", None),
                getattr(err, "reason", str(err)),
            )
        else:
            outcome = (repr(mech), warnings)
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    assert digest.hexdigest() == PARSE_OUTCOMES_DIGEST


# the texts this file's tests parse successfully, beside the fixtures
PARSED_CASES = [
    _two_leg_doc("leg 1: R || R || R || P\nrel 1 3 ||\nrel 1 4 ||\nrel 2 4 ||", "9 -\n  - 8"),
    _two_leg_doc("leg 1:\n  8 1 1 1\n  1 8 1 1\n  1 1 8 1\n  1 1 1 9", "9 -\n  - 8"),
    *(_two_leg_doc(f"leg 1: R {symbol} R\nrel 1 2 {symbol}") for symbol in RELATION_SYMBOLS),
    _two_leg_doc("leg 1:\n  8 0\n  0 8"),
    _two_leg_doc("leg 1:\n  8 #\n  4 8"),
    _two_leg_doc("leg 1: R").replace("mechanism m", "mechanism two hinge door"),
    _two_leg_doc("leg 1: R || R || P", "9 -\n  - 8"),
    _two_leg_doc("leg 1:\n  8 0 0\n  0 8 0\n  0 0 9", "9 -\n  - 8"),
    _two_leg_doc("leg 1: R").replace("mechanism m", "mechanism: door"),
    "mechanism m\nleg 1 : R\nleg 2 : R || P\n" + TAIL.replace("- 8\n\nplatform", "- 9\n\nplatform"),
    "mechanism m\nleg 1:\n  08 0\n  0 +9\nleg 2: R\n"
    "platform moving:\n  +9 -\n  - 08\nplatform fixed:\n  8 -\n  - 8\n",
]


def test_every_parsed_text_passes_validate_mechanism(fixtures_dir):
    # the parser checks labels, platform sizes and diagonals block by block
    # and runs validate_mechanism only when those checks can have missed
    # something, so whatever it accepts must have no violation: this file's
    # cases, the fixtures, the roadmap corpus as matrix-form text, and the
    # mutants of all of them that still parse
    fixtures = [p.read_text(encoding="utf-8") for p in sorted(fixtures_dir.glob("*.mech"))]
    corpus = [mech_text(mech) for mech in corpus_mechanisms()]
    texts = PARSED_CASES + fixtures + corpus
    for text, mech in zip(corpus, corpus_mechanisms()):
        assert parse_mechanism_text(text) == mech
    rng = random.Random(2)
    mutants = [_mutate(rng.choice(texts), rng) for _ in range(3000)]
    accepted = 0
    for text in texts + mutants:
        try:
            mech = parse_mechanism_text(text, on_warning=lambda message: None)
        except ParseError:
            continue
        assert validate_mechanism(mech) == [], text
        accepted += 1
    # every unmutated text parses, and some dozens of the mutants too
    assert accepted >= len(texts) + 50


def _with_pair(matrix, i: int, j: int, code: RelationCode):
    """matrix with cells (i, j) and (j, i) set to code."""
    rows = [list(row) for row in matrix]
    rows[i][j] = rows[j][i] = code
    return tuple(map(tuple, rows))


def _flip(kind: JointKind) -> JointKind:
    return P if kind is R else R


def _edit_topology(mech, rng: random.Random):
    """One edit that keeps a topology well formed: a relation pair of a leg
    or a platform changed in both of its cells, or an end joint's kind
    changed together with the platform diagonal that names it."""
    legs = list(mech.legs)
    if rng.random() < 0.5:
        block = rng.choice([leg for leg in legs if leg.f > 1] + ["moving", "fixed"])
        matrix = getattr(mech, block).matrix if isinstance(block, str) else block.relations
        i, j = rng.sample(range(len(matrix)), 2)
        code = rng.choice([c for c in RelationCode if c is not matrix[i][j]])
        matrix = _with_pair(matrix, i, j, code)
        if isinstance(block, str):
            plat = dataclasses.replace(getattr(mech, block), matrix=matrix)
            return dataclasses.replace(mech, **{block: plat})
        legs[legs.index(block)] = dataclasses.replace(block, relations=matrix)
        return dataclasses.replace(mech, legs=tuple(legs))
    k = rng.randrange(len(legs))
    joints = list(legs[k].joints)
    end = rng.choice((0, -1))
    joints[end] = _flip(joints[end])
    legs[k] = dataclasses.replace(legs[k], joints=tuple(joints))
    # the moving platform names each leg's last joint, the fixed its first;
    # a one-joint leg's only joint is both
    sides = {}
    for side, ends in (("moving", -1), ("fixed", 0)):
        plat = getattr(mech, side)
        diagonal = list(plat.diagonal)
        diagonal[k] = legs[k].joints[ends]
        sides[side] = dataclasses.replace(plat, diagonal=tuple(diagonal))
    return dataclasses.replace(mech, legs=tuple(legs), **sides)


def _break_mirror(text: str, rng: random.Random) -> tuple[str, tuple[int, int, str]]:
    """text with one off-diagonal cell of one block changed, and the
    (line, col, reason) of the ParseError that names that pair."""
    lines = text.splitlines()
    headers = [n for n, line in enumerate(lines) if line.startswith(("leg ", "platform "))]
    header = rng.choice([n for n in headers if len(lines[n + 1].split()) > 1])
    size = len(lines[header + 1].split())
    i, j = rng.sample(range(size), 2)
    row = lines[header + 1 + i].split()
    old = RelationCode(int(row[j]))
    new = rng.choice([c for c in RelationCode if c is not old])
    row[j] = str(int(new))
    lines[header + 1 + i] = "  " + " ".join(row)
    # the parser refuses a leg at the pair's cell below the diagonal and a
    # platform at its cell above: row a, column b
    a, b = min(i, j), max(i, j)
    if lines[header].startswith("leg "):
        code = {(i, j): new, (j, i): old}
        a, b = b, a
        reason = (
            f"entry ({a + 1},{b + 1}) = {SYMBOL_OF_RELATION[code[a, b]]} conflicts "
            f"with ({b + 1},{a + 1}) = {SYMBOL_OF_RELATION[code[b, a]]}"
        )
    else:
        reason = f"platform entries ({a + 1},{b + 1}) and ({b + 1},{a + 1}) differ"
    # every cell is one digit, so word b of a row starts at column 3 + 2b
    return "\n".join(lines) + "\n", (header + 2 + a, 3 + 2 * b, reason)


def test_edited_topologies_parse_back_and_one_broken_mirror_is_located():
    # token edits rarely keep a numeric matrix symmetric, so this edits the
    # topology and writes it out again: every edit must parse back equal,
    # and one cell then changed without its mirror must be refused at it
    rng = random.Random(29)
    mechs = corpus_mechanisms()
    kind_edits = 0
    for _ in range(400):
        mech = rng.choice(mechs)
        edited = _edit_topology(mech, rng)
        assert edited != mech
        kind_edits += any(a.joints != b.joints for a, b in zip(edited.legs, mech.legs))
        text = mech_text(edited)
        assert parse_mechanism_text(text) == edited, text
        broken, expected = _break_mirror(text, rng)
        with pytest.raises(ParseError) as err:
            parse_mechanism_text(broken)
        assert (err.value.line, err.value.col, err.value.reason) == expected, broken
    assert 150 <= kind_edits <= 250


def _platforms(k: int) -> str:
    rows = "".join(
        "  " + " ".join("8" if i == j else "-" for j in range(k)) + "\n" for i in range(k)
    )
    return f"platform moving:\n{rows}platform fixed:\n{rows}"


def test_validate_mechanism_runs_only_where_the_blocks_cannot_check(monkeypatch, fixtures_dir):
    calls = []
    real = parser_module.validate_mechanism
    monkeypatch.setattr(
        parser_module, "validate_mechanism", lambda mech: calls.append(mech) or real(mech)
    )
    for text in PARSED_CASES + [p.read_text() for p in sorted(fixtures_dir.glob("*.mech"))]:
        parse_mechanism_text(text)
    assert calls == []
    legs = "".join(f"leg {n}: R\n" for n in range(1, 8))
    refused = {
        "mechanism m\nleg 1: R\n" + _platforms(1): "leg count 1 < 2",
        "mechanism m\n" + legs + _platforms(7): "leg count 7 > 6",
        "mechanism m\nleg 1: R\nleg 2: R\nplatform moving:\n  8 -\n  - 8\nleg 3: R\n"
        "platform fixed:\n  8 - -\n  - 8 -\n  - - 8\n": (
            "platform matrix size mismatch: moving is 2x2 for 3 legs"
        ),
    }
    for text, reason in refused.items():
        with pytest.raises(ParseError) as err:
            parse_mechanism_text(text)
        assert (err.value.line, err.value.col, err.value.reason) == (1, 1, reason)
    assert len(calls) == len(refused)
