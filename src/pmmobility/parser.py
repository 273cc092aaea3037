"""Text format for mechanism topology files.

A mechanism file is line oriented.  Lines whose first word starts with
``#`` are comments; blank lines separate nothing and are skipped.  The
format is:

    mechanism NAME
    leg 1: R || R || R || P
    rel 1 3 ||
    leg 2:
        8 1 1 1
        1 8 1 1
        1 1 8 1
        1 1 1 9
    platform moving:
        9 5
        5 9
    platform fixed:
        8 5
        5 8

A leg is written either inline as a joint string (joint letters separated
by relation symbols for the adjacent pairs) or as an explicit symmetric
matrix on the following lines.  Non adjacent pairs of a joint-string leg
default to the arbitrary relation and can be set with ``rel i j SYMBOL``
lines; a warning is emitted for pairs left at the default.  The platform
blocks relate the platform-adjacent joints of the legs (last joints on the
moving side, first joints on the fixed side); their diagonals name those
joints and must agree with the legs.

Relation cells accept either the numeric codes 0..5 or the symbols
``-`` (arbitrary), ``||`` (parallel), ``_|_`` (perpendicular), ``/``
(coaxial), ``#`` (coplanar) and ``*`` (common point).  Diagonal cells
accept ``R``/``P`` or 8/9.  Because ``#`` opens a comment at the start of
a line, a coplanar relation in the first column of a matrix row must be
written as the numeric code 4.

Each line is split into whitespace-separated words.  Statement lines
(``mechanism``, ``leg``, ``rel``, ``platform``) are then tokenized with the
column of every word; matrix rows stay plain words, and a cell's column is
found only when an error is reported at it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .topology import (
    MAX_LEG_JOINTS,
    JointKind,
    LegTopology,
    MechanismTopology,
    PlatformRelations,
    PlatformSide,
    RelationCode,
    validate_mechanism,
)

RELATION_SYMBOLS = {
    "-": RelationCode.ARBITRARY,
    "||": RelationCode.PARALLEL,
    "_|_": RelationCode.PERPENDICULAR,
    "/": RelationCode.COAXIAL,
    "#": RelationCode.COPLANAR,
    "*": RelationCode.COMMON_POINT,
}

SYMBOL_OF_RELATION = {code: sym for sym, code in RELATION_SYMBOLS.items()}

class ParseError(ValueError):
    """Syntax or structure error in a mechanism file."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(line: str, number: int) -> list[_Token]:
    return [
        _Token(m.group(), number, m.start() + 1)
        for m in re.finditer(r"\S+", line)
    ]


class _Row(NamedTuple):
    """A content line as its words, without columns.

    ``raw.split()`` and ``_tokenize`` split at the same whitespace, so word
    k is ``token(k).text``; only error sites call ``token`` to find a column.
    """

    number: int
    raw: str
    words: list[str]

    def tokens(self) -> list[_Token]:
        return _tokenize(self.raw, self.number)

    def token(self, k: int) -> _Token:
        return self.tokens()[k]


def _relation_cell(tok: _Token) -> RelationCode:
    if tok.text in RELATION_SYMBOLS:
        return RELATION_SYMBOLS[tok.text]
    try:
        value = int(tok.text)
    except ValueError:
        raise ParseError(f"{tok.text!r} is not a relation", tok.line, tok.col) from None
    try:
        return RelationCode(value)
    except ValueError:
        raise ParseError(f"{value} is not a relation code (0..5)", tok.line, tok.col) from None


def _kind_cell(tok: _Token) -> JointKind:
    try:
        value = int(tok.text)
    except ValueError:
        raise ParseError(f"{tok.text!r} is not a joint kind", tok.line, tok.col) from None
    if value == 8:
        return JointKind.REVOLUTE
    if value == 9:
        return JointKind.PRISMATIC
    raise ParseError(f"diagonal entry {value} is not a joint code (8, 9, R or P)", tok.line, tok.col)


# the usual spellings of a matrix cell; any other goes through
# _relation_cell or _kind_cell, which accept what int() accepts
_RELATION_CELLS = {**RELATION_SYMBOLS, **{str(code.value): code for code in RelationCode}}
_KIND_CELLS = {
    "R": JointKind.REVOLUTE,
    "P": JointKind.PRISMATIC,
    "8": JointKind.REVOLUTE,
    "9": JointKind.PRISMATIC,
}


def _relation_at(row: _Row, k: int) -> RelationCode:
    code = _RELATION_CELLS.get(row.words[k])
    return _relation_cell(row.token(k)) if code is None else code


def _kind_at(row: _Row, k: int) -> JointKind:
    kind = _KIND_CELLS.get(row.words[k])
    return _kind_cell(row.token(k)) if kind is None else kind


def _check_square(rows: list[_Row], size: int) -> None:
    for row in rows:
        if len(row.words) != size:
            tok = row.token(0)
            raise ParseError(
                f"matrix row has {len(row.words)} entries, expected {size}", tok.line, tok.col
            )


def _make_leg(label: int, kinds: list[JointKind], rels: list[list[RelationCode]]) -> LegTopology:
    return LegTopology(
        label=label, joints=tuple(kinds), relations=tuple(tuple(row) for row in rels)
    )


class _Draft:
    """The open block, from its header on: a leg, or a platform when side
    is set.

    A joint-string leg collects kinds and sparse pair relations from its
    tokenized header and ``rel`` lines; a matrix leg and a platform collect
    their rows as untokenized ``_Row``s.
    """

    def __init__(self, header: _Token, label: int = 0, side: PlatformSide | None = None):
        self.label = label
        self.header = header
        self.side = side
        self.kinds: list[JointKind] = []
        self.pairs: dict[tuple[int, int], RelationCode] = {}
        self.rows: list[_Row] = []

    def set_pair(self, i: int, j: int, code: RelationCode) -> None:
        self.pairs[(min(i, j), max(i, j))] = code

    def build(self, on_warning: Callable[[str], None]) -> LegTopology:
        """The joint-string leg, warning about pairs no line relates."""
        f = len(self.kinds)
        rels = [[RelationCode.ARBITRARY] * f for _ in range(f)]
        missing: list[tuple[int, int]] = []
        for i in range(1, f + 1):
            for j in range(i + 1, f + 1):
                key = (i, j)
                if key in self.pairs:
                    rels[i - 1][j - 1] = rels[j - 1][i - 1] = self.pairs[key]
                else:
                    missing.append(key)
        if missing:
            pairs = ", ".join(f"({i},{j})" for i, j in missing)
            on_warning(
                f"leg {self.label}: joint pairs {pairs} have no stated relation, "
                "treating them as arbitrary"
            )
        return _make_leg(self.label, self.kinds, rels)


class _Parser:
    def __init__(self, text: str, on_warning: Callable[[str], None] | None):
        self.lines = text.splitlines()
        self.on_warning = on_warning or (lambda message: None)
        self.name: str | None = None
        self.name_token: _Token | None = None
        self.legs: list[LegTopology] = []
        self.platforms: dict[PlatformSide, PlatformRelations] = {}
        self.draft: _Draft | None = None
        self.last_line = max(len(self.lines), 1)

    # -- line stream ------------------------------------------------------

    def _content_lines(self) -> Iterator[_Row]:
        for number, raw in enumerate(self.lines, start=1):
            words = raw.split()
            if words and not words[0].startswith("#"):
                yield _Row(number, raw, words)

    # -- block completion ---------------------------------------------------

    def _finish_open_block(self) -> None:
        draft, self.draft = self.draft, None
        if draft is None:
            return
        if draft.side is not None:
            self.platforms[draft.side] = self._finish_platform(draft)
        elif draft.rows:
            self._finish_matrix_leg(draft)
        elif not draft.kinds:
            raise ParseError(
                f"leg {draft.label} has no joints", draft.header.line, draft.header.col
            )
        else:
            self.legs.append(draft.build(self.on_warning))

    def _finish_matrix_leg(self, draft: _Draft) -> None:
        rows = draft.rows
        f = len(rows)
        _check_square(rows, f)
        if f > MAX_LEG_JOINTS:
            raise ParseError(
                f"leg {draft.label} has {f} joints, maximum is {MAX_LEG_JOINTS}",
                draft.header.line,
                draft.header.col,
            )
        kinds = [_kind_at(row, i) for i, row in enumerate(rows)]
        # row-major: a cell below the diagonal meets the mirror cell that
        # its row above already set
        rels = [[RelationCode.ARBITRARY] * f for _ in range(f)]
        for i, row in enumerate(rows):
            out = rels[i]
            for j in range(f):
                if j == i:
                    continue
                code = _relation_at(row, j)
                if j > i:
                    out[j] = rels[j][i] = code
                elif code is not out[j]:
                    tok = row.token(j)
                    raise ParseError(
                        f"entry ({i + 1},{j + 1}) = {SYMBOL_OF_RELATION[code]} conflicts "
                        f"with ({j + 1},{i + 1}) = {SYMBOL_OF_RELATION[out[j]]}",
                        tok.line,
                        tok.col,
                    )
        self.legs.append(_make_leg(draft.label, kinds, rels))

    def _finish_platform(self, draft: _Draft) -> PlatformRelations:
        side, header, rows = draft.side, draft.header, draft.rows
        if not rows:
            raise ParseError(f"platform {side.value} block has no rows", header.line, header.col)
        k = len(rows)
        _check_square(rows, k)
        if k != len(self.legs):
            raise ParseError(
                f"platform {side.value} matrix is {k}x{k} but there are {len(self.legs)} legs",
                header.line,
                header.col,
            )
        diagonal = tuple(_kind_at(row, i) for i, row in enumerate(rows))
        matrix = [
            [RelationCode.ARBITRARY if i == j else _relation_at(row, j) for j in range(k)]
            for i, row in enumerate(rows)
        ]
        for i in range(k):
            for j in range(i + 1, k):
                if matrix[i][j] is not matrix[j][i]:
                    tok = rows[i].token(j)
                    raise ParseError(
                        f"platform entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ",
                        tok.line,
                        tok.col,
                    )
        end = -1 if side is PlatformSide.MOVING else 0
        where = "ends" if side is PlatformSide.MOVING else "starts"
        for i, leg in enumerate(self.legs):
            if diagonal[i] is not leg.joints[end]:
                tok = rows[i].token(i)
                raise ParseError(
                    f"platform {side.value} diagonal {i + 1} is {diagonal[i].value} "
                    f"but leg {leg.label} {where} with {leg.joints[end].value}",
                    tok.line,
                    tok.col,
                )
        return PlatformRelations(
            side=side,
            diagonal=diagonal,
            matrix=tuple(tuple(row) for row in matrix),
        )

    # -- statements ---------------------------------------------------------

    def _require_colon(self, tokens: list[_Token], index: int) -> list[_Token]:
        """Split a trailing ':' off tokens[index], returning the remainder."""
        tok = tokens[index]
        if tok.text.endswith(":"):
            head = tok.text[:-1]
            rest = tokens[index + 1 :]
        elif index + 1 < len(tokens) and tokens[index + 1].text == ":":
            head = tok.text
            rest = tokens[index + 2 :]
        else:
            raise ParseError("expected ':'", tok.line, tok.col + len(tok.text))
        tokens[index] = _Token(head, tok.line, tok.col)
        return rest

    def _stmt_mechanism(self, tokens: list[_Token]) -> None:
        if self.name is not None:
            raise ParseError("duplicate mechanism line", tokens[0].line, tokens[0].col)
        if len(tokens) < 2:
            raise ParseError("mechanism needs a name", tokens[0].line, tokens[0].col)
        self.name = " ".join(t.text for t in tokens[1:])
        self.name_token = tokens[0]

    def _stmt_leg(self, tokens: list[_Token]) -> None:
        self._finish_open_block()
        if len(tokens) < 2:
            raise ParseError("leg needs a number", tokens[0].line, tokens[0].col)
        rest = self._require_colon(tokens, 1)
        label_tok = tokens[1]
        try:
            label = int(label_tok.text)
        except ValueError:
            raise ParseError(
                f"{label_tok.text!r} is not a leg number", label_tok.line, label_tok.col
            ) from None
        expected = len(self.legs) + 1
        if label != expected:
            raise ParseError(
                f"leg numbers must run 1, 2, ... in order; expected {expected}, got {label}",
                label_tok.line,
                label_tok.col,
            )
        draft = self.draft = _Draft(tokens[0], label)
        if rest:
            self._parse_joint_string(draft, rest)

    def _parse_joint_string(self, draft: _Draft, tokens: list[_Token]) -> None:
        expect_joint = True
        pending_rel: RelationCode | None = None
        for tok in tokens:
            if expect_joint:
                if tok.text not in ("R", "P"):
                    raise ParseError(
                        f"expected a joint letter (R or P), got {tok.text!r}", tok.line, tok.col
                    )
                draft.kinds.append(JointKind.from_letter(tok.text))
                if pending_rel is not None:
                    draft.set_pair(len(draft.kinds) - 1, len(draft.kinds), pending_rel)
                    pending_rel = None
                expect_joint = False
            else:
                if tok.text not in RELATION_SYMBOLS:
                    raise ParseError(
                        f"expected a relation symbol between joints, got {tok.text!r}",
                        tok.line,
                        tok.col,
                    )
                pending_rel = RELATION_SYMBOLS[tok.text]
                expect_joint = True
        if expect_joint:
            last = tokens[-1]
            raise ParseError("joint string ends with a relation", last.line, last.col)
        if len(draft.kinds) > MAX_LEG_JOINTS:
            raise ParseError(
                f"leg {draft.label} has {len(draft.kinds)} joints, maximum is {MAX_LEG_JOINTS}",
                draft.header.line,
                draft.header.col,
            )

    def _stmt_rel(self, tokens: list[_Token]) -> None:
        draft = self.draft
        if draft is None or draft.rows or not draft.kinds:
            raise ParseError(
                "rel lines must follow a joint-string leg header", tokens[0].line, tokens[0].col
            )
        if len(tokens) != 4:
            raise ParseError("expected: rel I J SYMBOL", tokens[0].line, tokens[0].col)
        indices = []
        for tok in tokens[1:3]:
            try:
                value = int(tok.text)
            except ValueError:
                raise ParseError(f"{tok.text!r} is not a joint index", tok.line, tok.col) from None
            if not 1 <= value <= len(draft.kinds):
                raise ParseError(
                    f"joint index {value} out of range 1..{len(draft.kinds)}", tok.line, tok.col
                )
            indices.append(value)
        i, j = indices
        if i == j:
            raise ParseError("rel needs two different joints", tokens[1].line, tokens[1].col)
        draft.set_pair(i, j, _relation_cell(tokens[3]))

    def _stmt_platform(self, tokens: list[_Token]) -> None:
        self._finish_open_block()
        if len(tokens) < 2:
            raise ParseError(
                "expected 'platform moving:' or 'platform fixed:'", tokens[0].line, tokens[0].col
            )
        rest = self._require_colon(tokens, 1)
        side_tok = tokens[1]
        try:
            side = PlatformSide(side_tok.text)
        except ValueError:
            raise ParseError(
                f"platform side must be 'moving' or 'fixed', got {side_tok.text!r}",
                side_tok.line,
                side_tok.col,
            ) from None
        if rest:
            raise ParseError("platform rows start on the next line", rest[0].line, rest[0].col)
        if side in self.platforms:
            raise ParseError(
                f"duplicate platform {side.value} block", tokens[0].line, tokens[0].col
            )
        if not self.legs:
            raise ParseError(
                "platform blocks must come after the legs", tokens[0].line, tokens[0].col
            )
        self.draft = _Draft(tokens[0], side=side)

    # -- driver -------------------------------------------------------------

    def parse(self) -> MechanismTopology:
        statements = {
            "mechanism": self._stmt_mechanism,
            "leg": self._stmt_leg,
            "rel": self._stmt_rel,
            "platform": self._stmt_platform,
        }
        for row in self._content_lines():
            head = row.words[0].split(":")[0]
            if self.name is None and head != "mechanism":
                tok = row.token(0)
                raise ParseError("a mechanism file starts with 'mechanism NAME'", tok.line, tok.col)
            statement = statements.get(head)
            if statement is not None:
                statement(row.tokens())
            elif self.draft is not None:
                if self.draft.kinds and not self.draft.rows:
                    tok = row.token(0)
                    raise ParseError(
                        f"unexpected {tok.text!r} after an inline leg", tok.line, tok.col
                    )
                self.draft.rows.append(row)
            else:
                tok = row.token(0)
                raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        self._finish_open_block()
        if self.name is None:
            raise ParseError("a mechanism file starts with 'mechanism NAME'", self.last_line)
        for side in PlatformSide:
            if side not in self.platforms:
                raise ParseError(f"missing platform {side.value} block", self.last_line)
        mech = MechanismTopology(
            name=self.name,
            legs=tuple(self.legs),
            moving=self.platforms[PlatformSide.MOVING],
            fixed=self.platforms[PlatformSide.FIXED],
        )
        problems = validate_mechanism(mech)
        if problems:
            raise ParseError("; ".join(problems), self.name_token.line)
        return mech


def parse_mechanism_text(
    text: str, on_warning: Callable[[str], None] | None = None
) -> MechanismTopology:
    """Parse mechanism file text into a validated MechanismTopology."""
    return _Parser(text, on_warning).parse()


def parse_mechanism_file(
    path: str | Path, on_warning: Callable[[str], None] | None = None
) -> MechanismTopology:
    """Parse a mechanism file from disk."""
    return parse_mechanism_text(Path(path).read_text(encoding="utf-8"), on_warning)
