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

The parser makes one pass over the lines and splits each once into
whitespace-separated words.  A first word is read up to any ``:`` and
looked up as a statement (``mechanism``, ``leg``, ``rel``, ``platform``) only
when it starts with one of their first letters, ``m``, ``l``, ``r`` or ``p``,
which no matrix cell does; any other line goes, as its word list, to the
open block, which is decoded at once when it closes.  An error names
word k of its line, and only then is that word's column found, from the
same split words: each word starts at the first match of its text after
the end of the word before it.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import Callable

from .topology import (
    MAX_LEG_JOINTS,
    MAX_LEGS,
    MIN_LEGS,
    JointKind,
    LegTopology,
    MechanismTopology,
    PlatformRelations,
    PlatformSide,
    RelationCode,
    _LEG_END,
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


def _relation_code(word: str) -> RelationCode:
    """The relation a symbol or code spells; ValueError says why not."""
    if word in _RELATION_CELLS:
        return _RELATION_CELLS[word]
    try:
        value = int(word)
    except ValueError:
        raise ValueError(f"{word!r} is not a relation") from None
    if not 0 <= value <= 5:
        raise ValueError(f"{value} is not a relation code (0..5)")
    return RelationCode(value)


def _kind_code(word: str) -> JointKind:
    """The joint kind a code spells; ValueError says why not."""
    try:
        value = int(word)
    except ValueError:
        raise ValueError(f"{word!r} is not a joint kind") from None
    if value in (8, 9):
        return JointKind.from_code(value)
    raise ValueError(f"diagonal entry {value} is not a joint code (8, 9, R or P)")


# the usual spellings of a matrix cell; any other goes through
# _relation_code or _kind_code, which accept what int() accepts
_RELATION_CELLS = {**RELATION_SYMBOLS, **{str(code.value): code for code in RelationCode}}
_RELATION_SPELLINGS = frozenset(_RELATION_CELLS)
_KIND_CELLS = {
    "R": JointKind.REVOLUTE,
    "P": JointKind.PRISMATIC,
    "8": JointKind.REVOLUTE,
    "9": JointKind.PRISMATIC,
}
# each side word: its PlatformSide, the index of the leg joint its diagonal
# names, and the verb that says which end of the leg that joint is
_SIDES = {side.value: (side, *_LEG_END[side]) for side in PlatformSide}
_NO_MECHANISM = "a mechanism file starts with 'mechanism NAME'"
_Matrix = tuple[tuple[RelationCode, ...], ...]


class _JointString:
    """A joint-string leg, from its header on line ``line``: its joint kinds
    and the pair relations its header and ``rel`` lines state."""

    __slots__ = ("line", "label", "kinds", "pairs")

    def __init__(self, line: int, label: int):
        self.line = line
        self.label = label
        self.kinds: list[JointKind] = []
        self.pairs: dict[tuple[int, int], RelationCode] = {}

    def build(self, on_warning: Callable[[str], None]) -> LegTopology:
        """The leg, warning about pairs no line relates."""
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
        return LegTopology(
            label=self.label, joints=tuple(self.kinds), relations=tuple(map(tuple, rels))
        )


class _Parser:
    def __init__(self, text: str, on_warning: Callable[[str], None] | None):
        # lines break at \r\n, \r and \n only, as editors count them;
        # str.splitlines would also break at form feeds and the like
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.lines = text.split("\n")
        if not self.lines[-1]:
            self.lines.pop()
        self.on_warning = on_warning or (lambda message: None)
        self.name: str | None = None
        self.name_line = 0
        self.legs: list[LegTopology] = []
        self.platforms: dict[str, PlatformRelations] = {}
        # the open block: a joint-string leg, or the rows of a matrix leg or
        # a platform with its (header line, leg label, side word or None)
        self.joint_string: _JointString | None = None
        self.rows: list[list[str]] | None = None
        self.block: tuple[int, int, str | None] = (0, 0, None)
        self.last_line = max(len(self.lines), 1)

    def _column(self, number: int, k: int = 0) -> int:
        """The column of word k of line ``number``; only errors ask.

        Word k of ``raw.split()`` is the first match of its text after the
        end of word k - 1, since only whitespace lies between them.
        """
        raw = self.lines[number - 1]
        end = 0
        for word in raw.split()[: k + 1]:
            start = raw.index(word, end)
            end = start + len(word)
        return start + 1

    def _error(self, message: str, number: int, k: int = 0) -> ParseError:
        """An error at word k of line ``number``."""
        return ParseError(message, number, self._column(number, k))

    def _cell(self, decode: Callable[[str], object], word: str, number: int, k: int):
        """decode(word), word k of line ``number``, its ValueError located there."""
        try:
            return decode(word)
        except ValueError as e:
            raise self._error(str(e), number, k) from None

    def _row_line(self, header: int, i: int) -> int:
        """The line of row i of the block headed on line ``header``: its i-th
        content line after the header.  Only errors ask."""
        content = (
            number
            for number, raw in enumerate(self.lines[header:], start=header + 1)
            if (words := raw.split()) and words[0][0] != "#"
        )
        return next(islice(content, i, None))

    # -- block completion ---------------------------------------------------

    def _close_block(self) -> None:
        """Build the open block, if any, into a leg or a platform.  A block of
        rows is decoded at once by the usual spellings; only one that is not
        square or has a cell spelled unlike its mirror is walked row by row,
        and only that or another spelling goes cell by cell (_decode_cells)."""
        rows, self.rows = self.rows, None
        if rows is None:
            draft, self.joint_string = self.joint_string, None
            if draft is not None:
                self.legs.append(draft.build(self.on_warning))
            return
        header, label, word = self.block
        size = len(rows)
        if not size:
            if word is None:
                raise self._error(f"leg {label} has no joints", header)
            raise self._error(f"platform {word} block has no rows", header)
        words = [*chain.from_iterable(rows)]
        # square, with every cell spelled as its mirror: one test
        mirrored = len(words) == size * size and words == [*chain.from_iterable(zip(*rows))]
        if not mirrored:
            for i, row in enumerate(rows):
                if len(row) != size:
                    message = f"matrix row has {len(row)} entries, expected {size}"
                    raise self._error(message, self._row_line(header, i))
        if word is None:
            if size > MAX_LEG_JOINTS:
                raise self._error(
                    f"leg {label} has {size} joints, maximum is {MAX_LEG_JOINTS}", header
                )
        elif size != len(self.legs):
            raise self._error(
                f"platform {word} matrix is {size}x{size} but there are {len(self.legs)} legs",
                header,
            )
        kinds = tuple(map(_KIND_CELLS.get, words[:: size + 1]))
        # the diagonal decodes as ARBITRARY; zip groups the cells in rows
        words[:: size + 1] = ["0"] * size
        rels = tuple(zip(*[map(_RELATION_CELLS.get, words)] * size))
        if not mirrored or None in kinds or not _RELATION_SPELLINGS.issuperset(words):
            kinds, rels = self._decode_cells(rows, header, word, kinds, rels)
        if word is None:
            self.legs.append(LegTopology(label=label, joints=kinds, relations=rels))
            return
        side, end, verb = _SIDES[word]
        for i, leg in enumerate(self.legs):
            if kinds[i] is not leg.joints[end]:
                raise self._error(
                    f"platform {word} diagonal {i + 1} is {kinds[i].value} "
                    f"but leg {leg.label} {verb} with {leg.joints[end].value}",
                    self._row_line(header, i),
                    i,
                )
        self.platforms[word] = PlatformRelations(side=side, diagonal=kinds, matrix=rels)

    def _decode_cells(
        self, rows: list[list[str]], header: int, side: str | None, kinds: tuple, rels: tuple
    ) -> tuple[tuple[JointKind, ...], _Matrix]:
        """The kinds and matrix of a square block from the usual spellings'
        decode: each cell left None is decoded alone, the diagonal first, then
        row by row, and the first bad cell raises; for a leg, so does the first
        cell below the diagonal unlike its mirror.  A platform then names the
        first pair above the diagonal that differs."""
        kinds = tuple(
            kind or self._cell(_kind_code, rows[i][i], self._row_line(header, i), i)
            for i, kind in enumerate(kinds)
        )
        matrix = [list(row) for row in rels]
        for i, row in enumerate(matrix):
            for j, code in enumerate(row):
                if code is None:
                    code = row[j] = self._cell(
                        _relation_code, rows[i][j], self._row_line(header, i), j
                    )
                if side is None and j < i and code is not matrix[j][i]:
                    raise self._error(
                        f"entry ({i + 1},{j + 1}) = {SYMBOL_OF_RELATION[code]} conflicts "
                        f"with ({j + 1},{i + 1}) = {SYMBOL_OF_RELATION[matrix[j][i]]}",
                        self._row_line(header, i),
                        j,
                    )
        for i, row in enumerate(matrix):
            for j in range(i + 1, len(row)):
                if row[j] is not matrix[j][i]:
                    raise self._error(
                        f"platform entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ",
                        self._row_line(header, i),
                        j,
                    )
        return kinds, tuple(map(tuple, matrix))

    # -- statements ---------------------------------------------------------

    def _split_colon(self, words: list[str], number: int) -> tuple[str, int]:
        """words[1] without the ':' that must end it or follow it, and the
        index of the first word after the colon."""
        word = words[1]
        if word.endswith(":"):
            return word[:-1], 2
        if len(words) > 2 and words[2] == ":":
            return word, 3
        raise ParseError("expected ':'", number, self._column(number, 1) + len(word))

    def _stmt_mechanism(self, words: list[str], number: int) -> None:
        if self.name is not None:
            raise self._error("duplicate mechanism line", number)
        if len(words) < 2:
            raise self._error("mechanism needs a name", number)
        self.name = " ".join(words[1:])
        self.name_line = number

    def _stmt_leg(self, words: list[str], number: int) -> None:
        self._close_block()
        if len(words) < 2:
            raise self._error("leg needs a number", number)
        head, rest = self._split_colon(words, number)
        try:
            label = int(head)
        except ValueError:
            raise self._error(f"{head!r} is not a leg number", number, 1) from None
        expected = len(self.legs) + 1
        if label != expected:
            raise self._error(
                f"leg numbers must run 1, 2, ... in order; expected {expected}, got {label}",
                number,
                1,
            )
        if rest < len(words):
            self.joint_string = _JointString(number, label)
            self._parse_joint_string(self.joint_string, words, rest)
        else:
            self.rows, self.block = [], (number, label, None)

    def _parse_joint_string(self, draft: _JointString, words: list[str], start: int) -> None:
        """Joint letters at even offsets from start, pair symbols between."""
        for k in range(start, len(words)):
            word, m = words[k], (k - start) // 2 + 1
            if (k - start) % 2 == 0:
                if word not in ("R", "P"):
                    raise self._error(
                        f"expected a joint letter (R or P), got {word!r}", draft.line, k
                    )
                draft.kinds.append(_KIND_CELLS[word])
            elif word in RELATION_SYMBOLS:
                draft.pairs[m, m + 1] = RELATION_SYMBOLS[word]
            else:
                raise self._error(
                    f"expected a relation symbol between joints, got {word!r}", draft.line, k
                )
        if (len(words) - start) % 2 == 0:
            raise self._error("joint string ends with a relation", draft.line, len(words) - 1)
        if len(draft.kinds) > MAX_LEG_JOINTS:
            raise self._error(
                f"leg {draft.label} has {len(draft.kinds)} joints, maximum is {MAX_LEG_JOINTS}",
                draft.line,
            )

    def _stmt_rel(self, words: list[str], number: int) -> None:
        draft = self.joint_string
        if draft is None:
            raise self._error("rel lines must follow a joint-string leg header", number)
        if len(words) != 4:
            raise self._error("expected: rel I J SYMBOL", number)
        indices = []
        for k in (1, 2):
            try:
                value = int(words[k])
            except ValueError:
                raise self._error(f"{words[k]!r} is not a joint index", number, k) from None
            if not 1 <= value <= len(draft.kinds):
                raise self._error(
                    f"joint index {value} out of range 1..{len(draft.kinds)}", number, k
                )
            indices.append(value)
        i, j = indices
        if i == j:
            raise self._error("rel needs two different joints", number, 1)
        draft.pairs[min(i, j), max(i, j)] = self._cell(_relation_code, words[3], number, 3)

    def _stmt_platform(self, words: list[str], number: int) -> None:
        self._close_block()
        if len(words) < 2:
            raise self._error("expected 'platform moving:' or 'platform fixed:'", number)
        head, rest = self._split_colon(words, number)
        if head not in _SIDES:
            raise self._error(f"platform side must be 'moving' or 'fixed', got {head!r}", number, 1)
        if rest < len(words):
            raise self._error("platform rows start on the next line", number, rest)
        if head in self.platforms:
            raise self._error(f"duplicate platform {head} block", number)
        if not self.legs:
            raise self._error("platform blocks must come after the legs", number)
        self.rows, self.block = [], (number, 0, head)

    # the statement of each first word, read up to any ':'
    _STATEMENTS = {
        "mechanism": _stmt_mechanism,
        "leg": _stmt_leg,
        "rel": _stmt_rel,
        "platform": _stmt_platform,
    }
    # their first letters, which no matrix cell has: a line whose first
    # word starts otherwise is a row of the open block
    _LEADS = frozenset(word[0] for word in _STATEMENTS)

    # -- driver -------------------------------------------------------------

    def parse(self) -> MechanismTopology:
        statements = self._STATEMENTS
        leads = self._LEADS
        rows = None
        for number, raw in enumerate(self.lines, start=1):
            words = raw.split()
            if not words or (lead := words[0][0]) == "#":
                continue
            if lead in leads:
                head, _, glued = words[0].partition(":")
                statement = statements.get(head)
                if statement is not None:
                    if self.name is None and head != "mechanism":
                        raise self._error(_NO_MECHANISM, number)
                    if glued:
                        col = self._column(number) + len(head) + 1
                        raise ParseError(f"unexpected {glued!r} after '{head}:'", number, col)
                    statement(self, words, number)
                    rows = self.rows
                    continue
            if rows is None:
                if self.joint_string is not None:
                    message = f"unexpected {words[0]!r} after an inline leg"
                else:
                    message = _NO_MECHANISM if self.name is None else f"unexpected {words[0]!r}"
                raise self._error(message, number)
            rows.append(words)
        self._close_block()
        if self.name is None:
            raise ParseError(_NO_MECHANISM, self.last_line)
        for word in _SIDES:
            if word not in self.platforms:
                raise ParseError(f"missing platform {word} block", self.last_line)
        mech = MechanismTopology(
            name=self.name,
            legs=tuple(self.legs),
            moving=self.platforms["moving"],
            fixed=self.platforms["fixed"],
        )
        # the blocks checked the labels, sizes and diagonals as they closed:
        # only the leg count, or a leg after a platform block, is left over
        k = len(self.legs)
        if not MIN_LEGS <= k <= MAX_LEGS or mech.moving.size != k or mech.fixed.size != k:
            raise ParseError("; ".join(validate_mechanism(mech)), self.name_line)
        return mech


def parse_mechanism_text(
    text: str, on_warning: Callable[[str], None] | None = None
) -> MechanismTopology:
    """Parse mechanism file text into a validated MechanismTopology.

    The mechanism-level rules of validate_mechanism are checked where the
    text states them.  One leading byte-order mark (U+FEFF) is dropped."""
    return _Parser(text.removeprefix("\ufeff"), on_warning).parse()


def parse_mechanism_file(
    path: str | Path, on_warning: Callable[[str], None] | None = None
) -> MechanismTopology:
    """Parse a mechanism file from disk."""
    return parse_mechanism_text(Path(path).read_text(encoding="utf-8"), on_warning)
