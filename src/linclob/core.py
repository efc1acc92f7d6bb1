"""Board representation and move mechanics for linear clobber.

A position is a multiset of *parts* (connected runs of stones on a path).
Black stones print as ``x``, white as ``o``.  Empty cells are never stored:
a clobber move splits its part immediately, and any monochromatic piece is
dropped because it allows no move (it is the zero game).

`clobbers` states the move rule once, as one cached table per part.
`legal_moves` copies each part's prebuilt `Move`s out of a second cache,
keyed by the part's index as well, since a `Move` names its part by index.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

BLACK = "x"
WHITE = "o"

class ParseError(ValueError):
    """Input does not match the position grammar."""


class EmptyPosition(ParseError):
    """Position text contains no stones at all."""


class BudgetExceeded(RuntimeError):
    """Position is larger than the configured solving budget."""


class IllegalMove(ValueError):
    """Move is not legal on the given game."""


def opponent(color: str) -> str:
    return WHITE if color == BLACK else BLACK


_FLIP = str.maketrans("ox", "xo")


def flip(stones: str) -> str:
    """Swap the color of every stone."""
    return stones.translate(_FLIP)


def canonical(stones: str) -> str:
    """Canonical orientation: lexicographic min of a string and its reversal."""
    rev = stones[::-1]
    return stones if stones <= rev else rev


def is_monochromatic(stones: str) -> bool:
    return len(set(stones)) < 2


def alternating(n: int, start: str) -> str:
    """Alternating-color path of n stones beginning with `start`."""
    return (start + opponent(start)) * (n // 2) + start * (n % 2)


@dataclass(frozen=True, order=True)
class Move:
    """One clobber: the stone at `from_index` takes the stone at `to_index`.

    Indices are 1-based cells within the part at `part_index` (an index
    into the game's sorted part tuple).
    """

    part_index: int
    from_index: int
    to_index: int


@dataclass(frozen=True)
class Game:
    """A multiset of canonically oriented parts, stored sorted.

    Two games are the same position iff their part tuples are equal.
    """

    parts: tuple[str, ...] = ()

    @staticmethod
    def of(parts: Iterable[str]) -> "Game":
        kept = sorted(canonical(p) for p in parts if p and not is_monochromatic(p))
        return Game(tuple(kept))

    def stones(self) -> int:
        return sum(len(p) for p in self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __str__(self) -> str:
        return format_game(self)


@lru_cache(maxsize=None)
def negative(part: str) -> str:
    """The part's negative: every stone's color flipped, canonically oriented."""
    return canonical(flip(part))


def negate(g: Game) -> Game:
    """Color-flip every stone; the negative of the game."""
    return Game(tuple(sorted(map(negative, g.parts))))


def add(*games: Game) -> Game:
    """Sum of games: the combined multiset of parts."""
    parts: list[str] = []
    for g in games:
        parts.extend(g.parts)
    return Game.of(parts)


@lru_cache(maxsize=None)
def clobbers(part: str) -> Mapping[tuple[int, int], tuple[str, ...]]:
    """The one statement of the move rule: every clobber on a lone part.

    Maps (from, to), the 1-based cells of a stone and of the adjacent stone of
    the other color that it takes, in scan order, to the canonical
    non-monochromatic pieces left when the vacated cell splits the part.
    """
    table = {}
    for f, c in enumerate(part):
        if f and part[f - 1] != c:
            table[f + 1, f] = _pieces(part[:f - 1] + c, part[f + 1:])
        if f + 1 < len(part) and part[f + 1] != c:
            table[f + 1, f + 2] = _pieces(part[:f], c + part[f + 2:])
    return MappingProxyType(table)


def _pieces(left: str, right: str) -> tuple[str, ...]:
    """The canonical non-monochromatic pieces among `left` and `right`, sorted."""
    kept = []
    for s in (left, right):
        if "o" in s and "x" in s:
            r = s[::-1]
            kept.append(s if s <= r else r)
    kept.sort()
    return tuple(kept)


@lru_cache(maxsize=None)
def _part_moves(index: int, part: str, player: str) -> tuple[Move, ...]:
    """The player's moves on `part` at `index` of a game's part tuple, in
    scan order; the index is in the key because a `Move` names its part."""
    return tuple(Move(index, f, t) for f, t in clobbers(part)
                 if part[f - 1] == player)


def legal_moves(g: Game, player: str) -> list[Move]:
    """All moves for `player`, in deterministic (part, from, to) order, in a
    fresh list of each part's cached moves."""
    moves: list[Move] = []
    for i, part in enumerate(g.parts):
        moves += _part_moves(i, part, player)
    return moves


def apply_move(g: Game, m: Move) -> Game:
    """Apply a clobber; the part splits at the vacated cell.

    The untouched parts are already canonical and sorted, so only the
    clobber's stored pieces are inserted in order.
    """
    part = g.parts[m.part_index] if 0 <= m.part_index < len(g.parts) else ""
    pieces = clobbers(part).get((m.from_index, m.to_index))
    if pieces is None:
        raise IllegalMove(f"{m} is not a clobber on {format_game(g)}")
    parts = list(g.parts)
    del parts[m.part_index]
    for piece in pieces:
        insort(parts, piece)
    return Game(tuple(parts))


# ---------------------------------------------------------------------------
# Notation


# Shape families: name -> (token forms, parity of k, least k).  A member is
# its token's head colour (twice for a doubled head), an alternating run from
# that colour, then the tail's colour.  The families are disjoint.  A and oAx
# are their own flipped reversal; oAx writes the reversal as xx{}oo.
SHAPE_FAMILIES: dict[str, tuple[tuple[str, ...], int, int]] = {
    "A": (("a{}",), 0, 2),
    "O": (("o{}",), 1, 1),
    "X": (("x{}",), 1, 1),
    "oA": (("oo{}",), 1, 3),
    "Ax": (("xx{}",), 1, 3),
    "oO": (("oo{}",), 0, 4),
    "xX": (("xx{}",), 0, 4),
    "oOo": (("oo{}oo",), 1, 5),
    "xXx": (("xx{}xx",), 1, 5),
    "oAx": (("oo{}xx", "xx{}oo"), 0, 4),
}

# (head, tail, parity of k) -> (family, least k, whether the form is reversed)
_FORMS = {(*form.split("{}"), parity): (name, least, i > 0)
          for name, (forms, parity, least) in SHAPE_FAMILIES.items()
          for i, form in enumerate(forms)}
_TOKEN = re.compile(r"(a|o|x|oo|xx)([0-9]+)(oo|xx|)")


def shape_string(name: str, k: int) -> str | None:
    """The k-stone member of a shape family in the orientation of its first
    token form, or None if the family has no member of k stones."""
    forms, parity, least = SHAPE_FAMILIES[name]
    if k < least or k % 2 != parity:
        return None
    head, tail = forms[0].split("{}")
    extra, end = head[1:], tail[:1]
    body = alternating(k - len(extra) - len(end), "o" if head == "a" else head[0])
    return extra + body + end


def expand_shorthand(token: str, max_stones: int | None = None) -> str:
    """Expand a shorthand token (e.g. ``oo7`` or ``a4``) into a stone string.

    With `max_stones`, a token declaring more stones is rejected with
    BudgetExceeded before anything is built."""
    if token and set(token) <= {"o", "x"}:
        return token  # literal stone string (covers o, oo, xxo, oox, ...)
    shown = repr(token if len(token) <= 16 else token[:12] + "...")
    m = _TOKEN.fullmatch(token)
    if not m:
        raise ParseError(f"unrecognized shorthand token {shown}")
    head, digits, tail = m.groups()
    digits = digits.lstrip("0") or "0"
    if len(digits) > 12:  # a terabyte of stones: over any budget or memory
        raise BudgetExceeded(f"token {shown} declares a "
                             f"{len(digits)}-digit stone count")
    k = int(digits)
    name, least, reverse = _FORMS.get((head, tail, k % 2), (None, 0, False))
    if name is None or k < least:
        raise ParseError(f"token {shown}: no shape family writes {k} stones "
                         f"as {head}{{}}{tail}")
    # A one-stone part is monochromatic and dropped, so it never counts.
    if max_stones is not None and k > max(max_stones, 1):
        raise BudgetExceeded(
            f"token {shown} declares {k} stones; budget left is {max_stones}")
    s = shape_string(name, k)
    return s[::-1] if reverse else s


@lru_cache(maxsize=None)
def shape(part: str) -> tuple[str | None, str]:
    """The family that holds `part` in either orientation (None if none does)
    and the part's shortest notation; a reversed member takes its family's
    last token form (``xx{k}oo`` for oAx)."""
    for name, (forms, _, _) in SHAPE_FAMILIES.items():
        s = shape_string(name, len(part))
        if s is not None and part in (s, s[::-1]):
            token = (forms[0] if part == s else forms[-1]).format(len(part))
            return name, min(part, token, key=len)
    return None, part


def part_token(part: str) -> str:
    """Shortest notation for a part: a shorthand token or the raw string."""
    return shape(part)[1]


def parse_position(text: str, max_stones: int | None = None) -> Game:
    """Parse a stone string (``ox-oox``) or a ``+``-separated token list.

    With `max_stones`, a position of more stones raises BudgetExceeded, and a
    shorthand token that would take it past that many is refused before it
    is expanded."""
    text = text.strip()
    if not text:
        raise EmptyPosition("empty position")
    if set(text) <= set("ox-"):
        parts = [r for r in text.split("-") if r]
        if not parts:
            raise EmptyPosition(f"no stones in {text!r}")
    else:
        parts = []
        room = max_stones
        for token in text.split("+"):
            token = token.strip()
            if not token:
                raise ParseError(f"empty token in {text!r}")
            part = expand_shorthand(token, room)
            if room is not None and not is_monochromatic(part):
                room -= len(part)
            parts.append(part)
    g = Game.of(parts)
    if max_stones is not None and g.stones() > max_stones:
        raise BudgetExceeded(f"position has {g.stones()} stones; "
                             f"budget is {max_stones}")
    return g


def format_game(g: Game, style: str = "stones") -> str:
    """Render a game; `style` is ``stones`` or ``short``."""
    if style == "stones":
        return "-".join(g.parts) if g.parts else "-"
    if style == "short":
        return " + ".join(part_token(p) for p in g.parts) if g.parts else "0"
    raise ValueError(f"unknown format style {style!r}")
