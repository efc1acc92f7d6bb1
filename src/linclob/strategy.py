"""Left's move choice: rule tables 1-7 and the improved "spiral" row.

Each rule states a row `(rule id, part, tokens)`: Left moves on `part` and
leaves pieces whose standard form is that of the shorthand `tokens`.
Choosing a row normalizes nothing.  `_row_clobbers` realizes a row on the
lone part, which is exact for the whole game: `normalize` merges part forms
and cancels p against -p, and the rest of a standard-form game is its own
form.  `rule_rows_unique` checks that lookup on every row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .core import (
    BLACK, Game, Move, apply_move, canonical, clobbers, expand_shorthand,
    legal_moves, part_token,
)
from .asf import normalize
from .taxonomy import classify_part, in_S0, in_left_target, in_shape, k_parts


class NotInScope(ValueError):
    """Game is outside the family the strategy is defined on."""


class StrategyGap(RuntimeError):
    """No rule produced a qualifying move; signals a verification failure."""


class Ruleset(Enum):
    BASIC = "basic"
    IMPROVED = "improved"


@dataclass(frozen=True)
class StrategyMove:
    rule_id: str
    move: Move
    result: Game  # normalized position after the move


# (rule id, canonical part Left moves on, shorthand tokens of its pieces)
Row = tuple[str, str, tuple[str, ...]]


@lru_cache(maxsize=None)
def _game(*tokens: str) -> Game:
    return Game.of(expand_shorthand(t) for t in tokens)


def _part(token: str) -> str:
    return canonical(expand_shorthand(token))


@lru_cache(maxsize=None)
def _row_clobbers(part: str, tokens: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """The Left clobbers (from, to) on the lone `part` whose pieces normalize
    to the standard form of `tokens`, in `clobbers(part)` scan order."""
    target = normalize(_game(*tokens))
    return tuple(c for c, pieces in clobbers(part).items()
                 if part[c[0] - 1] == BLACK and normalize(Game(pieces)) == target)


def _realize(g: Game, rule_id: str, part: str,
             tokens: tuple[str, ...]) -> StrategyMove:
    """The row's first clobber, played on the first copy of `part` in g."""
    hits = _row_clobbers(part, tokens)
    if not hits:
        raise StrategyGap(f"rule {rule_id}: no Left move on {part} reaches "
                          f"{' + '.join(tokens) or '0'}")
    move = Move(g.parts.index(part), *hits[0])
    return StrategyMove(rule_id, move, normalize(apply_move(g, move)))


def _contains(g: Game, sub: Game) -> bool:
    have = Counter(g.parts)
    return all(have[p] >= n for p, n in Counter(sub.parts).items())


def _smallest(parts: tuple[str, ...], flag: str) -> str | None:
    hits = [p for p in parts if flag in classify_part(p)]
    return min(hits, key=lambda p: (len(p), p)) if hits else None


def _spiral_row(g: Game) -> Row | None:
    """The improved ruleset's row on a(2j) + oo(2k): a(2j) -> o(m) + xx(2k)
    with m = 2(j-k)-1, whose xx(2k) cancels oo(2k) and leaves o(m) alone."""
    if len(g.parts) != 2:
        return None
    a = next((p for p in g.parts if in_shape(p, "A")), None)
    oo = next((p for p in g.parts if in_shape(p, "oO")), None)
    if a is None or oo is None or a == oo:
        return None
    j, k = len(a) // 2, len(oo) // 2
    m = 2 * (j - k) - 1
    # The residual must be a legal O' member: o9 reduces to xxo + a2, which
    # Right answers to ox + ox = 0, so it may never be left for Right.
    if j < k + 3 or m == 9:
        return None
    return "spiral", a, (f"o{m}", f"xx{2 * k}")


def choose_left_move(g: Game, ruleset: Ruleset = Ruleset.BASIC) -> StrategyMove:
    """The move mandated by the first applicable rule (order 1a..7b).

    `g` must be in standard form (`asf.normalize`); the returned move's
    `part_index` indexes `g.parts`.  If the mandated result falls outside
    S1 ∪ S2 ∪ LL ∪ {0} but some Left move does land there, that move is
    taken instead (rule id suffixed with "-fallback").  When no in-target
    move exists the mandated move stands; the bounded theorem checks surface
    such games.
    """
    if not g.parts:
        raise NotInScope("no moves on the empty game")
    row = _spiral_row(g) if ruleset is Ruleset.IMPROVED else None
    chosen = _realize(g, *(row or _rule_row(g)))
    if in_left_target(chosen.result):
        return chosen
    for m in legal_moves(g, BLACK):
        result = normalize(apply_move(g, m))
        if in_left_target(result):
            return StrategyMove(chosen.rule_id + "-fallback", m, result)
    return chosen


_OO6, _A4, _A2, _OOX, _OO8, _XXO = (_part(t) for t in
                                    ("oo6", "a4", "a2", "oox", "oo8", "xxo"))

# Rows stated for one whole game; they take precedence over the rule order.
_WHOLE_GAME_ROWS: dict[tuple[str, ...], Row] = {
    _game("a8", "a2").parts: ("1a", _part("a8"), ("xxo", "a4")),
    _game("a10", "a4").parts: ("1b", _part("a10"), ("o5", "xx4")),
    _game("a18", "a4", "a2").parts: ("1c", _part("a18"), ("a14", "xxo")),
    _game("o5", "oox").parts: ("3a", _part("o5"), ("xxo",)),
    _game("oo10", "a2").parts: ("4a", _part("oo10"), ("o7", "a2")),
    _game("oo12", "a4").parts: ("4b", _part("oo12"), ("oo8", "xxo")),
}

# Rows on one fixed part, by rule id.
_FIXED_ROWS: dict[str, Row] = {
    rule_id: (rule_id, _part(token), tokens) for rule_id, (token, tokens) in {
        "3b": ("oox", ("a2",)), "3c": ("a4", ("xxo",)), "3d": ("oox", ("a2",)),
        "4c": ("oo10", ("o5",)), "4d": ("oo12", ("o7",)),
        "4e": ("oo14", ("o11", "a2")), "4f": ("oo16", ("o11",)),
        "4g": ("oo18", ("o13",)), "4h": ("oo20", ("o17", "a2")),
        "5a": ("oo6", ("xxo",)), "5b": ("oo6", ("xxo",)),
        "5c": ("oo6", ("ooxo",)), "5d": ("oo6", ("xxo",)),
        "5e": ("oo6", ("ooxo",)), "5f": ("oo6", ("ooxo",)),
        "5g": ("a4", ("a2",)), "5h": ("oo6", ("xxo",)), "5i": ("a4", ("xxo",)),
        "5j": ("a2", ()),
        "6b": ("o11", ("o7", "xxo")), "6c": ("o7", ("o5",)),
        "6d": ("o5", ("xxo",)),
        "7a": ("oo8", ("ooxo", "xxo")), "7b": ("xxo", ()),
    }.items()
}

# Rule 5 in order: the copies of oo6, a4 and a2 each row needs.
_RULE_5_NEEDS = {"5a": (2, 1, 0), "5b": (2, 0, 1), "5c": (2, 0, 0),
                 "5d": (1, 1, 1), "5e": (1, 1, 0), "5f": (1, 0, 1),
                 "5g": (0, 1, 1), "5h": (1, 0, 0), "5i": (0, 1, 0),
                 "5j": (0, 0, 1)}


def _rule_row(g: Game) -> Row:
    """The row of the first applicable rule (order 1a..7b)."""
    row = _WHOLE_GAME_ROWS.get(g.parts)
    if row is not None:
        return row
    cnt = Counter(g.parts)

    # Rule 1: A' non-empty.
    p = _smallest(g.parts, "Aprime")
    if p is not None:
        return "1d", p, (f"o{len(p) - 3}",)

    # Rule 2: oA' non-empty.
    p = _smallest(g.parts, "oAprime")
    if p is not None:
        return "2", p, (f"oo{len(p) - 3}",)

    # Rule 3: oOo' non-empty.
    p = _smallest(g.parts, "oOoprime")
    if p is not None:
        if _contains(g, _game("o5", "a4", "a2", "oox")):
            return _FIXED_ROWS["3b"]
        if _contains(g, _game("a4", "oox")):
            return _FIXED_ROWS["3c"]
        if cnt[_OOX]:
            return _FIXED_ROWS["3d"]
        return "3e", p, (f"oo{len(p) - 5}",)

    # Rule 4: oO' non-empty.
    p = _smallest(g.parts, "oOprime")
    if p is not None:
        rule_id = {10: "4c", 12: "4d", 14: "4e", 16: "4f", 18: "4g",
                   20: "4h"}.get(len(p))
        return _FIXED_ROWS[rule_id] if rule_id else ("4i", p, (f"o{len(p) - 5}",))

    # Rule 5: I non-empty.
    have = (cnt[_OO6], cnt[_A4], cnt[_A2])
    for rule_id, needs in _RULE_5_NEEDS.items():
        if all(h >= n for h, n in zip(have, needs)):
            return _FIXED_ROWS[rule_id]

    # Rule 6: O' moves.
    opr = [p for p in g.parts if "Oprime" in classify_part(p)]
    if opr:
        big = [p for p in opr if len(p) >= 13]
        if big:
            p = min(big, key=lambda q: (len(q), q))
            return "6a", p, (f"o{len(p) - 2}",)
        lengths = {len(p) for p in opr}
        return _FIXED_ROWS["6b" if 11 in lengths else "6c" if 7 in lengths
                           else "6d"]

    # Rule 7.
    if cnt[_OO8]:
        return _FIXED_ROWS["7a"]
    if cnt[_XXO]:
        return _FIXED_ROWS["7b"]

    if in_S0(g):
        raise StrategyGap(f"no rule matches S0 game {g}")
    raise NotInScope(f"{g} is outside the strategy's scope")


def rule_rows_unique(max_stones: int = 30) -> list[str]:
    """Self-test of the whole table: each row's result is reached from its
    lone part by exactly one position.  Checks the whole-game and fixed rows,
    the row chosen on each lone K part and the spiral rows on a-parts of at
    most `max_stones` stones.  Returns offending rows."""
    cases = list(_WHOLE_GAME_ROWS.values())
    cases += _FIXED_ROWS.values()
    cases += [_rule_row(Game((p,))) for p in k_parts(max_stones)]
    for a in range(4, max_stones + 1, 2):
        for oo in range(4, a, 2):
            row = _spiral_row(_game(f"a{a}", f"oo{oo}"))
            if row is not None:
                cases.append(row)
    return ambiguous_rows(cases)


def ambiguous_rows(cases: Iterable[tuple[str, str, Iterable[str]]]) -> list[str]:
    """The `rule_id:part->tokens` of each (rule id, part, result tokens) row
    whose result is reached from the lone part (a token or a stone string) by
    no Left move, or by moves to more than one position before
    normalization."""
    bad: list[str] = []
    for rule_id, token, tokens in cases:
        part, tokens = _part(token), tuple(tokens)
        table = clobbers(part)
        if len({table[c] for c in _row_clobbers(part, tokens)}) != 1:
            bad.append(f"{rule_id}:{part_token(part)}->{'+'.join(tokens) or '0'}")
    return bad
