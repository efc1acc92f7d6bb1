"""Left's move choice: the rule table 1a..7b and the improved "spiral" row.

Each rule states a row `(rule id, part, tokens)`: Left moves on `part` and
leaves pieces whose standard form is that of the shorthand `tokens`.  The
table is data, stated once: `_WHOLE_GAME_ROWS` holds the rows stated for one
whole game, looked up first, and `_RULE_ROWS` lists every other rule in
precedence order, so the first row that applies fixes the move.
Choosing a row normalizes nothing.  `_row_clobbers` realizes a row on the
lone part, from the part's table of Left clobbers and their pieces' standard
forms (`asf.part_successors`), which is exact for the whole game:
`normalize` merges part forms and cancels p against -p, and the rest of a
standard-form game is its own form.  So Left's result is the row's target
form added to the rest of the game (`asf.add_form`).  `ambiguous_rows`
checks that lookup on every row of `table_rows`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .core import (
    BLACK, Game, Move, canonical, clobbers, expand_shorthand, format_game,
    part_token,
)
from .asf import add_form, normalize, normalized_successors, part_successors
from .taxonomy import classify_part, in_S0, in_left_target, in_shape, k_parts


class NotInScope(ValueError):
    """Game is outside the family the strategy is defined on."""


def require_scope(g: Game) -> None:
    """Raise NotInScope unless g is an S0 game.  The entry points check once
    here; `choose_left_move` does not, so no search node pays for it."""
    if not in_S0(g):
        raise NotInScope(f"{format_game(g, 'short')} is outside the strategy's scope")


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
def _row_clobbers(part: str, tokens: tuple[str, ...]
                  ) -> tuple[tuple[tuple[int, int], ...], tuple[str, ...]]:
    """The Left clobbers (from, to) on the lone `part` whose pieces normalize
    to the standard form of `tokens`, in `clobbers(part)` scan order, and the
    parts of that standard form.  The pieces' forms are read off the part's
    table, `asf.part_successors`."""
    target = normalize(_game(*tokens)).parts
    hits = tuple((f, t) for f, t, form in part_successors(part, BLACK)
                 if form == target)
    return hits, target


def _realize(g: Game, rule_id: str, part: str,
             tokens: tuple[str, ...]) -> StrategyMove:
    """The row's first clobber, played on the first copy of `part` in g."""
    hits, target = _row_clobbers(part, tokens)
    if not hits:
        raise StrategyGap(f"rule {rule_id}: no Left move on {part} reaches "
                          f"{' + '.join(tokens) or '0'}")
    i = g.parts.index(part)
    rest = g.parts[:i] + g.parts[i + 1:]
    return StrategyMove(rule_id, Move(i, *hits[0]), Game(add_form(rest, target)))


def _spiral_row(g: Game) -> Row | None:
    """The improved ruleset's row on a(2j) + oo(2k): a(2j) -> o(m) + xx(2k)
    with m = 2(j-k)-1, whose xx(2k) cancels oo(2k) and leaves o(m) alone."""
    if len(g.parts) != 2:
        return None
    a = next((p for p in g.parts if in_shape(p, "A")), None)
    oo = next((p for p in g.parts if in_shape(p, "oO")), None)
    if a is None or oo is None:
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
    such games.  A game that no row matches raises StrategyGap.
    """
    if not g.parts:
        raise NotInScope("no moves on the empty game")
    row = _spiral_row(g) if ruleset is Ruleset.IMPROVED else None
    chosen = _realize(g, *(row or _rule_row(g)))
    if in_left_target(chosen.result):
        return chosen
    for m, child in normalized_successors(g, BLACK):
        result = Game(child)
        if in_left_target(result):
            return StrategyMove(chosen.rule_id + "-fallback", m, result)
    return chosen


# Rows stated for one whole game; they take precedence over the rule order.
_WHOLE_GAME_ROWS: dict[tuple[str, ...], Row] = {
    _game("a8", "a2").parts: ("1a", _part("a8"), ("xxo", "a4")),
    _game("a10", "a4").parts: ("1b", _part("a10"), ("o5", "xx4")),
    _game("a18", "a4", "a2").parts: ("1c", _part("a18"), ("a14", "xxo")),
    _game("o5", "oox").parts: ("3a", _part("o5"), ("xxo",)),
    _game("oo10", "a2").parts: ("4a", _part("oo10"), ("o7", "a2")),
    _game("oo12", "a4").parts: ("4b", _part("oo12"), ("oo8", "xxo")),
}

# Every other rule, in precedence order: the first row that applies fixes
# Left's move.  A fixed row (rule id, parts g must hold, part, tokens)
# applies when g holds each listed part, counted with multiplicity.  A class
# row (rule id, class flag, least stones, token head, shift) applies when g
# has a part of that class with at least `least` stones; Left moves on the
# smallest such part p and leaves the token f"{head}{len(p) + shift}".
# This order gives the precedence of the paper's rule-by-rule statement:
# - every row of 3b-3d needs oox, and oox is in oOo', so they apply only
#   where rule 3 does;
# - oO' starts at oo10, so the first of 4c-4h whose part is present is the
#   smallest oO' part;
# - 6a comes first, so 6b/6c/6d each pick the largest O' part below 13
#   stones.
# Fixed rows hold canonical parts and their needs as (part, copies) pairs.
_RULE_ROWS = tuple(
    (row[0], tuple(Counter(map(_part, row[1])).items()), _part(row[2]), row[3])
    if len(row) == 4 else row
    for row in (
        ("1d", "Aprime", 8, "o", -3),
        ("2", "oAprime", 7, "oo", -3),
        ("3b", ("o5", "a4", "a2", "oox"), "oox", ("a2",)),
        ("3c", ("a4", "oox"), "a4", ("xxo",)),
        ("3d", ("oox",), "oox", ("a2",)),
        ("3e", "oOoprime", 9, "oo", -5),
        ("4c", ("oo10",), "oo10", ("o5",)),
        ("4d", ("oo12",), "oo12", ("o7",)),
        ("4e", ("oo14",), "oo14", ("o11", "a2")),
        ("4f", ("oo16",), "oo16", ("o11",)),
        ("4g", ("oo18",), "oo18", ("o13",)),
        ("4h", ("oo20",), "oo20", ("o17", "a2")),
        ("4i", "oOprime", 22, "o", -5),
        ("5a", ("oo6", "oo6", "a4"), "oo6", ("xxo",)),
        ("5b", ("oo6", "oo6", "a2"), "oo6", ("xxo",)),
        ("5c", ("oo6", "oo6"), "oo6", ("ooxo",)),
        ("5d", ("oo6", "a4", "a2"), "oo6", ("xxo",)),
        ("5e", ("oo6", "a4"), "oo6", ("ooxo",)),
        ("5f", ("oo6", "a2"), "oo6", ("ooxo",)),
        ("5g", ("a4", "a2"), "a4", ("a2",)),
        ("5h", ("oo6",), "oo6", ("xxo",)),
        ("5i", ("a4",), "a4", ("xxo",)),
        ("5j", ("a2",), "a2", ()),
        ("6a", "Oprime", 13, "o", -2),
        ("6b", ("o11",), "o11", ("o7", "xxo")),
        ("6c", ("o7",), "o7", ("o5",)),
        ("6d", ("o5",), "o5", ("xxo",)),
        ("7a", ("oo8",), "oo8", ("ooxo", "xxo")),
        ("7b", ("xxo",), "xxo", ()),
    ))


def _rule_row(g: Game) -> Row:
    """The row of the first applicable rule (order 1a..7b)."""
    row = _WHOLE_GAME_ROWS.get(g.parts)
    if row is not None:
        return row
    have = Counter(g.parts)
    for row in _RULE_ROWS:
        if len(row) == 4:
            rule_id, needs, part, tokens = row
            if part in have and all(have[p] >= n for p, n in needs):
                return rule_id, part, tokens
        else:
            rule_id, flag, least, head, shift = row
            fits = [p for p in have if len(p) >= least and flag in classify_part(p)]
            if fits:
                p = min(fits, key=lambda q: (len(q), q))
                return rule_id, p, (f"{head}{len(p) + shift}",)
    raise StrategyGap(f"no rule matches {g}")


def table_rows(max_stones: int = 30) -> list[Row]:
    """The whole-game and fixed rows, the row chosen on each lone K part and
    the spiral rows on a-parts of at most `max_stones` stones."""
    cases = list(_WHOLE_GAME_ROWS.values())
    cases += [(r[0], r[2], r[3]) for r in _RULE_ROWS if len(r) == 4]
    cases += [_rule_row(Game((p,))) for p in k_parts(max_stones)]
    for a in range(4, max_stones + 1, 2):
        for oo in range(4, a, 2):
            row = _spiral_row(_game(f"a{a}", f"oo{oo}"))
            if row is not None:
                cases.append(row)
    return cases


def ambiguous_rows(cases: Iterable[tuple[str, str, Iterable[str]]]) -> list[str]:
    """The `rule_id:part->tokens` of each (rule id, part, result tokens) row
    whose result is reached from the lone part (a token or a stone string) by
    no Left move, or by moves to more than one position before
    normalization."""
    bad: list[str] = []
    for rule_id, token, tokens in cases:
        part, tokens = _part(token), tuple(tokens)
        table = clobbers(part)
        if len({table[c] for c in _row_clobbers(part, tokens)[0]}) != 1:
            bad.append(f"{rule_id}:{part_token(part)}->{'+'.join(tokens) or '0'}")
    return bad
