"""Left's move choice: the rule table 1a..7b and the improved "spiral" row.

Each rule states a row `(rule id, part, form)`: Left moves on `part` and
leaves pieces whose standard form is `form`.  The table is data, stated
once in shorthand: `_WHOLE_GAME_TOKENS` holds the rows stated for one whole
game, looked up first, `_OO8_FAMILY_TOKENS` the rows stated for k >= 2
copies of oo8 plus a listed rest, looked up next, `_RULE_TOKENS` every
other rule in precedence order, so the first row that applies fixes the
move, and `_spiral_row` the improved ruleset's row.  One cached `_form`
resolves every row's tokens: the whole-game and oo8-family rows at import
(`_WHOLE_GAME_ROWS`, `_OO8_FAMILY_ROWS`), the others when a part is first
seen (`_part_rows`), the spiral's when it fires.  So `left_child` gets every
row resolved, and choosing a row normalizes nothing.
Left plays the first clobber of the form's entry in the part's Left move
table (`asf.part_successors`) on the first copy of the part.  The lone part
is exact for the whole game: `normalize` merges part forms and cancels p
against -p, and the rest of a standard-form game is its own form, so the
child is the form added to the rest of the game (`asf.add_form`).
`left_child` returns the rule id, that move and the child, and checks
nothing about the child: whether it lies in Left's target is
`verifier.check_theorem_left`'s question.  The typed entry point
`choose_left_move` first refuses a game outside S0 with NotInScope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import (
    BLACK, Game, Move, canonical, expand_shorthand, format_game, part_token, shape,
)
from .asf import Parts, add_form, normalize, part_successors
from .taxonomy import classify_part, in_S0


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


# (rule id, canonical part Left moves on, standard form of its pieces)
Row = tuple[str, str, Parts]


@lru_cache(maxsize=None)
def _form(*tokens: str) -> Parts:
    """The standard form of the sum of the shorthand `tokens`."""
    return normalize(Game.of(expand_shorthand(t) for t in tokens)).parts


@lru_cache(maxsize=None)
def _part(token: str) -> str:
    return canonical(expand_shorthand(token))


def _spiral_row(parts: Parts) -> Row | None:
    """The improved ruleset's row on a(2j) + oo(2k): a(2j) -> o(m) + xx(2k)
    with m = 2(j-k)-1, whose xx(2k) cancels oo(2k) and leaves o(m) alone."""
    if len(parts) != 2:
        return None
    family = {shape(p)[0]: p for p in parts}
    a, oo = family.get("A"), family.get("oO")
    if a is None or oo is None:
        return None
    j, k = len(a) // 2, len(oo) // 2
    m = 2 * (j - k) - 1
    # The residual must be a legal O' member: o9 reduces to xxo + a2, which
    # Right answers to ox + ox = 0, so it may never be left for Right.
    if j < k + 3 or m == 9:
        return None
    return "spiral", a, _form(f"o{m}", f"xx{2 * k}")


def left_child(parts: Parts, ruleset: Ruleset = Ruleset.BASIC
               ) -> tuple[str, tuple[int, int, int], Parts]:
    """The first applicable rule's id (order 1a..7b), its move (part index,
    from, to) on the standard-form `parts` and the standard form of the move's
    child.  A game that no row matches, or a row whose form its part cannot
    reach, raises StrategyGap.  No scope check: no search node pays one."""
    row = _spiral_row(parts) if ruleset is Ruleset.IMPROVED else None
    rule_id, part, form = row or _rule_row(parts)
    hits = part_successors(part, BLACK).get(form)
    if hits is None:
        raise StrategyGap(f"rule {rule_id}: no Left move on {part_token(part)} "
                          f"reaches {format_game(Game(form), 'short')}")
    i = parts.index(part)
    return rule_id, (i, *hits[0]), add_form(parts[:i] + parts[i + 1:], form)


def choose_left_move(g: Game, ruleset: Ruleset = Ruleset.BASIC) -> StrategyMove:
    """`left_child` on g, with its move as a `Move` and its child as a `Game`.
    The rule table is Left's strategy on S0 games only, so a game outside S0
    (the empty game among them) raises NotInScope."""
    if not in_S0(g):
        raise NotInScope(f"{format_game(g, 'short')} is outside the strategy's scope")
    rule_id, move, child = left_child(g.parts, ruleset)
    return StrategyMove(rule_id, Move(*move), Game(child))


# Rows stated for one whole game, in shorthand: the game's tokens, then the
# row's rule id, part and tokens.  They take precedence over the rule order.
_WHOLE_GAME_TOKENS = {
    ("a8", "a2"): ("1a", "a8", ("xxo", "a4")),
    ("a10", "a4"): ("1b", "a10", ("o5", "xx4")),
    ("a18", "a4", "a2"): ("1c", "a18", ("a14", "xxo")),
    ("o5", "oox"): ("3a", "o5", ("xxo",)),
    ("oo10", "a2"): ("4a", "oo10", ("o7", "a2")),
    ("oo12", "a4"): ("4b", "oo12", ("oo8", "xxo")),
}
_WHOLE_GAME_ROWS: dict[Parts, Row] = {_form(*game): (r, _part(p), _form(*t))
                                      for game, (r, p, t) in _WHOLE_GAME_TOKENS.items()}

# Rows stated for a family of whole games: k >= 2 copies of oo8 plus one
# listed rest and nothing else, in shorthand: the rest's tokens, then the
# row's rule id and tokens.  Left moves on the first oo8, and the a2 of its
# pieces cancels the rest's a2: the child is (k-1)·oo8 + o5 [+ a4], in S1.
# The table's own rows 5j and 5g would leave k·oo8, outside S1 ∪ S2 ∪ LL ∪
# {0}; the ids end in "-fallback" because these rows are not the paper's.
_OO8_FAMILY_TOKENS = {
    ("a2",): ("5j-fallback", ("o5", "a2")),
    ("a4", "a2"): ("5g-fallback", ("o5", "a2")),
}
_OO8 = _part("oo8")
_OO8_FAMILY_ROWS: dict[Parts, Row] = {_form(*rest): (r, _OO8, _form(*t))
                                      for rest, (r, t) in _OO8_FAMILY_TOKENS.items()}

# Every other rule, in precedence order: the first row that applies fixes
# Left's move.  A fixed row (rule id, parts g must hold, part, tokens)
# applies when g holds each listed part, counted with multiplicity.  A class
# row (rule id, class flag, least stones, token head, shift) applies when g
# has a part of that class with at least `least` stones; Left moves on the
# smallest such part p and leaves the form of f"{head}{len(p) + shift}".
# This order gives the precedence of the paper's rule-by-rule statement:
# - every row of 3b-3d needs oox, and oox is in oOo', so they apply only
#   where rule 3 does;
# - oO' starts at oo10, so the first of 4c-4h whose part is present is the
#   smallest oO' part;
# - 6a comes first, so 6b/6c/6d each pick the largest O' part below 13
#   stones.
_RULE_TOKENS = (
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
)


@lru_cache(maxsize=None)
def _part_rows(part: str) -> tuple[tuple[tuple[int, int, str], Row, tuple], ...]:
    """The rows of `_RULE_TOKENS` that can fire on `part`, in order, as (key,
    row, needs): a fixed row on its part, with its needs as (part, copies)
    pairs, a class row on a part of its class with `least` stones or more.
    The key is (row index, length, part)."""
    rows = []
    for i, row in enumerate(_RULE_TOKENS):
        if len(row) == 4:
            rule_id, needs, on, tokens = row
            if _part(on) != part:
                continue
            # one copy of `part` is then present
            needs = tuple(need for need in Counter(map(_part, needs)).items()
                          if need != (part, 1))
            form = _form(*tokens)
        else:
            rule_id, flag, least, head, shift = row
            if len(part) < least or flag not in classify_part(part):
                continue
            needs, form = (), _form(f"{head}{len(part) + shift}")
        rows.append(((i, len(part), part), (rule_id, part, form), needs))
    return tuple(rows)


def _rule_row(parts: Parts) -> Row:
    """The row of the first applicable rule (order 1a..7b): a whole-game row,
    else an oo8-family row, else of each distinct part's first row whose
    needs hold, the least key."""
    row = _WHOLE_GAME_ROWS.get(parts)
    if row is None and parts.count(_OO8) > 1:
        row = _OO8_FAMILY_ROWS.get(tuple(p for p in parts if p != _OO8))
    if row is not None:
        return row
    best = None
    for i, p in enumerate(parts):
        if i and p == parts[i - 1]:
            continue
        for key, row, needs in _part_rows(p):
            for q, n in needs:
                if parts.count(q) < n:
                    break
            else:
                if best is None or key < best[0]:
                    best = key, row
                break
    if best is None:
        raise StrategyGap(f"no rule matches {Game(parts)}")
    return best[1]

