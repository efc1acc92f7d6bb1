"""Left's move choice: rule tables 1-7, the derived rule-2 move, and the
improved "spiral" override.

Rows that state post-reduction results rather than clobber indices are
realized by searching the Left moves on the indicated part for the one whose
normalized outcome matches the stated result (`rule_rows_unique` asserts
that search is unambiguous).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

from .core import (
    BLACK, Game, Move, alternating, apply_move, canonical, expand_shorthand,
    legal_moves,
)
from .asf import normalize
from .taxonomy import classify_part, in_Q, in_S0, in_left_target, in_shape


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


@lru_cache(maxsize=None)
def _game(*tokens: str) -> Game:
    return Game.of(expand_shorthand(t) for t in tokens)


def _contains(g: Game, sub: Game) -> bool:
    have = Counter(g.parts)
    return all(have[p] >= n for p, n in Counter(sub.parts).items())


def _replaced(g: Game, removed: Game, added: Game) -> Game:
    """Normalized result of swapping `removed` parts for `added` parts."""
    parts = list(g.parts)
    for p in removed.parts:
        parts.remove(p)
    return normalize(Game.of(parts + list(added.parts)))


def _left_moves(g: Game,
                on_part: str | None = None) -> Iterator[tuple[Move, Game]]:
    """Each Left move (optionally only those on a given part) with its
    normalized result."""
    for m in legal_moves(g, BLACK):
        if on_part is None or g.parts[m.part_index] == on_part:
            yield m, normalize(apply_move(g, m))


def _find_move(g: Game, expected: Game, rule_id: str,
               on_part: str | None = None) -> StrategyMove:
    """The first Left move (optionally on a given part) reaching `expected`."""
    for m, result in _left_moves(g, on_part):
        if result == expected:
            return StrategyMove(rule_id, m, result)
    raise StrategyGap(f"rule {rule_id}: no move on {g} reaches {expected}")


def _row(g: Game, rule_id: str, removed: Game, added: Game,
         on_part: str | None = None) -> StrategyMove:
    return _find_move(g, _replaced(g, removed, added), rule_id, on_part)


def _smallest(parts: tuple[str, ...], flag: str) -> str | None:
    hits = [p for p in parts if flag in classify_part(p)]
    return min(hits, key=lambda p: (len(p), p)) if hits else None


def improved_override(g: Game) -> StrategyMove | None:
    """Spiral shortcut on a(2j) + oo(2k): collapse to the single part
    o(2(j-k)-1) via a self-cancelling xx(2k)."""
    if len(g.parts) != 2:
        return None
    a = next((p for p in g.parts if in_shape(p, "A")), None)
    oo = next((p for p in g.parts if in_shape(p, "oO") and len(p) >= 4), None)
    if a is None or oo is None or a == oo:
        return None
    j, k = len(a) // 2, len(oo) // 2
    m = 2 * (j - k) - 1
    # The residual must be a legal O' member: o9 reduces to xxo + a2, which
    # Right answers to ox + ox = 0, so it may never be left for Right.
    if j < k + 3 or m == 9:
        return None
    residual = Game.of([alternating(m, "o")])
    if in_Q(residual):
        return None
    try:
        return _find_move(g, normalize(residual), "spiral", on_part=a)
    except StrategyGap:
        return None


_OO6, _A4, _A2, _OOX = (canonical(expand_shorthand(t))
                        for t in ("oo6", "a4", "a2", "oox"))


def choose_left_move(g: Game, ruleset: Ruleset = Ruleset.BASIC) -> StrategyMove:
    """The move mandated by the first applicable rule (order 1a..7b).

    If the mandated result falls outside S1 ∪ S2 ∪ LL ∪ {0} but some Left
    move does land there, that move is taken instead (rule id suffixed with
    "-fallback").  When no in-target move exists the mandated move stands;
    the bounded theorem checks surface such games.
    """
    g = normalize(g)
    if not g.parts:
        raise NotInScope("no moves on the empty game")
    if ruleset is Ruleset.IMPROVED:
        override = improved_override(g)
        if override is not None:
            return override
    chosen = _rule_move(g)
    if in_left_target(chosen.result):
        return chosen
    for m, result in _left_moves(g):
        if in_left_target(result):
            return StrategyMove(chosen.rule_id + "-fallback", m, result)
    return chosen


def _rule_move(g: Game) -> StrategyMove:
    one = Game.of  # single-part wrapper, for readability below
    cnt = Counter(g.parts)

    # Rule 1: A' non-empty.
    p = _smallest(g.parts, "Aprime")
    if p is not None:
        if g == _game("a8", "a2"):
            return _row(g, "1a", g, _game("xxo", "a4", "a2"))
        if g == _game("a10", "a4"):
            return _row(g, "1b", g, _game("o5", "xx4", "a4"))
        if g == _game("a18", "a4", "a2"):
            return _row(g, "1c", g, _game("a14", "xxo", "a4", "a2"))
        return _row(g, "1d", one([p]), _game(f"o{len(p) - 3}"), on_part=p)

    # Rule 2: oA' non-empty.
    p = _smallest(g.parts, "oAprime")
    if p is not None:
        return _row(g, "2", one([p]), _game(f"oo{len(p) - 3}"), on_part=p)

    # Rule 3: oOo' non-empty.
    p = _smallest(g.parts, "oOoprime")
    if p is not None:
        if g == _game("o5", "oox"):
            return _row(g, "3a", g, _game("xxo", "oox"), on_part=canonical("oxoxo"))
        if _contains(g, _game("o5", "a4", "a2", "oox")):
            return _row(g, "3b", one([_OOX]), _game("a2"), on_part=_OOX)
        if _contains(g, _game("a4", "oox")):
            return _row(g, "3c", one([_A4]), _game("xxo"), on_part=_A4)
        if cnt[_OOX]:
            return _row(g, "3d", one([_OOX]), _game("a2"), on_part=_OOX)
        return _row(g, "3e", one([p]), _game(f"oo{len(p) - 5}"), on_part=p)

    # Rule 4: oO' non-empty.
    p = _smallest(g.parts, "oOprime")
    if p is not None:
        if g == _game("oo10", "a2"):
            return _row(g, "4a", g, _game("o7", "a2", "a2"))
        if g == _game("oo12", "a4"):
            return _row(g, "4b", g, _game("oo8", "xxo", "a4"))
        results = {10: ("4c", ["o5"]), 12: ("4d", ["o7"]), 14: ("4e", ["o11", "a2"]),
                   16: ("4f", ["o11"]), 18: ("4g", ["o13"]), 20: ("4h", ["o17", "a2"])}
        rule_id, tokens = results.get(len(p), ("4i", [f"o{len(p) - 5}"]))
        return _row(g, rule_id, one([p]), _game(*tokens), on_part=p)

    # Rule 5: I non-empty.
    if cnt[_OO6] or cnt[_A4] or cnt[_A2]:
        if cnt[_OO6] >= 2 and cnt[_A4]:
            return _row(g, "5a", one([_OO6]), _game("xxo"), on_part=_OO6)
        if cnt[_OO6] >= 2 and cnt[_A2]:
            return _row(g, "5b", one([_OO6]), _game("xxo"), on_part=_OO6)
        if cnt[_OO6] >= 2:
            return _row(g, "5c", one([_OO6]), _game("ooxo"), on_part=_OO6)
        if cnt[_OO6] and cnt[_A4] and cnt[_A2]:
            return _row(g, "5d", one([_OO6]), _game("xxo"), on_part=_OO6)
        if cnt[_OO6] and cnt[_A4]:
            return _row(g, "5e", one([_OO6]), _game("ooxo"), on_part=_OO6)
        if cnt[_OO6] and cnt[_A2]:
            return _row(g, "5f", one([_OO6]), _game("ooxo"), on_part=_OO6)
        if cnt[_A4] and cnt[_A2]:
            return _row(g, "5g", one([_A4]), _game("a2"), on_part=_A4)
        if cnt[_OO6]:
            return _row(g, "5h", one([_OO6]), _game("xxo"), on_part=_OO6)
        if cnt[_A4]:
            return _row(g, "5i", one([_A4]), _game("xxo"), on_part=_A4)
        return _row(g, "5j", one([_A2]), Game(), on_part=_A2)

    # Rule 6: O' moves.
    opr = [p for p in g.parts if "Oprime" in classify_part(p)]
    if opr:
        big = [p for p in opr if len(p) >= 13]
        if big:
            p = min(big, key=lambda q: (len(q), q))
            return _row(g, "6a", one([p]), _game(f"o{len(p) - 2}"), on_part=p)
        by_len = {len(p): p for p in opr}
        if 11 in by_len:
            return _row(g, "6b", one([by_len[11]]), _game("o7", "xxo"),
                        on_part=by_len[11])
        if 7 in by_len:
            return _row(g, "6c", one([by_len[7]]), _game("o5"), on_part=by_len[7])
        return _row(g, "6d", one([by_len[5]]), _game("xxo"), on_part=by_len[5])

    # Rule 7.
    oo8 = canonical(expand_shorthand("oo8"))
    xxo = canonical("xxo")
    if cnt[oo8]:
        return _row(g, "7a", one([oo8]), _game("ooxo", "xxo"), on_part=oo8)
    if cnt[xxo]:
        return _row(g, "7b", one([xxo]), Game(), on_part=xxo)

    if in_S0(g):
        raise StrategyGap(f"no rule matches S0 game {g}")
    raise NotInScope(f"{g} is outside the strategy's scope")


def rule_rows_unique(max_stones: int = 30) -> list[str]:
    """Self-test: each parameterized single-part row has exactly one
    qualifying result among the moves on its part.  Returns offending rows."""
    bad: list[str] = []
    cases: list[tuple[str, str, list[str]]] = []
    for k in range(8, max_stones + 1, 2):
        if k not in (12,):
            cases.append(("1d", f"a{k}", [f"o{k - 3}"]))
    for k in range(7, max_stones + 1, 2):
        cases.append(("2", f"oo{k}", [f"oo{k - 3}"]))
    for k in range(9, max_stones + 1, 2):
        cases.append(("3e", f"oo{k}oo", [f"oo{k - 5}"]))
    for k in range(22, max_stones + 1, 2):
        cases.append(("4i", f"oo{k}", [f"o{k - 5}"]))
    for k in range(13, max_stones + 1, 2):
        cases.append(("6a", f"o{k}", [f"o{k - 2}"]))
    for rule_id, part, tokens in cases:
        g = _game(part)
        expected = normalize(_game(*tokens))
        hits = {result.parts for _, result in _left_moves(g)
                if result == expected}
        if len(hits) != 1:
            bad.append(f"{rule_id}:{part}")
    return bad
