"""Exact memoized solver: outcome classes and game equivalence.

This is the ground truth for everything else in the package.  It is a plain
minimax over whole positions (no sum decomposition, no game values), so it
stays independent of the rewrite system and strategy it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .core import (
    BLACK, WHITE, BudgetExceeded, Game, add, clobbers, negate, opponent,
)

DEFAULT_MAX_STONES = 26


class OutcomeClass(Enum):
    P = "P"  # previous player wins (first mover loses)
    N = "N"  # next player (first mover) wins
    L = "L"  # Left wins regardless
    R = "R"  # Right wins regardless


@dataclass
class SolveCache:
    """Memo table mapping (game key, player to move) -> mover wins.

    `order` is "fast" (children sorted by (stones, parts), smallest first;
    usually fewer nodes) or "counted" (the game-core move order, the
    reference that the tests check against a literal search).  Both give the
    same answers.  A node's children are built from `_moves`, each part's
    cached per-player move list, and each carries its stone count, so
    neither order re-reads the clobber tables or re-sums part lengths.
    `table` is read only through `.get` and item assignment.
    """

    max_stones: int = DEFAULT_MAX_STONES
    order: str = "fast"
    table: dict[tuple[tuple[str, ...], str], bool] = field(default_factory=dict)


def wins_moving_first(g: Game, player: str, cache: SolveCache) -> bool:
    """True iff `player`, moving first on g, has a winning strategy."""
    if g.stones() > cache.max_stones:
        raise BudgetExceeded(
            f"{g.stones()} stones exceeds budget of {cache.max_stones}"
        )
    return _solve(g.parts, player, cache)


def _solve(parts: tuple[str, ...], player: str, cache: SolveCache) -> bool:
    key = (parts, player)
    hit = cache.table.get(key)
    if hit is not None:
        return hit
    children = _children(parts, player)
    if cache.order == "fast":
        children.sort()  # by (stones, child); every child is distinct
    opp = opponent(player)
    result = False
    for _, child in children:
        if not _solve(child, opp, cache):
            result = True
            break
    cache.table[key] = result
    return result


@lru_cache(maxsize=None)
def _moves(part: str, player: str) -> tuple[tuple[tuple[str, ...], int], ...]:
    """`player`'s moves on the lone part: each distinct clobber's pieces once,
    in `clobbers` scan order, with the change in stone count they make."""
    moves: dict[tuple[str, ...], int] = {}
    for (f, _), pieces in clobbers(part).items():
        if part[f - 1] == player:
            moves[pieces] = sum(map(len, pieces)) - len(part)
    return tuple(moves.items())


def _children(parts: tuple[str, ...],
              player: str) -> list[tuple[int, tuple[str, ...]]]:
    """The distinct positions `player` reaches in one move, in move order,
    each with its stone count."""
    stones = sum(map(len, parts))
    children: dict[tuple[str, ...], int] = {}
    for i, part in enumerate(parts):
        if i and part == parts[i - 1]:
            continue  # a copy of a part reaches the same positions again
        rest = parts[:i] + parts[i + 1:]
        for pieces, delta in _moves(part, player):
            children[tuple(sorted(rest + pieces))] = stones + delta
    return list(zip(children.values(), children))


def outcome(g: Game, cache: SolveCache) -> OutcomeClass:
    """Outcome class from the two first-mover solves."""
    left = wins_moving_first(g, BLACK, cache)
    right = wins_moving_first(g, WHITE, cache)
    if left and right:
        return OutcomeClass.N
    if left:
        return OutcomeClass.L
    if right:
        return OutcomeClass.R
    return OutcomeClass.P


def equivalent(g: Game, h: Game, cache: SolveCache) -> bool:
    """g and h are equivalent iff g + (-h) is a P-position."""
    return outcome(add(g, negate(h)), cache) is OutcomeClass.P
