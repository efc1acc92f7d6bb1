"""Exact memoized solver: outcome classes and game equivalence.

This is the ground truth for everything else in the package.  It is a plain
minimax over whole positions (no sum decomposition, no game values), so it
stays independent of the rewrite system and strategy it is used to check.

Every position the search stores has Left to move.  Right to move on g is
the same game tree as Left to move on -g (every stone's colour flipped):
that is the definition of negation, which swaps the players' roles, so it
takes no rewrite rule and no cancelling of p + (-p) inside a position.  A
Left move's child is therefore stored as its negative, Left to move again,
and a game and its negative share one memo entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .core import (
    BLACK, WHITE, BudgetExceeded, Game, add, clobbers, negate, negative,
)

DEFAULT_MAX_STONES = 26

# The cap on a position's stones.  The search takes one frame per ply and
# each ply captures a stone, so n stones need n frames plus a few dozen, and
# 500 fits Python's default recursion limit of 1000.
MAX_STONES = 500


class OutcomeClass(Enum):
    P = "P"  # previous player wins (first mover loses)
    N = "N"  # next player (first mover) wins
    L = "L"  # Left wins regardless
    R = "R"  # Right wins regardless


@dataclass(frozen=True)
class SolveCache:
    """Memo table mapping a position with Left to move -> Left wins.

    A position is its sorted tuple of parts.  Right to move on g is looked
    up as Left to move on -g, so g and -g share one key; a self-negative
    game such as a(2n) or g + (-g) answers its Right-first solve from the
    Left-first one.  `order` is "fast" (children sorted by the opponent's
    mobility, the number of Left moves on the stored child, fewest first,
    ties by the child; and a node with a child already stored as lost is
    won without a search, an enhanced transposition cutoff) or "counted"
    (Left's moves in the game-core scan order on the node's parts, no
    cutoff: the reference that the tests check against a literal search).
    Both give the same answers.  A node's children are built from `_moves`,
    each part's cached Left moves with their pieces already negated, so no
    order re-reads the clobber tables.  `table` is read only through `.get`
    and item assignment.  A `max_stones` over MAX_STONES raises
    BudgetExceeded when the cache is built, and the fields are frozen, so no
    cache searches past the cap.
    """

    max_stones: int = DEFAULT_MAX_STONES
    order: str = "fast"
    table: dict[tuple[str, ...], bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_stones > MAX_STONES:
            raise BudgetExceeded(f"budget of {self.max_stones} stones exceeds "
                                 f"the {MAX_STONES}-stone cap")


def wins_moving_first(g: Game, player: str, cache: SolveCache) -> bool:
    """True iff `player`, moving first on g, has a winning strategy."""
    if g.stones() > cache.max_stones:
        raise BudgetExceeded(
            f"{g.stones()} stones exceeds budget of {cache.max_stones}"
        )
    return _solve(g.parts if player == BLACK else _negative(g.parts), cache)


def _solve(parts: tuple[str, ...], cache: SolveCache) -> bool:
    """True iff Left, moving first on `parts`, wins."""
    table = cache.table
    hit = table.get(parts)
    if hit is not None:
        return hit
    children = _children(parts)
    if cache.order == "fast":
        if any(table.get(child) is False for child in children):
            table[parts] = True  # Right, to move on -child, is known to lose
            return True
        children.sort(key=_replies)  # all children are distinct
    result = False
    for child in children:
        if not _solve(child, cache):  # Right, to move on -child, loses
            result = True
            break
    table[parts] = result
    return result


def _replies(child: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """The fast order's key: Left's moves on the stored child (the
    opponent's replies to the move that reaches it), then the child."""
    return sum(map(len, map(_moves, child))), child


def _negative(parts: tuple[str, ...]) -> tuple[str, ...]:
    """The position -g of g's parts: each part flipped, then sorted."""
    return tuple(sorted(map(negative, parts)))


@lru_cache(maxsize=None)
def _moves(part: str) -> tuple[tuple[str, ...], ...]:
    """Left's moves on the lone part: each distinct clobber's pieces once,
    negated, in `clobbers` scan order."""
    return tuple(dict.fromkeys(
        _negative(pieces) for (f, _), pieces in clobbers(part).items()
        if part[f - 1] == BLACK))


def _children(parts: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The negatives of the distinct positions Left reaches in one move, in
    move order.  No two parts reach one position: moving on p leaves one p
    fewer, elsewhere no fewer."""
    negated = _negative(parts)
    children = []
    for i, part in enumerate(parts):
        if i and part == parts[i - 1]:
            continue  # a copy of a part reaches the same positions again
        j = negated.index(negative(part))
        rest = negated[:j] + negated[j + 1:]
        children.extend(tuple(sorted(rest + pieces)) for pieces in _moves(part))
    return children


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
