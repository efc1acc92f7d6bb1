"""Standard-form rewriter: preference-ordered part rewrites to a fixpoint.

Each rule replaces one part (or cancels a part/negative pair) with an
equivalent multiset of smaller parts.  Every application strictly decreases
the sum of squared part sizes, so iteration terminates.

`apply_once` and `normalize_trace` are the literal, preference-ordered
rewriter.  Because every rule but beta rewrites a single part, `normalize`
reaches the same fixpoint part by part: it takes each part's memoized normal
form (computed once by the literal rewriter) and adds those forms' parts to
the empty game with `add_form`.  When that sum is the game's own parts, the
game is already in standard form and `normalize` returns it, not a copy.

`add_form` states the cancel rule once: each new part cancels one copy of
its negative if one is present, and is otherwise inserted in order.  A game
built that way never holds both p and -p, so a self-negative part keeps its
multiplicity mod 2.  In a standard-form game every part is its own form and
no two parts cancel, so after a move on one part the child's standard form
is `add_form` of the other parts and the standard form of the move's pieces.
Each part has one cached move table per player (`part_successors`): each
distinct standard form of the pieces its clobbers leave, mapped to those
clobbers.  `normalized_children` builds each child a search needs that way,
once, with the clobbers on the part that reach it: one per form in each
part's table (no two parts share a child), and nothing for a copy of the
part before it, which has the same children.  The verifier's pass and its
Right theorem check both read it.  The oracle uses neither: it stays on raw
moves, so that it remains independent of the rewriter.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .core import Game, canonical, clobbers, flip, negative

Parts = tuple[str, ...]


@dataclass(frozen=True)
class RewriteRule:
    name: str
    # Canonical part strings matched literally; None for the pair-cancel rule.
    lhs: frozenset[str] | None
    rhs: tuple[str, ...]


# The rules in preference order: (name, left sides, right side); beta, the
# pair cancel, has no left side.
_REWRITES = (
    ("alpha", ("o", "oo", "ooo", "ooxx", "oxoxox"), ()),
    ("beta", None, ()),
    ("gamma", ("oxo", "ooxox", "ooxoxoo", "xxoxoxx"), ("ox",)),
    ("delta", ("oxoxoxoxo",), ("ooxo",)),
    ("epsilon", ("ooxoxx", "oxoxoxoxoxox"), ("oxox", "ox")),
    ("zeta", ("ooxoo",), ("oox",)),
    ("eta", ("ooxo",), ("xxo", "ox")),
)


def rule_table() -> list[RewriteRule]:
    """Each rule of `_REWRITES` in order, and after each but beta its negative."""
    rules = []
    for name, lhs, rhs in _REWRITES:
        if lhs is None:
            rules.append(RewriteRule(name, None, rhs))
            continue
        for prefix, turn in (("", str), ("-", flip)):
            rules.append(RewriteRule(prefix + name,
                                     frozenset(canonical(turn(p)) for p in lhs),
                                     tuple(canonical(turn(p)) for p in rhs)))
    return rules


_RULES = rule_table()


def potential(parts: Parts) -> int:
    """Termination measure: sum of squared part sizes."""
    return sum([len(p) ** 2 for p in parts])


def _beta_match(parts: tuple[str, ...]) -> Game | None:
    """Cancel the smallest part whose negative (up to reversal) is also present."""
    for i, p in enumerate(parts):
        partner = canonical(flip(p))
        for j, q in enumerate(parts):
            if j != i and q == partner:
                rest = [r for k, r in enumerate(parts) if k not in (i, j)]
                return Game(tuple(rest))
    return None


def apply_once(g: Game) -> tuple[RewriteRule, Game] | None:
    """Apply the highest-preference matching rule once, or None at a fixpoint.

    Ties among matching parts go to the smallest canonical part key (the
    parts tuple is sorted, so the first match wins).
    """
    for rule in _RULES:
        if rule.lhs is None:
            hit = _beta_match(g.parts)
            if hit is not None:
                return rule, hit
            continue
        for i, p in enumerate(g.parts):
            if p in rule.lhs:
                rest = list(g.parts[:i]) + list(g.parts[i + 1:])
                return rule, Game.of(rest + list(rule.rhs))
    return None


def normalize(g: Game) -> Game:
    """The standard form of g: the fixpoint of apply_once, built per part;
    g itself when it is already in standard form."""
    parts = add_form((), [q for p in g.parts for q in _part_form(p)])
    return g if parts == g.parts else Game(parts)


@lru_cache(maxsize=None)
def _part_form(part: str) -> tuple[str, ...]:
    """Normal form of a lone canonical part, by the literal rewriter."""
    return normalize_trace(Game((part,)))[0].parts


def add_form(parts: Parts, form: Iterable[str]) -> Parts:
    """The standard form of the standard-form game `parts` plus the parts
    `form`, each its own standard form: each new part cancels one copy of
    its negative if one is present, and is otherwise inserted in order."""
    kept = list(parts)
    for q in form:
        partner = negative(q)
        j = bisect_left(kept, partner)
        if j < len(kept) and kept[j] == partner:
            del kept[j]
        else:
            insort(kept, q)
    return tuple(kept)


@lru_cache(maxsize=None)
def part_successors(part: str, player: str
                    ) -> Mapping[Parts, tuple[tuple[int, int], ...]]:
    """The player's move table on the lone part: each distinct standard form
    of the pieces a clobber leaves, in first-occurrence scan order, mapped to
    the clobbers (from, to) that leave it, in scan order."""
    table: dict[Parts, list[tuple[int, int]]] = {}
    for (f, t), pieces in clobbers(part).items():
        if part[f - 1] == player:
            form = add_form((), [q for p in pieces for q in _part_form(p)])
            table.setdefault(form, []).append((f, t))
    return MappingProxyType({form: tuple(moves) for form, moves in table.items()})


def normalized_children(parts: Parts, player: str) -> Iterator[tuple]:
    """Each distinct child of the player's moves on the standard-form
    `parts`, in standard form, once, in `legal_moves` first-occurrence order,
    as (part index, the clobbers (from, to) on that part that reach it,
    child): the rest of the game plus each form of the moved part's table.
    A copy of the part before it is skipped: the parts are sorted, so copies
    are adjacent, and a copy has the same children by the same clobbers.
    Distinct forms of one part give distinct children, and so do distinct
    parts p and q: a move on p leaves one copy of p fewer, as its form holds
    only smaller parts, and a move on q changes the copies of p only if p is
    smaller than q."""
    for i, part in enumerate(parts):
        if i and part == parts[i - 1]:
            continue
        rest = parts[:i] + parts[i + 1:]
        for form, moves in part_successors(part, player).items():
            yield i, moves, add_form(rest, form)


def normalize_trace(g: Game) -> tuple[Game, list[tuple[str, Game]]]:
    """Iterate apply_once to the fixpoint, recording each (rule name, game)
    step; the literal reference that normalize is tested against."""
    trace: list[tuple[str, Game]] = []
    while True:
        step = apply_once(g)
        if step is None:
            return g, trace
        rule, g = step
        trace.append((rule.name, g))
