"""Exhaustive adversarial verification and bounded theorem checks.

Left plays by rule, Right tries every move.  A Right node builds each of its
children once, in standard form from the moved part alone
(`asf.normalized_children`, which never repeats a child).  The memo is the
proof graph, keyed by the normalized parts: each Left node maps to its
strategy child, each Right node to the children its search explored, and one
set holds the Right nodes where Right wins; every verdict is read off that
set.  A range of starts shares one memo, and each start's node counts are
read off the children it reaches: one walk over the Left parts it reaches
and the Right child of each.  `check_theorem_right` walks each part's move
table (`asf.part_successors`) itself, to name every Right move that fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .core import BLACK, WHITE, Game, Move, alternating, canonical, clobbers, flip
from .asf import add_form, normalize, normalized_children, part_successors, rule_table
from .oracle import DEFAULT_MAX_STONES, SolveCache, equivalent, wins_moving_first
from .strategy import Ruleset, StrategyGap, choose_left_move, left_child, require_scope
from .taxonomy import (
    SClass, enumerate_s_games, in_LL, in_U, in_left_target, s_class, u_parts,
)

Parts = tuple[str, ...]


@dataclass
class Memo:
    """The search's proof graph, keyed by the normalized parts: `left` maps a
    Left node to the strategy's child, `right` a Right node to the children
    its search explored, in move order through the first refutation (none at
    the LL stop), and `refuted` holds the Right nodes where Right wins.  A
    Left node wins iff its child is not refuted; the empty game, where Left
    cannot move and loses, gets no entry."""
    left: dict[Parts, Parts] = field(default_factory=dict)
    right: dict[Parts, tuple[Parts, ...]] = field(default_factory=dict)
    refuted: set[Parts] = field(default_factory=set)


# The search and the oracle take one frame per ply and each ply captures a
# stone: n stones need n frames plus a few dozen, so 500 fits Python's
# default limit of 1000.
MAX_START_STONES = 500


@dataclass
class VerifyStats:
    n: int                 # start is a(2n)
    left_wins: bool
    left_nodes: int        # Left-to-move games the start's search reaches
    right_nodes: int       # Right-to-move games the start's search reaches
    elapsed: float         # seconds this start added to the memo it was given


@dataclass
class TheoremReport:
    theorem: str
    instances_checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_game(g: Game, ruleset: Ruleset, memo: Memo) -> bool:
    """True iff Left, to move on normalized g, wins by playing the ruleset
    against every Right reply.  Raises NotInScope if normalized g is not an
    S0 game."""
    g = normalize(g)
    require_scope(g)
    return _left_node(g.parts, ruleset, memo)


def _left_node(parts: Parts, ruleset: Ruleset, memo: Memo) -> bool:
    if not parts:
        return False  # Left cannot move
    child = memo.left.get(parts)
    if child is None:
        # every move removes a stone, so no hit finds an unfinished entry
        child = left_child(parts, ruleset)[1]
        _right_node(child, ruleset, memo)
        memo.left[parts] = child
    return child not in memo.refuted


def _right_node(parts: Parts, ruleset: Ruleset, memo: Memo) -> None:
    if parts in memo.right:
        return
    explored = []
    # Certified endgames: the oracle establishes each of these is a Left win
    # with either player to move, so the rule-based search stops here.
    if not in_LL(Game(parts)):
        for child in normalized_children(parts, WHITE):
            explored.append(child)
            if not _left_node(child, ruleset, memo):
                memo.refuted.add(parts)
                break
    memo.right[parts] = tuple(explored)


def _reached(root: Parts, memo: Memo) -> tuple[int, int]:
    """The numbers of Left and Right nodes reachable from the Left root over
    the explored children.  A node's explored children depend only on the
    node, so these are the sizes a memo of the root's search alone would
    have."""
    left, right = set(), set()
    todo = [root]
    while todo:
        parts = todo.pop()
        if parts in left:
            continue
        left.add(parts)
        child = memo.left.get(parts)  # None for the empty game
        if child is not None and child not in right:
            right.add(child)
            todo.extend(memo.right[child])
    return len(left), len(right)


def verify_start(stones: int, ruleset: Ruleset = Ruleset.BASIC,
                 memo: Memo | None = None) -> VerifyStats:
    """Verify the even alternating start with the given stone count.

    `memo` is shared with the other starts of a range (`verify_range`); a
    fresh one is used when none is given.  The node counts are the start's
    own either way, and `elapsed` is the time it added to the memo."""
    if stones < 4 or stones % 2 or stones == 6 or stones > MAX_START_STONES:
        raise ValueError(f"start must be even, >= 4, not 6 and at most "
                         f"{MAX_START_STONES}; got {stones}")
    if memo is None:
        memo = Memo()
    root = normalize(Game.of([alternating(stones, "o")])).parts
    begin = time.perf_counter()
    won = _left_node(root, ruleset, memo)
    left, right = _reached(root, memo)
    elapsed = time.perf_counter() - begin
    return VerifyStats(stones // 2, won, left, right, elapsed)


def verify_range(starts: Iterable[int],
                 ruleset: Ruleset = Ruleset.BASIC) -> list[VerifyStats]:
    """Verify each start in turn against one memo shared by the range."""
    memo = Memo()
    return [verify_start(stones, ruleset, memo) for stones in starts]


def check_theorem_right(max_stones: int = 18, max_parts: int = 3) -> TheoremReport:
    """On S1 and S2 games, every Right move must land (normalized) in S0.
    A part's children are built and classified once per distinct form; each
    move is one instance, and each move into a child outside S one failure."""
    report = TheoremReport("RightToS0", 0)
    for g in enumerate_s_games(max_stones, max_parts):
        if s_class(g) not in (SClass.S1, SClass.S2):
            continue
        for i, part in enumerate(g.parts):
            rest = g.parts[:i] + g.parts[i + 1:]
            for form, moves in part_successors(part, WHITE).items():
                h = Game(add_form(rest, form))
                report.instances_checked += len(moves)
                if s_class(h) is SClass.NotInS:
                    report.failures += [(g, Move(i, f, t), h) for f, t in moves]
    return report


def check_theorem_left(max_stones: int = 18, max_parts: int = 3) -> TheoremReport:
    """On every S0 game, the chosen Left move must land in S1, S2, LL, or 0."""
    report = TheoremReport("LeftFromS0", 0)
    for g in enumerate_s_games(max_stones, max_parts):
        report.instances_checked += 1
        try:
            reply = choose_left_move(g)
        except StrategyGap as gap:
            report.failures.append((g, None, str(gap)))
            continue
        if not in_left_target(reply.result):
            report.failures.append((g, reply.move, reply.result))
    return report


def check_conjecture(max_stones: int = DEFAULT_MAX_STONES) -> TheoremReport:
    """The paper's conjecture by the oracle: every even alternating start of
    at most `max_stones` stones is a first-player win, except a6, which the
    first mover loses.  a(2n) is its own negative, so one first-mover solve
    on a fresh memo decides each start."""
    report = TheoremReport("FirstPlayerWins", 0)
    for stones in range(2, max_stones + 1, 2):
        g = Game.of([alternating(stones, "o")])
        wins = wins_moving_first(g, BLACK, SolveCache(max_stones=max_stones))
        report.instances_checked += 1
        if wins != (stones != 6):
            report.failures.append((f"a{stones}", "N" if wins else "P"))
    return report


_BETA_SAMPLES = ("ox", "oxox", "xxo", "oxoxo", "ooxoxo")


def check_asf_soundness(cache: SolveCache) -> TheoremReport:
    """Every rewrite rule's left side is oracle-equivalent to its right side."""
    report = TheoremReport("AsfSoundness", 0)
    for rule in rule_table():
        if rule.lhs is None:
            # Pair-cancellation: p + (-p) must be equivalent to 0.
            for p in _BETA_SAMPLES:
                lhs = Game.of([p, canonical(flip(p))])
                report.instances_checked += 1
                if not equivalent(lhs, Game(), cache):
                    report.failures.append((rule.name, p))
            continue
        rhs = Game.of(rule.rhs)
        for p in sorted(rule.lhs):
            report.instances_checked += 1
            if not equivalent(Game.of([p]), rhs, cache):
                report.failures.append((rule.name, p))
    return report


def check_u_closure(max_stones: int = 15, reach_stones: int = 12) -> TheoremReport:
    """Moves on U parts stay in U; every U part up to `reach_stones` appears
    within two moves of play from some even alternating part."""
    report = TheoremReport("UClosure", 0)
    for u in u_parts(max_stones):
        for pieces in clobbers(u).values():
            report.instances_checked += 1
            for piece in pieces:
                if not in_U(piece):
                    report.failures.append((u, piece))

    # Reachability: two moves by either player (the second player can be the
    # same as the first, standing in for play elsewhere in a larger sum).
    reachable: set[str] = set()
    for k in range(2, reach_stones + 4, 2):
        a = canonical(alternating(k, "o"))
        reachable.add(a)
        for pieces in clobbers(a).values():
            reachable.update(pieces)
            for piece in pieces:
                for pieces2 in clobbers(piece).values():
                    reachable.update(pieces2)
    for u in u_parts(reach_stones):
        if len(set(u)) < 2:
            continue  # trivial parts allow no move and are outside the claim
        report.instances_checked += 1
        if u not in reachable:
            report.failures.append((u, "unreachable in two moves"))
    return report
