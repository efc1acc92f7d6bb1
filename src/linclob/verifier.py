"""Exhaustive adversarial verification and bounded theorem checks.

Left plays by rule, Right tries every move; positions are re-normalized
after every move and results memoized on (normalized game, mover).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from .core import (
    BLACK, WHITE, Game, alternating, apply_move, canonical, flip, legal_moves,
)
from .asf import normalize, rule_table
from .oracle import SolveCache, equivalent
from .strategy import Ruleset, StrategyGap, choose_left_move
from .taxonomy import (
    SClass, enumerate_s_games, in_LL, in_U, in_left_target, s_class, u_parts,
)

Memo = dict[tuple[tuple[str, ...], str], bool]


@dataclass
class VerifyStats:
    n: int                 # start is a(2n)
    left_wins: bool
    left_nodes: int        # distinct memoized Left-to-move games
    right_nodes: int       # distinct memoized Right-to-move games
    elapsed: float


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
    against every Right reply."""
    return _left_node(normalize(g).parts, ruleset, memo)


def _left_node(parts: tuple[str, ...], ruleset: Ruleset, memo: Memo) -> bool:
    key = (parts, BLACK)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not parts:
        result = False  # Left cannot move and loses
    else:
        reply = choose_left_move(Game(parts), ruleset)
        result = _right_node(reply.result.parts, ruleset, memo)
    memo[key] = result
    return result


def _right_node(parts: tuple[str, ...], ruleset: Ruleset, memo: Memo) -> bool:
    key = (parts, WHITE)
    hit = memo.get(key)
    if hit is not None:
        return hit
    g = Game(parts)
    if in_LL(g):
        # Certified endgames: the oracle establishes each of these is a Left
        # win with either player to move, so the rule-based search stops here.
        memo[key] = True
        return True
    result = True
    seen: set[tuple[str, ...]] = set()
    for m in legal_moves(g, WHITE):
        child = normalize(apply_move(g, m)).parts
        if child in seen:
            continue
        seen.add(child)
        if not _left_node(child, ruleset, memo):
            result = False
            break
    memo[key] = result
    return result


def verify_start(stones: int, ruleset: Ruleset = Ruleset.BASIC) -> VerifyStats:
    """Verify the even alternating start with the given stone count."""
    if stones < 4 or stones % 2 or stones == 6:
        raise ValueError(f"start must be even, >= 4, and not 6; got {stones}")
    g = normalize(Game.of([alternating(stones, "o")]))
    memo: Memo = {}
    begin = time.perf_counter()
    won = _left_node(g.parts, ruleset, memo)
    elapsed = time.perf_counter() - begin
    left = sum(1 for (_, mover) in memo if mover == BLACK)
    right = len(memo) - left
    return VerifyStats(stones // 2, won, left, right, elapsed)


def check_theorem_right(max_stones: int = 18, max_parts: int = 3) -> TheoremReport:
    """On S1 and S2 games, every Right move must land (normalized) in S0."""
    report = TheoremReport("RightToS0", 0)
    for g in enumerate_s_games(max_stones, max_parts):
        if s_class(g) not in (SClass.S1, SClass.S2):
            continue
        for m in legal_moves(g, WHITE):
            h = normalize(apply_move(g, m))
            report.instances_checked += 1
            if s_class(h) is SClass.NotInS:
                report.failures.append((g, m, h))
    return report


def check_theorem_left(max_stones: int = 18, max_parts: int = 3,
                       ruleset: Ruleset = Ruleset.BASIC) -> TheoremReport:
    """On every S0 game, the chosen Left move must land in S1, S2, LL, or 0."""
    report = TheoremReport("LeftFromS0", 0)
    for g in enumerate_s_games(max_stones, max_parts):
        report.instances_checked += 1
        try:
            reply = choose_left_move(g, ruleset)
        except StrategyGap as gap:
            report.failures.append((g, None, str(gap)))
            continue
        if not in_left_target(reply.result):
            report.failures.append((g, reply.move, reply.result))
    return report


_BETA_SAMPLES = ("ox", "oxox", "xxo", "oxoxo", "ooxoxo")


def check_asf_soundness(cache: SolveCache | None = None) -> TheoremReport:
    """Every rewrite rule's left side is oracle-equivalent to its right side."""
    cache = cache or SolveCache(order="fast")
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


def _pieces_after_one_move(part: str) -> Iterator[tuple[str, ...]]:
    """The pieces left by each clobber of either player on a lone part."""
    g = Game.of([part])
    for player in (BLACK, WHITE):
        for m in legal_moves(g, player):
            yield apply_move(g, m).parts


def check_u_closure(max_stones: int = 15, reach_stones: int = 12) -> TheoremReport:
    """Moves on U parts stay in U; every U part up to `reach_stones` appears
    within two moves of play from some even alternating part."""
    report = TheoremReport("UClosure", 0)
    for u in u_parts(max_stones):
        for pieces in _pieces_after_one_move(u):
            report.instances_checked += 1
            for piece in pieces:
                if not in_U(piece):
                    report.failures.append((u, piece))

    # Reachability: two moves by either player (the second player can be the
    # same as the first, standing in for play elsewhere in a larger sum).
    reachable: set[str] = set()
    for k in range(2, reach_stones + 3, 2):
        a = canonical(alternating(k, "o"))
        reachable.add(a)
        for pieces in _pieces_after_one_move(a):
            reachable.update(pieces)
            for piece in pieces:
                for pieces2 in _pieces_after_one_move(piece):
                    reachable.update(pieces2)
    for u in u_parts(reach_stones):
        if len(set(u)) < 2:
            continue  # trivial parts allow no move and are outside the claim
        report.instances_checked += 1
        if u not in reachable:
            report.failures.append((u, "unreachable in two moves"))
    return report
