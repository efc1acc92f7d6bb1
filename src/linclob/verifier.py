"""Exhaustive adversarial verification and bounded theorem checks.

Left plays by rule, so checking a start is a one-player reachability
question for Right: Left wins iff no Left node that Right's replies reach is
the empty game.  A range of starts is one pass.  Every normalized move
strictly lowers `asf.potential`, so the pass expands pending nodes from the
highest potential down: a node's parents all come first, and each node is
expanded once and then dropped.  No node reaches another of its own
potential, so one loop expands a layer's Left and Right nodes in any order.
Each pending node carries the bitmask of the starts that reach it.  A Left
node goes to its strategy child; a Right node goes to each of its distinct
children (`asf.normalized_children`), except in LL, the certified endgames,
which are leaves.  A start's node counts are the expanded nodes whose mask
holds its bit.  `check_theorem_right` reads the same Right children, with
the clobbers that reach each, to name every Right move that fails.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    BLACK, WHITE, Game, Move, alternating, canonical, clobbers, flip, is_monochromatic,
)
from .asf import Parts, normalize, normalized_children, potential, rule_table
from .oracle import (
    DEFAULT_MAX_STONES, MAX_STONES, SolveCache, equivalent, wins_moving_first,
)
from .strategy import Ruleset, StrategyGap, choose_left_move, left_child
from .taxonomy import (
    SClass, enumerate_s_games, in_LL, in_U, in_left_target, s_class, u_parts,
)


@dataclass
class VerifyStats:
    n: int                 # start is a(2n)
    left_wins: bool
    left_nodes: int        # Left-to-move games reachable from the start
    right_nodes: int       # Right-to-move games reachable from the start


@dataclass
class TheoremReport:
    theorem: str
    instances_checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _left_node(parts: Parts, ruleset: Ruleset) -> Parts | None:
    """Left's step: None at the empty game, where Left cannot move and
    loses, else the strategy's child."""
    return left_child(parts, ruleset)[2] if parts else None


def _search(roots: list[Parts], ruleset: Ruleset) -> tuple[int, Counter, Counter]:
    """One pass from the Left roots, root i owning bit i: the mask of the
    roots that reach the empty game with Left to move, and the numbers of
    expanded Left and Right nodes by the mask of the roots reaching them.
    Each potential layer is one loop over its sides' pending parts."""
    # Per side, Left then Right: pending parts -> mask, and expanded nodes
    # by mask.  Per potential: each side's pending parts.
    pending: tuple[dict, dict] = ({}, {})
    counts = (Counter(), Counter())
    layers: defaultdict[int, tuple[list, list]] = defaultdict(lambda: ([], []))

    def reach(side: int, parts: Parts, mask: int) -> None:
        nodes = pending[side]
        if parts in nodes:
            nodes[parts] |= mask
        else:
            nodes[parts] = mask
            layers[potential(parts)][side].append(parts)

    for i, root in enumerate(roots):
        reach(0, root, 1 << i)
    lost = 0
    for level in range(max(layers, default=0), -1, -1):
        for side, layer in enumerate(layers.pop(level, ())):
            for parts in layer:
                mask = pending[side].pop(parts)
                counts[side][mask] += 1
                if side == 1:
                    # the oracle certifies each LL game a Left win with
                    # either player to move, so the pass stops there
                    if not in_LL(Game(parts)):
                        for _, _, child in normalized_children(parts, WHITE):
                            reach(0, child, mask)
                elif (child := _left_node(parts, ruleset)) is None:
                    lost |= mask
                else:
                    reach(1, child, mask)
    return lost, *counts


def verify_start(stones: int, ruleset: Ruleset = Ruleset.BASIC) -> VerifyStats:
    """Verify the even alternating start with the given stone count."""
    return verify_range([stones], ruleset)[0]


def verify_range(starts: Iterable[int],
                 ruleset: Ruleset = Ruleset.BASIC) -> list[VerifyStats]:
    """Verify the starts in one pass; each start's counts are its own."""
    starts = list(starts)
    for stones in starts:
        if stones < 4 or stones % 2 or stones == 6 or stones > MAX_STONES:
            raise ValueError(f"start must be even, >= 4, not 6 and at most "
                             f"{MAX_STONES}; got {stones}")
    roots = [normalize(Game.of([alternating(s, "o")])).parts for s in starts]
    lost, left, right = _search(roots, ruleset)

    def owned(counts: Counter, bit: int) -> int:
        return sum(n for mask, n in counts.items() if mask & bit)
    return [VerifyStats(stones // 2, not lost >> i & 1, owned(left, 1 << i),
                        owned(right, 1 << i)) for i, stones in enumerate(starts)]


def check_theorem_right(max_stones: int = 18, max_parts: int = 3) -> TheoremReport:
    """On S1 and S2 games, every Right move must land (normalized) in S0.
    The children are the pass's own (`normalized_children`): each is built
    and classified once, for the first of a part's c copies, which all
    reach it by the same clobbers.  Each move is one instance, and each
    move into a child outside S one failure, in `legal_moves` order."""
    report = TheoremReport("RightToS0", 0)
    for g in enumerate_s_games(max_stones, max_parts):
        if s_class(g) not in (SClass.S1, SClass.S2):
            continue
        failures = []
        for i, moves, child in normalized_children(g.parts, WHITE):
            copies = range(i, i + g.parts.count(g.parts[i]))
            report.instances_checked += len(moves) * len(copies)
            if s_class(h := Game(child)) is SClass.NotInS:
                failures += [(g, Move(j, f, t), h) for j in copies for f, t in moves]
        report.failures += sorted(failures, key=lambda failure: failure[1])
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
    decides each start; every solve shares one memo."""
    report = TheoremReport("FirstPlayerWins", 0)
    cache = SolveCache(max_stones=max_stones)
    for stones in range(2, max_stones + 1, 2):
        g = Game.of([alternating(stones, "o")])
        wins = wins_moving_first(g, BLACK, cache)
        report.instances_checked += 1
        if wins != (stones != 6):
            report.failures.append((f"a{stones}", "N" if wins else "P"))
    return report


_BETA_SAMPLES = ("ox", "oxox", "xxo", "oxoxo", "ooxoxo")


def check_asf_soundness() -> TheoremReport:
    """Every rewrite rule's left side is oracle-equivalent to its right side.
    The largest instance has 18 stones, within the oracle's default budget."""
    cache = SolveCache()
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


def check_u_closure(max_stones: int = 15) -> TheoremReport:
    """Moves on U parts of at most `max_stones` stones stay in U; each such
    part of at most 12 stones is within two moves of an even alternating part."""
    reach_stones = min(12, max_stones)
    report = TheoremReport("UClosure", 0)
    for u in u_parts(max_stones):
        # uncached: the cache would keep every table for the process's life
        for pieces in clobbers.__wrapped__(u).values():
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
        if is_monochromatic(u):
            continue  # trivial parts allow no move and are outside the claim
        report.instances_checked += 1
        if u not in reachable:
            report.failures.append((u, "unreachable in two moves"))
    return report
