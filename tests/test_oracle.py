import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from linclob.core import (
    BLACK, WHITE, Game, add, apply_move, legal_moves, negate, opponent,
    parse_position,
)
from linclob.oracle import (
    BudgetExceeded, OutcomeClass, SolveCache, equivalent, outcome,
    wins_moving_first,
)
from linclob.taxonomy import enumerate_s_games


@pytest.fixture(scope="module")
def cache():
    return SolveCache(order="fast")


def test_empty_game_is_p(cache):
    assert outcome(Game(()), cache) is OutcomeClass.P


def test_small_known_outcomes(cache):
    assert outcome(parse_position("ox"), cache) is OutcomeClass.N
    assert outcome(parse_position("a4"), cache) is OutcomeClass.N
    assert outcome(parse_position("oxoxox"), cache) is OutcomeClass.P
    assert outcome(parse_position("xxo"), cache) is OutcomeClass.L
    assert outcome(parse_position("oox"), cache) is OutcomeClass.R


def test_oo8_is_left_win(cache):
    assert outcome(parse_position("oo8"), cache) is OutcomeClass.L


def test_q_game_is_not_left_second_player_win(cache):
    # regression value: Left moving second loses o5 + a2
    g = parse_position("o5 + a2")
    assert outcome(g, cache) is OutcomeClass.N
    assert wins_moving_first(g, WHITE, cache)


def test_budget_enforced():
    tight = SolveCache(max_stones=4)
    with pytest.raises(BudgetExceeded):
        wins_moving_first(parse_position("oxoxo"), BLACK, tight)


def test_the_cache_refuses_a_budget_over_the_cap():
    # the search takes one frame per ply, so a cache for more than 500
    # stones is refused before it can overflow the recursion limit
    with pytest.raises(BudgetExceeded, match="500-stone cap"):
        SolveCache(max_stones=501)
    # 250 copies of ox (each a *) sum to 0: the first mover loses after
    # every one of the 250 plies is played
    cache = SolveCache(max_stones=500)
    assert not wins_moving_first(Game.of(["ox"] * 250), BLACK, cache)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cache.max_stones = 1000


def test_orders_agree():
    # Every S game of up to 16 stones and 3 parts, a few other games and
    # a2..a24, for both players: the fast order's mobility sort and its
    # cutoff at a child stored as lost give the counted order's answers,
    # which a literal search checks.
    fast, counted = SolveCache(order="fast"), SolveCache(order="counted")
    starts = list(enumerate_s_games(16, 3))
    starts += [parse_position(text) for text in
               ("oxoxo", "oo6", "xxo + a2", "oo5oo + ox")]
    starts += [parse_position(f"a{n}") for n in range(2, 25, 2)]
    for g in starts:
        for player in (BLACK, WHITE):
            assert (wins_moving_first(g, player, fast)
                    == wins_moving_first(g, player, counted)), (g.parts, player)


def test_node_counts_per_order():
    # Memo sizes pin the move order, the fast order's cutoff, the dedupe of
    # the children and the Left-to-move keys.
    expected = {"a8": (10, 5), "oo7 + a2": (17, 11), "oo5oo + ox": (6, 7),
                "xxo + a4 + o5": (48, 35), "a12": (95, 45),
                "a24": (3498, 683)}
    for text, sizes in expected.items():
        got = []
        for order in ("counted", "fast"):
            cache = SolveCache(order=order)
            outcome(parse_position(text), cache)
            got.append(len(cache.table))
        assert tuple(got) == sizes, text


parts = st.text(alphabet="ox", min_size=1, max_size=5)
games = st.lists(parts, min_size=0, max_size=3).map(Game.of).filter(
    lambda g: g.stones() <= 12)


def _literal_left_wins(g: Game, memo: dict) -> bool:
    """Memoized minimax with Left to move over legal_moves/apply_move: the
    negatives of Left's distinct children in move order (Left to move again),
    searched up to the first one Left loses."""
    if g.parts not in memo:
        children = {negate(apply_move(g, m)).parts: None
                    for m in legal_moves(g, BLACK)}
        memo[g.parts] = any(not _literal_left_wins(Game(c), memo)
                            for c in children)
    return memo[g.parts]


def _literal_wins(g: Game, player: str, memo: dict) -> bool:
    """Memoized minimax keyed by (position, player to move): the distinct
    children in move order, searched up to the first one the opponent loses.
    It never negates, so it checks that the colour mirror is exact."""
    key = (g.parts, player)
    if key not in memo:
        children = {apply_move(g, m).parts: None for m in legal_moves(g, player)}
        memo[key] = any(not _literal_wins(Game(c), opponent(player), memo)
                        for c in children)
    return memo[key]


@given(games)
@settings(max_examples=60, deadline=None)
def test_counted_order_matches_a_literal_search(g):
    # same answers and same memo size: the same children in the same order
    cache, memo = SolveCache(order="counted"), {}
    for player, start in ((BLACK, g), (WHITE, negate(g))):
        assert wins_moving_first(g, player, cache) == _literal_left_wins(start, memo)
    assert len(cache.table) == len(memo)


@given(games)
@settings(max_examples=60, deadline=None)
def test_mirror_keys_match_a_search_over_both_players(g):
    cache, memo = SolveCache(order="fast"), {}
    for player in (BLACK, WHITE):
        assert wins_moving_first(g, player, cache) == _literal_wins(g, player, memo)


def test_self_negative_start_needs_one_solve():
    # a24 is its own negative, so its Right-first solve is one lookup
    cache = SolveCache(order="fast")
    g = parse_position("a24")
    wins_moving_first(g, BLACK, cache)
    keys = len(cache.table)
    assert outcome(g, cache) is OutcomeClass.N
    assert len(cache.table) == keys


def test_equivalent_to_itself_needs_one_solve():
    cache = SolveCache(order="fast")
    g = parse_position("oo7 + a2")
    wins_moving_first(add(g, negate(g)), BLACK, cache)
    keys = len(cache.table)
    assert equivalent(g, g, cache)
    assert len(cache.table) == keys


@given(games)
@settings(max_examples=60, deadline=None)
def test_negation_mirrors_outcome(g):
    cache = SolveCache(order="fast")
    mirror = {OutcomeClass.P: OutcomeClass.P, OutcomeClass.N: OutcomeClass.N,
              OutcomeClass.L: OutcomeClass.R, OutcomeClass.R: OutcomeClass.L}
    assert outcome(negate(g), cache) is mirror[outcome(g, cache)]


@given(games)
@settings(max_examples=40, deadline=None)
def test_g_plus_negative_g_is_p(g):
    cache = SolveCache(order="fast")
    assert equivalent(g, g, cache)


def test_equivalence_exercise(cache):
    assert equivalent(parse_position("oxoo"), parse_position("xxo + xo"), cache)


def test_o9_reduces_to_xxo_plus_a2(cache):
    assert equivalent(parse_position("o9"), parse_position("xxo + a2"), cache)
