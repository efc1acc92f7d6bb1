import pytest

from linclob.core import BLACK, Game, alternating, parse_position
from linclob.asf import normalize
from linclob.oracle import OutcomeClass, SolveCache, outcome, wins_moving_first
from linclob.strategy import Ruleset
from linclob.taxonomy import SClass, enumerate_s_games, s_class
from linclob.verifier import (
    check_asf_soundness, check_theorem_left, check_theorem_right,
    check_u_closure, verify_game, verify_start,
)


def test_verify_start_small_wins():
    for stones in (4, 8, 10, 12, 16, 20):
        stats = verify_start(stones)
        assert stats.left_wins, stones
        assert stats.n == stones // 2
        assert stats.left_nodes > 0 and stats.right_nodes > 0


def test_verify_start_rejects_bad_starts():
    for stones in (2, 3, 6, 7):
        with pytest.raises(ValueError):
            verify_start(stones)


def test_verify_game_on_s_games():
    memo = {}
    assert verify_game(parse_position("a4"), Ruleset.BASIC, memo)
    assert verify_game(parse_position("xxo"), Ruleset.BASIC, memo)
    assert verify_game(parse_position("o5"), Ruleset.BASIC, memo)


def test_memo_determinism():
    a = verify_start(20)
    b = verify_start(20)
    assert (a.left_nodes, a.right_nodes) == (b.left_nodes, b.right_nodes)


def test_agreement_with_oracle_up_to_20_stones():
    cache = SolveCache(order="fast")
    for stones in (4, 8, 10, 12, 14, 16, 18, 20):
        g = Game.of([alternating(stones, "o")])
        assert wins_moving_first(g, BLACK, cache)
        assert verify_start(stones).left_wins
    assert outcome(parse_position("a6"), cache) is OutcomeClass.P


def test_corollary_outcomes_on_enumerated_s_games():
    cache = SolveCache(order="fast")
    for g in enumerate_s_games(16, 2):
        o = outcome(g, cache)
        if s_class(g) in (SClass.S1, SClass.S2):
            assert o is OutcomeClass.L, g
        else:
            assert o in (OutcomeClass.L, OutcomeClass.N), g


def test_improved_matches_basic_verdicts():
    for stones in (8, 12, 20, 30):
        assert verify_start(stones, Ruleset.IMPROVED).left_wins


def test_theorem_right_small():
    report = check_theorem_right(14, 2)
    assert report.ok and report.instances_checked > 0


def test_theorem_left_small():
    report = check_theorem_left(14, 2)
    assert report.ok and report.instances_checked > 0


def test_theorem_left_full_bound_has_single_known_gap():
    report = check_theorem_left(18, 3)
    assert report.instances_checked > 200
    offenders = {g.parts for g, _, _ in report.failures}
    assert offenders == {normalize(parse_position("oo12 + a4")).parts}


def test_u_closure_small():
    # one instance per clobber of either player on each U part, plus one per
    # non-trivial U part tested for reachability; the counts were recorded
    # with an independent clobber generator on raw stone strings
    for bounds, instances in (((15, 12), 975), ((12, 10), 581)):
        report = check_u_closure(*bounds)
        assert (report.instances_checked, report.failures) == (instances, []), bounds


def test_asf_soundness_report():
    report = check_asf_soundness(SolveCache(order="fast"))
    assert report.ok and report.instances_checked >= 38
