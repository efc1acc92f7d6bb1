from collections import Counter

import pytest

from linclob.core import Game, parse_position
from linclob.asf import normalize
from linclob.strategy import (
    NotInScope, Ruleset, StrategyMove, choose_left_move, improved_override,
    rule_rows_unique,
)
from linclob.taxonomy import enumerate_s_games, in_left_target


def norm(text: str) -> Game:
    return normalize(parse_position(text))


def pick(text: str, ruleset: Ruleset = Ruleset.BASIC) -> StrategyMove:
    return choose_left_move(norm(text), ruleset)


def test_whole_game_exceptions():
    assert pick("a8 + a2").rule_id == "1a"
    assert pick("a8 + a2").result == norm("xxo + a4 + a2")
    assert pick("a10 + a4").rule_id == "1b"
    assert pick("a10 + a4").result == norm("o5 + oox + a4 + a2")
    assert pick("a18 + a4 + a2").rule_id == "1c"
    assert pick("a18 + a4 + a2").result == norm("a14 + xxo + a4 + a2")
    assert pick("oo10 + a2").rule_id == "4a"
    assert pick("oo10 + a2").result == norm("o7 + a2 + a2")
    assert pick("oo12 + a4").rule_id == "4b"
    assert pick("oo12 + a4").result == norm("oo8 + xxo + a4")


def test_rule_1d_shortens_a_parts():
    sm = pick("a8")
    assert sm.rule_id == "1d" and sm.result == norm("o5")
    assert pick("a16").result == norm("o13")
    assert pick("a14 + oo6").rule_id == "1d"
    assert pick("a14 + oo6").result == norm("o11 + oo6")


def test_rule_2_shortens_oa_parts():
    # an O' part keeps the whole game inside S0 (z=1 needs a >= c+1)
    sm = pick("oo7 + o5")
    assert sm.rule_id == "2"
    assert sm.result == norm("oo4 + o5")
    assert pick("oo11 + o5").result == norm("oo8 + o5")
    assert pick("oo13 + o5").result == norm("oo10 + o5")


def test_rule_3_rows():
    assert pick("o5 + oox").rule_id == "3a"
    assert pick("o5 + oox").result == norm("xxo + oox")
    assert pick("o5 + a4 + a2 + oox").rule_id == "3b"
    assert pick("o5 + a4 + a2 + oox").result == norm("o5 + a4 + a2 + a2")
    assert pick("a4 + oox + o5 + o7").rule_id == "3c"
    assert pick("o7 + oox").rule_id == "3d"
    assert pick("o7 + oox").result == norm("o7 + a2")
    assert pick("oo9oo + o5").rule_id == "3e"
    assert pick("oo9oo + o5").result == norm("oo4 + o5")


def test_rule_4_rows():
    assert pick("oo10").rule_id == "4c" and pick("oo10").result == norm("o5")
    assert pick("oo12").rule_id == "4d" and pick("oo12").result == norm("o7")
    assert pick("oo14").result == norm("o11 + a2")
    assert pick("oo16").rule_id == "4f" and pick("oo16").result == norm("o11")
    assert pick("oo18").result == norm("o13")
    assert pick("oo20").result == norm("o17 + a2")
    assert pick("oo22").rule_id == "4i" and pick("oo22").result == norm("o17")


def test_rule_5_rows():
    assert pick("oo6 + oo6 + a4").rule_id == "5a"
    assert pick("oo6 + oo6 + a4").result == norm("xxo + oo6 + a4")
    assert pick("oo6 + oo6 + a2").rule_id == "5b"
    assert pick("oo6 + oo6").rule_id == "5c"
    assert pick("oo6 + oo6").result == norm("xxo + a2 + oo6")
    assert pick("oo6 + a4 + a2").rule_id == "5d"
    assert pick("oo6 + a4").rule_id == "5e"
    assert pick("oo6 + a4").result == norm("xxo + a4 + a2")
    assert pick("oo6 + a2").rule_id == "5f"
    assert pick("oo6 + a2").result == norm("xxo")
    assert pick("a4 + a2").rule_id == "5g"
    assert pick("a4 + a2").result == Game(())  # a2 + a2 cancels
    assert pick("oo6").rule_id == "5h" and pick("oo6").result == norm("xxo")
    assert pick("a4").rule_id == "5i" and pick("a4").result == norm("xxo")
    assert pick("a2").rule_id == "5j" and pick("a2").result == Game(())


def test_rule_6_rows():
    assert pick("o13").rule_id == "6a" and pick("o13").result == norm("o11")
    assert pick("o11").rule_id == "6b" and pick("o11").result == norm("o7 + xxo")
    assert pick("o7").rule_id == "6c" and pick("o7").result == norm("o5")
    assert pick("o5").rule_id == "6d" and pick("o5").result == norm("xxo")


def test_rule_7_rows():
    assert pick("oo8").rule_id == "7a"
    assert pick("oo8").result == norm("xxo + xxo + a2")
    assert pick("xxo").rule_id == "7b" and pick("xxo").result == Game(())


def test_corollary_openers_resolve_through_normalization():
    # a12 normalizes to a4 + a2; 5g then reaches 0 directly
    sm = pick("a12")
    assert sm.result == Game(())


def test_target_fallback_when_mandated_row_misses():
    sm = pick("oo8 + oo8 + a2")
    assert sm.rule_id == "5j-fallback"
    assert in_left_target(sm.result)


def test_known_target_gap_keeps_mandated_move():
    # no Left move from oo12 + a4 lands in S1/S2/LL/0; the 4b move stands
    sm = pick("oo12 + a4")
    assert sm.rule_id == "4b"
    assert not in_left_target(sm.result)


# Rule ids chosen over enumerate_s_games(18, 3); the spiral override never
# applies within these bounds, so both rulesets give the same histogram.
_RULE_HISTOGRAM_18_3 = {
    "1a": 1, "1b": 1, "1d": 46, "2": 21, "3a": 1, "3c": 3, "3d": 16, "3e": 10,
    "4a": 1, "4b": 1, "4c": 14, "4d": 8, "4e": 4, "4f": 2, "4g": 1,
    "5a": 1, "5b": 1, "5c": 4, "5d": 1, "5e": 5, "5f": 5, "5g": 6, "5h": 12,
    "5i": 16, "5j": 20, "5j-fallback": 1,
    "6a": 6, "6b": 5, "6c": 10, "6d": 9, "7a": 4, "7b": 3,
}


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_rule_histogram_on_enumerated_s_games(ruleset):
    games = list(enumerate_s_games(18, 3))
    assert len(games) == 239
    counts = Counter(choose_left_move(g, ruleset).rule_id for g in games)
    assert dict(counts) == _RULE_HISTOGRAM_18_3


def test_results_avoid_q():
    from linclob.taxonomy import in_Q
    for g in enumerate_s_games(14, 2):
        assert not in_Q(choose_left_move(g).result), g


def test_out_of_scope():
    with pytest.raises(NotInScope):
        choose_left_move(Game(()))
    with pytest.raises(NotInScope):
        choose_left_move(norm("x5"))  # negative part, no rule applies


def test_improved_override_spiral():
    g = norm("a14 + oo6")
    sm = improved_override(g)
    assert sm is not None and sm.rule_id == "spiral"
    assert sm.result == norm("o7")
    assert improved_override(norm("a14 + oo8")) is not None   # residual o5
    assert improved_override(norm("a14 + oo10")) is None      # j - k too small
    assert improved_override(norm("a16 + oo6")) is None       # residual would be o9
    assert choose_left_move(g, Ruleset.IMPROVED).rule_id == "spiral"
    assert choose_left_move(g, Ruleset.BASIC).rule_id == "1d"


def test_parameterized_rows_are_unambiguous():
    assert rule_rows_unique(30) == []
