from collections import Counter
from functools import lru_cache

import pytest

from linclob import cli, strategy, verifier
from linclob.core import (
    BLACK, Game, Move, apply_move, canonical, clobbers, expand_shorthand,
    legal_moves, parse_position,
)
from linclob.asf import normalize, normalize_trace, part_successors
from linclob.strategy import (
    NotInScope, Ruleset, StrategyGap, StrategyMove, choose_left_move, left_child,
)
from linclob.taxonomy import classify_part, enumerate_s_games, in_left_target, k_parts
from linclob.verifier import check_theorem_left, verify_range


def norm(text: str) -> Game:
    return normalize(parse_position(text))


def literal(g: Game) -> Game:
    """The standard form by the literal rewriter, the reference for the
    table's fast paths, which read `normalize`."""
    return normalize_trace(g)[0]


def pick(text: str, ruleset: Ruleset = Ruleset.BASIC) -> StrategyMove:
    return choose_left_move(norm(text), ruleset)


@lru_cache(maxsize=None)
def literal_part(token: str) -> str:
    return canonical(expand_shorthand(token))


@lru_cache(maxsize=None)
def literal_form(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """The standard form of the shorthand `tokens` by the literal rewriter."""
    return literal(Game.of(expand_shorthand(t) for t in tokens)).parts


def literal_row(rule_id: str, token: str, *tokens: str) -> tuple[str, str, tuple]:
    """A row (rule id, part, form) from shorthand, its form by the literal
    rewriter."""
    return rule_id, literal_part(token), literal_form(tokens)


def literal_spiral_row(parts: tuple[str, ...]) -> tuple[str, str, tuple] | None:
    """The improved ruleset's row by the paper's statement, a(2j) + oo(2k) ->
    o(2(j-k)-1) + xx(2k), only when j >= k + 3 and the remaining part is not
    o9; the reference for `strategy._spiral_row`."""
    for a, oo in (parts, parts[::-1]) if len(parts) == 2 else ():
        j, k = len(a) // 2, len(oo) // 2
        m = 2 * (j - k) - 1
        if (k >= 2 and j >= k + 3 and m != 9 and a == literal_part(f"a{2 * j}")
                and oo == literal_part(f"oo{2 * k}")):
            return literal_row("spiral", f"a{2 * j}", f"o{m}", f"xx{2 * k}")
    return None


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


def test_oo8_family_rows():
    # on k >= 2 copies of oo8 plus a2, or plus a4 + a2, rows 5j and 5g would
    # leave k·oo8, outside the target; the family's rows move the first oo8
    # to o5 + a2, whose a2 cancels the game's a2
    oo8 = literal_part("oo8")
    for k in range(2, 6):
        for rule_id, rest in (("5j-fallback", ["a2"]), ("5g-fallback", ["a4", "a2"])):
            g = norm(" + ".join(["oo8"] * k + rest))
            sm = choose_left_move(g)
            assert sm.rule_id == rule_id, g
            # x at 3 clobbers o at 2 on the first oo8: ox + oxoxo is a2 + o5
            assert g.parts[0] == oo8 and sm.move == Move(0, 3, 2), g
            assert sm.result == norm(" + ".join(["oo8"] * (k - 1) + ["o5"] + rest[:-1])), g
            assert in_left_target(sm.result), g
    # a neighbouring game keeps the table's own row
    for text, rule_id in (("oo8 + a2", "5j"), ("oo8 + oo8 + a4", "5i"),
                          ("oo8 + oo8 + a2 + xxo", "5j"),
                          ("oo8 + oo8 + o5 + a2", "5j")):
        assert pick(text).rule_id == rule_id, text


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

# The basic rule ids over enumerate_s_games(24, 4), which reaches 1c, 3b, 4h,
# 4i and 5g-fallback as well; the improved ruleset plays the spiral on four
# of its 1d games.
_RULE_HISTOGRAM_24_4 = {
    "1a": 1, "1b": 1, "1c": 1, "1d": 258, "2": 163,
    "3a": 1, "3b": 1, "3c": 22, "3d": 83, "3e": 92,
    "4a": 1, "4b": 1, "4c": 68, "4d": 42, "4e": 27, "4f": 16, "4g": 9,
    "4h": 4, "4i": 3,
    "5a": 7, "5b": 6, "5c": 16, "5d": 6, "5e": 16, "5f": 21, "5g": 24,
    "5g-fallback": 1, "5h": 38, "5i": 48, "5j": 61, "5j-fallback": 1,
    "6a": 32, "6b": 17, "6c": 25, "6d": 18, "7a": 8, "7b": 4,
}


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_rule_histogram_on_enumerated_s_games(ruleset):
    spiral = {"1d": 254, "spiral": 4} if ruleset is Ruleset.IMPROVED else {}
    for bounds, size, histogram in (
            ((18, 3), 239, _RULE_HISTOGRAM_18_3),
            ((24, 4), 1143, {**_RULE_HISTOGRAM_24_4, **spiral})):
        games = list(enumerate_s_games(*bounds))
        assert len(games) == size
        counts = Counter(choose_left_move(g, ruleset).rule_id for g in games)
        assert dict(counts) == histogram, bounds


def test_results_avoid_q():
    from linclob.taxonomy import in_Q
    for g in enumerate_s_games(14, 2):
        assert not in_Q(choose_left_move(g).result), g


def test_out_of_scope():
    # the rule table is Left's strategy on S0 games only: rows 1d and 3e
    # would match a8 + x5 and oo9oo + a4, and none the empty game
    for g in (norm("x5"), norm("a8 + x5"), norm("oo9oo + a4"), Game(())):
        for ruleset in Ruleset:
            with pytest.raises(NotInScope, match="outside the strategy's scope"):
                choose_left_move(g, ruleset)
    # x5 is a negative part: no row of the table matches it
    with pytest.raises(StrategyGap, match="no rule matches xoxox"):
        left_child(norm("x5").parts)
    with pytest.raises(StrategyGap, match="no rule matches -"):
        left_child(())


def test_improved_override_spiral():
    sm = pick("a14 + oo6", Ruleset.IMPROVED)
    assert sm.rule_id == "spiral" and sm.result == norm("o7")
    assert pick("a14 + oo8", Ruleset.IMPROVED).rule_id == "spiral"  # residual o5
    assert pick("a14 + oo6").rule_id == "1d"
    for text in ("a14 + oo10",          # j - k too small
                 "a16 + oo6",           # residual would be o9
                 "a14"):                # no oO part to cancel
        assert pick(text, Ruleset.IMPROVED) == pick(text), text


def test_row_clobbers_match_a_literal_filter():
    # the whole-game, fixed, lone-K-part and spiral rows up to 30 stones,
    # each form that of the row's shorthand tokens by the literal rewriter;
    # each form's entry in the part's table holds the Left clobbers whose
    # pieces literally normalize to it, and they leave one raw position
    whole = strategy._WHOLE_GAME_TOKENS
    want = [literal_row(r, p, *t) for r, p, t in whole.values()]
    assert list(strategy._WHOLE_GAME_ROWS.items()) == list(
        zip([literal_form(game) for game in whole], want))
    for r in strategy._RULE_TOKENS:
        if len(r) == 4:
            row = literal_row(r[0], r[2], *r[3])
            assert row in [found for _, found, _ in strategy._part_rows(row[1])]
            want.append(row)
    lone = [literal_rule_row(Game((p,))) for p in k_parts(30)]
    assert [strategy._rule_row((p,)) for p in k_parts(30)] == lone
    want += lone
    for a in range(4, 31, 2):
        for oo in range(4, a, 2):
            parts = (literal_part(f"a{a}"), literal_part(f"oo{oo}"))
            row = literal_spiral_row(parts)
            assert strategy._spiral_row(parts) == row, parts
            if row is not None:
                want.append(row)
    kinds = {rule_id for rule_id, _, _ in want}
    assert {"1a", "4b", "3b", "7b", "1d", "6a", "spiral"} <= kinds
    for rule_id, part, form in want:
        hits = tuple(c for c, pieces in clobbers(part).items()
                     if part[c[0] - 1] == BLACK
                     and literal(Game(pieces)).parts == form)
        assert part_successors(part, BLACK).get(form, ()) == hits, \
            (rule_id, part, form)
        assert len({clobbers(part)[c] for c in hits}) == 1, (rule_id, part, form)


def _whole_game_search(g: Game, rule_id: str, part: str,
                       form: tuple[str, ...]) -> StrategyMove | None:
    """The literal realization of a row: the first Left move on `part` whose
    literally normalized whole result equals that of g - part + form."""
    rest = list(g.parts)
    rest.remove(part)
    expected = literal(Game.of(rest + list(form)))
    for m in legal_moves(g, BLACK):
        if g.parts[m.part_index] == part:
            result = literal(apply_move(g, m))
            if result == expected:
                return StrategyMove(rule_id, m, result)
    return None


def literal_rule_row(g: Game) -> tuple[str, str, tuple[str, ...]]:
    """The row of the first applicable rule by the literal scan of the
    shorthand tables: the oo8-family rows, then the paper's table
    (`literal_table_row`); the reference for the lookup of
    `strategy._rule_row`."""
    oo8s = g.parts.count(literal_part("oo8"))
    for rest, (rule_id, tokens) in strategy._OO8_FAMILY_TOKENS.items():
        if oo8s >= 2 and literal_form(("oo8",) * oo8s + rest) == g.parts:
            return literal_row(rule_id, "oo8", *tokens)
    return literal_table_row(g)


def literal_table_row(g: Game) -> tuple[str, str, tuple[str, ...]]:
    """The row of the first applicable rule of the paper's table by the
    literal scan of its shorthand: the whole-game rows, then every row of
    `_RULE_TOKENS` in order, each form by the literal rewriter."""
    for game, (rule_id, part, tokens) in strategy._WHOLE_GAME_TOKENS.items():
        if literal_form(game) == g.parts:
            return literal_row(rule_id, part, *tokens)
    have = Counter(g.parts)
    for row in strategy._RULE_TOKENS:
        if len(row) == 4:
            rule_id, needs, part, tokens = row
            needs = Counter(map(literal_part, needs))
            if (literal_part(part) in have
                    and all(have[p] >= n for p, n in needs.items())):
                return literal_row(rule_id, part, *tokens)
        else:
            rule_id, flag, least, head, shift = row
            fits = [p for p in have if len(p) >= least and flag in classify_part(p)]
            if fits:
                p = min(fits, key=lambda q: (len(q), q))
                return rule_id, p, literal_form((f"{head}{len(p) + shift}",))
    raise StrategyGap(f"no rule matches {g}")


def test_row_lookup_matches_the_literal_scan(monkeypatch):
    games = list(enumerate_s_games(30, 4))
    assert len(games) == 3353
    # every non-empty Left node of an 8..50 run, in both rulesets; each
    # node's move is legal and its literal result is the node's child
    left_child = verifier.left_child
    for ruleset, keys in ((Ruleset.BASIC, 10905), (Ruleset.IMPROVED, 10602)):
        nodes = {}

        def recorded(parts, ruleset):
            nodes[parts] = left_child(parts, ruleset)
            return nodes[parts]
        monkeypatch.setattr(verifier, "left_child", recorded)
        verify_range(range(8, 51, 2), ruleset)
        assert len(nodes) == keys
        for parts, (_, move, child) in nodes.items():
            g, m = Game(parts), Move(*move)
            assert m in legal_moves(g, BLACK), (g, m)
            assert literal(apply_move(g, m)).parts == child, (g, m)
        games += map(Game, nodes)
    for g in games:
        assert strategy._rule_row(g.parts) == literal_rule_row(g), g


def _reference_move(g: Game, ruleset: Ruleset) -> StrategyMove:
    """The move of the paper's table by the literal search over the whole
    game; where its child misses the target, the first Left move in
    `legal_moves` order whose child hits it, with the rule id suffixed
    "-fallback"; with none, the table's move."""
    spiral = literal_spiral_row(g.parts) if ruleset is Ruleset.IMPROVED else None
    row = spiral or literal_table_row(g)
    chosen = _whole_game_search(g, *row)
    assert chosen is not None, g
    if in_left_target(chosen.result):
        return chosen
    for m in legal_moves(g, BLACK):
        result = literal(apply_move(g, m))
        if in_left_target(result):
            return StrategyMove(chosen.rule_id + "-fallback", m, result)
    return chosen


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_rows_match_the_whole_game_search(ruleset):
    # the table's move where it hits the target, else the first move that
    # does: the oo8-family rows play exactly that move, and the table's move
    # stands where none hits (oo12 + a4)
    games = list(enumerate_s_games(24, 4))
    assert len(games) == 1143
    for g in games:
        assert choose_left_move(g, ruleset) == _reference_move(g, ruleset), g


def test_planted_row_gaps_show_in_theorem_left(rule_rows):
    # with 5j's a2 -> 0 planted first, a game holding a2 often leaves the
    # target; the planted move stands, and the theorem check reports each
    # game it sends outside the target, besides the known gap oo12 + a4.
    # The oo8-family rows come before it, on 2·oo8 + a2 and 2·oo8 + a4 + a2.
    rule_rows((("planted", ("a2",), "a2", ()),) + strategy._RULE_TOKENS)
    games = list(enumerate_s_games(24, 4))
    moves = [choose_left_move(g) for g in games]
    for g, sm in zip(games, moves):
        assert sm == _whole_game_search(g, *literal_rule_row(g)), g
    assert sum(sm.rule_id == "planted" for sm in moves) == 368
    missed = [(g, sm) for g, sm in zip(games, moves) if not in_left_target(sm.result)]
    assert Counter(sm.rule_id for _, sm in missed) == {"planted": 236, "4b": 1}
    report = check_theorem_left(24, 4)
    assert report.instances_checked == len(games)
    assert report.failures == [(g, sm.move, sm.result) for g, sm in missed]


def test_row_no_move_realizes_is_a_gap(rule_rows, capsys):
    # a planted first row sends a8 to o7, which no Left move on a8 leaves
    _, part, form = literal_row("planted", "a8", "o7")
    assert all(literal(Game(pieces)).parts != form
               for c, pieces in clobbers(part).items() if part[c[0] - 1] == BLACK)
    rule_rows((("planted", ("a8",), "a8", ("o7",)),) + strategy._RULE_TOKENS)
    message = "rule planted: no Left move on a8 reaches o7"
    with pytest.raises(StrategyGap) as gap:
        choose_left_move(norm("a8"))
    assert str(gap.value) == message
    assert cli.run(["best", "a8"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
