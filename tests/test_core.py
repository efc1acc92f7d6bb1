import itertools

import pytest
from hypothesis import example, given, strategies as st

from linclob.core import (
    BLACK, WHITE, BudgetExceeded, EmptyPosition, Game, IllegalMove, Move,
    ParseError,
    add, alternating, apply_move, canonical, clobbers, expand_shorthand, flip,
    format_game, is_monochromatic, legal_moves, negate, opponent,
    parse_position, part_token,
)
from linclob.taxonomy import u_parts

parts = st.text(alphabet="ox", min_size=1, max_size=8)
games = st.lists(parts, min_size=0, max_size=4).map(Game.of)


def test_constants_and_flip():
    assert opponent(BLACK) == WHITE and opponent(WHITE) == BLACK
    assert flip("oxxo") == "xoox"
    assert flip(flip("oxxoxo")) == "oxxoxo"


def test_canonical_picks_lex_min_of_reversal():
    assert canonical("xxo") == "oxx"
    assert canonical("oxx") == "oxx"
    assert canonical("ooxo") == "ooxo"
    assert canonical("oxoo") == "ooxo"


@given(parts)
def test_canonical_is_idempotent_and_orientation_free(s):
    assert canonical(canonical(s)) == canonical(s)
    assert canonical(s[::-1]) == canonical(s)


def test_game_of_drops_monochromatic_and_sorts():
    g = Game.of(["xo", "ooo", "", "x", "oxx"])
    assert g.parts == ("ox", "oxx")
    assert g.stones() == 5
    assert bool(g)
    assert not Game.of(["oooo"])


@given(games)
def test_negate_is_an_involution(g):
    assert negate(negate(g)) == g


def test_add_merges_multisets():
    g = add(Game.of(["ox"]), Game.of(["ox", "oxx"]))
    assert g.parts == ("ox", "ox", "oxx")


def test_legal_moves_alternating_start():
    g = Game.of(["oxox"])
    black = legal_moves(g, BLACK)
    white = legal_moves(g, WHITE)
    assert len(black) == 3 and len(white) == 3
    # deterministic (part, from, to) order
    assert [(m.from_index, m.to_index) for m in black] == [(2, 1), (2, 3), (4, 3)]


def test_apply_move_splits_at_vacated_cell():
    g = Game.of(["oxoxo"])
    # x at cell 2 clobbers o at cell 1; the lone "x" piece is dropped
    assert apply_move(g, Move(0, 2, 1)).parts == ("oxo",)
    # x at cell 4 of oxox clobbers o at 3: left piece "oxx" survives
    assert apply_move(Game.of(["oxox"]), Move(0, 4, 3)).parts == ("oxx",)
    # x at cell 2 of oxox clobbers o at 3: both pieces ("o", "xx") vanish
    assert apply_move(Game.of(["oxox"]), Move(0, 2, 3)).parts == ()


def test_apply_move_rejects_illegal():
    with pytest.raises(IllegalMove):
        apply_move(Game.of(["oox"]), Move(0, 1, 2))  # same-color neighbors
    with pytest.raises(IllegalMove):
        apply_move(Game.of(["oxox"]), Move(0, 2, 4))  # not adjacent
    with pytest.raises(IllegalMove):
        apply_move(Game.of(["oxox"]), Move(3, 1, 2))  # no such part
    with pytest.raises(IllegalMove):
        apply_move(Game.of(["oxox"]), Move(-1, 2, 1))  # no such part either


def _scan_moves(g: Game, player: str) -> list[Move]:
    """Every clobber for `player` by a literal scan of the cells."""
    moves = []
    opp = opponent(player)
    for i, part in enumerate(g.parts):
        for f in range(len(part)):
            if part[f] != player:
                continue
            for t in (f - 1, f + 1):
                if 0 <= t < len(part) and part[t] == opp:
                    moves.append(Move(i, f + 1, t + 1))
    return moves


def test_clobber_table_matches_a_literal_cell_scan():
    # every stone string of 1-10 stones, either orientation, as a lone part
    for n in range(1, 11):
        for s in itertools.product("ox", repeat=n):
            g = Game(("".join(s),))
            for player in (BLACK, WHITE):
                assert legal_moves(g, player) == _scan_moves(g, player)
            legal = {(m.from_index, m.to_index)
                     for m in _scan_moves(g, BLACK) + _scan_moves(g, WHITE)}
            for f in range(n + 2):
                for t in range(n + 2):
                    m = Move(0, f, t)
                    if (f, t) in legal:
                        assert apply_move(g, m) == _apply_move_reference(g, m)
                    else:
                        with pytest.raises(IllegalMove):
                            apply_move(g, m)
    # every U part of up to 44 stones: the long parts the verifier reaches
    for part in u_parts(44):
        g = Game((part,))
        table = clobbers(part)
        scan = sorted((m.from_index, m.to_index)
                      for m in _scan_moves(g, BLACK) + _scan_moves(g, WHITE))
        assert list(table) == scan, part
        for (f, t), pieces in table.items():
            assert pieces == _apply_move_reference(g, Move(0, f, t)).parts, part


@given(games)
@example(Game.of(["ox", "oxo"]))  # oxo at index 1 here and at index 0 next
@example(Game.of(["oxo", "oxox"]))
@example(Game.of(["ox", "ox", "ox"]))  # copies of a part
@example(Game.of(["oox", "oxox", "oxox", "oxoxo", "xxo", "oxoxo"]))
def test_legal_moves_match_a_literal_scan_on_sums(g):
    # each part's moves come from a cache keyed by the part's index too, so
    # a part at another index, or a copy of it, names its own index
    for player in (BLACK, WHITE):
        assert legal_moves(g, player) == _scan_moves(g, player)


def test_legal_moves_returns_a_fresh_list():
    g = Game.of(["oxo", "oxo", "oxox"])
    for player in (BLACK, WHITE):
        moves = legal_moves(g, player)
        moves.reverse()
        moves.append(Move(0, 1, 2))
        assert legal_moves(g, player) == _scan_moves(g, player)
        moves.clear()
        assert legal_moves(g, player) == _scan_moves(g, player)


def _apply_move_reference(g: Game, m: Move) -> Game:
    """Re-canonicalise every part after the clobber (the plain construction)."""
    part = g.parts[m.part_index]
    f, t = m.from_index - 1, m.to_index - 1
    cells = list(part)
    cells[t] = cells[f]
    rest = list(g.parts[:m.part_index]) + list(g.parts[m.part_index + 1:])
    return Game.of(rest + ["".join(cells[:f]), "".join(cells[f + 1:])])


@given(games)
def test_apply_move_matches_full_recanonicalisation(g):
    for player in (BLACK, WHITE):
        for m in legal_moves(g, player):
            assert apply_move(g, m) == _apply_move_reference(g, m)


@given(games.filter(lambda g: g.parts))
def test_moves_reduce_stone_count(g):
    # one stone is captured; monochromatic pieces may drop out as well
    for player in (BLACK, WHITE):
        for m in legal_moves(g, player):
            assert apply_move(g, m).stones() <= g.stones() - 1


def test_expand_shorthand_families():
    assert expand_shorthand("a6") == "oxoxox"
    assert expand_shorthand("o5") == "oxoxo"
    assert expand_shorthand("x5") == "xoxox"
    assert expand_shorthand("oo6") == "ooxoxo"
    assert expand_shorthand("xx4") == "xxox"
    assert expand_shorthand("oo5oo") == "ooxoo"
    assert expand_shorthand("oo6xx") == "ooxoxx"
    assert expand_shorthand("xx6oo") == "xxoxoo"   # oAx read from its x end
    assert expand_shorthand("xx5xx") == "xxoxx"
    assert expand_shorthand("xxo") == "xxo"
    assert expand_shorthand("oox") == "oox"


def test_expand_shorthand_rejects_bad_parity():
    for bad in ("a5", "o4", "oo0", "a0", "q3", "oo4oo", "oo5xx", "oo2",
                "oo3oo", "a4oo", "o5xx"):
        with pytest.raises(ParseError):
            expand_shorthand(bad)


def test_parse_position_checks_budget_before_expanding():
    assert parse_position("a4 + oox", 7).stones() == 7
    with pytest.raises(BudgetExceeded):
        parse_position("a4 + oox + a2", 8)
    with pytest.raises(BudgetExceeded):
        parse_position("oo7 + a10", 10)    # the second token has 3 left
    # monochromatic parts are dropped, so they spend none of the budget
    assert parse_position("ooo + a4 + o1", 4).parts == ("oxox",)
    # bad parity is a parse error whatever the budget
    with pytest.raises(ParseError):
        parse_position(f"a{10 ** 9 + 1}", 4)
    with pytest.raises(BudgetExceeded):
        parse_position(f"oo{10 ** 9}xx", 4)
    # stone strings and literal tokens count against the budget as well
    assert parse_position("oxox-ooo", 4).parts == ("oxox",)
    with pytest.raises(BudgetExceeded):
        parse_position("oxox-ox", 5)
    with pytest.raises(BudgetExceeded):
        parse_position("a2 + oxox", 5)


def test_parse_position_both_notations():
    assert parse_position("oxox").parts == ("oxox",)
    assert parse_position("ox-xo").parts == ("ox", "ox")
    assert parse_position("a4 + a2").parts == ("ox", "oxox")
    assert parse_position("xxo + oo5").parts == ("ooxox", "oxx")
    with pytest.raises(EmptyPosition):
        parse_position("---")
    with pytest.raises(ParseError):
        parse_position("a4 ++ a2")


@given(games.filter(lambda g: g.parts))
def test_stones_format_parse_round_trip(g):
    assert parse_position(format_game(g, "stones")) == g


def test_short_format_parse_round_trip():
    for text in ("a8", "oo7 + a2", "oo9oo + xxo + o5", "xx6 + oox"):
        g = parse_position(text)
        assert parse_position(format_game(g, "short")) == g


def test_format_empty_game():
    assert format_game(Game(()), "short") == "0"
    assert format_game(Game(()), "stones") == "-"
    with pytest.raises(ValueError, match="unknown format style 'bogus'"):
        format_game(Game(()), "bogus")


def test_part_token_prefers_shortest():
    assert part_token("oxoxox") == "a6"
    assert part_token("ox") == "ox"
    assert part_token("ooxoxo") == "oo6"
    assert part_token("oxx") == "oxx"
    # an oAx member is written from the end it starts with
    assert part_token("ooxoxx") == "oo6xx"
    assert part_token("xxoxoo") == "xx6oo"


def test_alternating_and_monochromatic():
    assert alternating(5, "o") == "oxoxo"
    assert alternating(4, "x") == "xoxo"
    for n in range(42):
        for c in (BLACK, WHITE):
            cells = "".join(c if i % 2 == 0 else opponent(c) for i in range(n))
            assert alternating(n, c) == cells
    assert is_monochromatic("ooo") and not is_monochromatic("oxo")
