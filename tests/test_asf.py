from itertools import product

from hypothesis import example, given, settings, strategies as st

from linclob.core import (
    BLACK, WHITE, Game, apply_move, canonical, clobbers, flip, is_monochromatic,
    legal_moves, parse_position,
)
from linclob.asf import (
    apply_once, normalize, normalize_trace, normalized_children,
    part_successors, potential, rule_table,
)
from linclob.oracle import SolveCache, equivalent
from linclob.taxonomy import enumerate_s_games, u_parts


def norm(text: str) -> Game:
    return normalize(parse_position(text))


def test_rule_table_order_and_names():
    names = [r.name for r in rule_table()]
    assert names == ["alpha", "-alpha", "beta", "gamma", "-gamma",
                     "delta", "-delta", "epsilon", "-epsilon", "zeta", "-zeta",
                     "eta", "-eta"]


def test_alpha_deletions():
    for text in ("o", "oo", "ooo", "ooxx", "oxoxox", "xxoo", "xoxoxo"):
        assert norm(text) == Game(())


def test_beta_cancels_negative_pairs():
    assert norm("ox + xo") == Game(())
    assert norm("xxo + oox") == Game(())
    assert norm("oo7 + xx7") == Game(())
    # multiplicity: a self-negative part keeps its count mod 2, and p and -p
    # cancel copy for copy
    assert norm("a2 + a2 + a2") == parse_position("a2")
    assert norm("a4 + a4") == Game(())
    assert norm("oox + oox + xxo") == parse_position("oox")
    assert norm("oox + xxo + xxo") == parse_position("xxo")


def test_gamma_delta_epsilon_zeta_eta():
    assert norm("oxo") == parse_position("ox")
    assert norm("ooxox") == parse_position("ox")
    assert norm("ooxoxoo") == parse_position("ox")
    assert norm("xxoxoxx") == parse_position("ox")
    assert norm("o9") == norm("ooxo")           # delta chains into eta
    assert norm("ooxoxx") == parse_position("oxox + ox")
    assert norm("a12") == parse_position("a4 + a2")
    assert norm("ooxoo") == parse_position("oox")
    assert norm("ooxo") == parse_position("xxo + ox")


def test_standard_form_table_rows():
    rows = [("a6", "0"), ("a12", "a4 + a2"), ("o3", "a2"),
            ("oo4", "xxo + a2"), ("oo5", "a2"), ("oo5oo", "oox"),
            ("oo7oo", "a2"), ("oo6xx", "a4 + a2")]
    for src, want in rows:
        expected = Game(()) if want == "0" else parse_position(want)
        assert norm(src) == expected, src


def test_strategy_support_identities():
    assert norm("o5 + xxox + a4") == parse_position("o5 + oox + a4 + a2")
    assert norm("ooxo + a4") == parse_position("xxo + a4 + a2")


def test_fixpoints_are_irreducible():
    for text in ("oo8", "o5", "oo7", "oox", "xxo", "a4", "oo9oo"):
        g = parse_position(text)
        assert normalize(g) == g
        assert apply_once(g) is None


def test_trace_records_each_step():
    fixpoint, trace = normalize_trace(parse_position("oo5"))
    assert fixpoint == parse_position("a2")
    assert [name for name, _ in trace]  # at least one rewrite happened
    assert trace[-1][1] == fixpoint


parts = st.text(alphabet="ox", min_size=1, max_size=7)
games = st.lists(parts, min_size=0, max_size=3).map(Game.of)


@given(games)
@settings(max_examples=100, deadline=None)
def test_normalize_is_idempotent(g):
    assert normalize(normalize(g)) == normalize(g)


@given(games)
@settings(max_examples=100, deadline=None)
def test_each_step_decreases_potential(g):
    while True:
        step = apply_once(g)
        if step is None:
            break
        _, h = step
        assert potential(h.parts) < potential(g.parts)
        g = h


@given(games.filter(lambda g: g.stones() <= 10))
@settings(max_examples=40, deadline=None)
def test_normalize_preserves_equivalence(g):
    cache = SolveCache(order="fast")
    assert equivalent(g, normalize(g), cache)


def _small_parts(max_stones: int) -> list[str]:
    """Every distinct canonical non-monochromatic part of 2..max_stones stones."""
    return sorted({canonical("".join(cells))
                   for k in range(2, max_stones + 1)
                   for cells in product("ox", repeat=k)
                   if not is_monochromatic("".join(cells))})


def _normalizes_like_the_reference(g: Game) -> bool:
    """normalize(g) is g itself when g is in standard form, and otherwise a
    new game equal to the literal rewriter's standard form."""
    got, want = normalize(g), normalize_trace(g)[0]
    return got is g if want == g else got is not g and got == want


def test_normalize_matches_literal_reference_on_small_sums():
    # Every sum of at most two parts of 2..8 stones.
    pool = _small_parts(8)
    sums = [Game(())] + [Game((p,)) for p in pool]
    sums += [Game.of([p, q]) for i, p in enumerate(pool) for q in pool[i:]]
    mismatches = [g for g in sums if not _normalizes_like_the_reference(g)]
    assert mismatches == []


def test_normalize_returns_a_standard_form_game_itself():
    games = list(enumerate_s_games(20, 4))
    assert len(games) > 400
    assert [g for g in games if normalize(g) is not g] == []


@st.composite
def sums_with_negatives(draw):
    """1-5 parts where some parts come with the negative of the part or of
    one piece of its standard form."""
    base = draw(st.lists(st.text(alphabet="ox", min_size=1, max_size=10),
                         min_size=1, max_size=3))
    pieces = [q for p in base for q in normalize(Game.of([p])).parts]
    negated = draw(st.lists(st.sampled_from(base + pieces),
                            max_size=5 - len(base)))
    return Game.of(base + [flip(p) for p in negated])


@given(sums_with_negatives())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_literal_reference(g):
    assert _normalizes_like_the_reference(g)


def _successors_match_reference(g: Game) -> None:
    """Each part's move table maps the literal rewriter's standard form of
    each raw child of the lone part, in first-occurrence `legal_moves` order,
    to the clobbers that reach it, in `legal_moves` order."""
    for player in (BLACK, WHITE):
        for part in g.parts:
            lone = Game((part,))
            table = {}
            for m in legal_moves(lone, player):
                form = normalize_trace(apply_move(lone, m))[0].parts
                table.setdefault(form, []).append((m.from_index, m.to_index))
            want = [(form, tuple(moves)) for form, moves in table.items()]
            assert list(part_successors(part, player).items()) == want, (part, player)


def _children_match_distinct_successors(g: Game) -> None:
    """normalized_children gives the distinct literal standard forms of the
    raw children of g, in first-occurrence `legal_moves` order, none of them
    twice, each with the part of the first legal move that reaches it and
    every clobber on that part that reaches it, in `legal_moves` order."""
    for player in (BLACK, WHITE):
        got = list(normalized_children(g.parts, player))
        want = {}
        for m in legal_moves(g, player):
            child = normalize_trace(apply_move(g, m))[0].parts
            i, moves = want.setdefault(child, (m.part_index, []))
            if m.part_index == i:
                moves.append((m.from_index, m.to_index))
        assert got == [(i, tuple(moves), child)
                       for child, (i, moves) in want.items()], (g, player)


def test_successors_match_normalize_on_every_small_s_game():
    games = list(enumerate_s_games(20, 4))
    assert len(games) > 400
    for g in games:
        _successors_match_reference(g)


def test_children_match_distinct_successors_on_every_small_s_game():
    for g in enumerate_s_games(20, 4):
        _children_match_distinct_successors(g)


_U_POOL = u_parts(12)
_SELF_NEGATIVE = [p for p in _U_POOL if canonical(flip(p)) == p]  # a(2n), oAx


@st.composite
def standard_u_sums(draw):
    """Standard-form sums of 1-5 U parts, mixing in copies of a part,
    self-negative parts and the negatives of the standard-form pieces a move
    on a part leaves, so that a move's new parts meet what they cancel."""
    base = draw(st.lists(st.sampled_from(_U_POOL), min_size=1, max_size=3))
    extra = []
    for p in base:
        kind = draw(st.sampled_from(("none", "copy", "self", "negative")))
        if kind == "copy":
            extra.append(p)
        elif kind == "self":
            extra.append(draw(st.sampled_from(_SELF_NEGATIVE)))
        elif kind == "negative" and clobbers(p):
            pieces = draw(st.sampled_from(list(clobbers(p).values())))
            extra += [flip(q) for q in normalize(Game(pieces)).parts]
    return normalize(Game.of((base + extra)[:5]))


@given(standard_u_sums())
# a move that leaves the negative of a part held twice cancels one copy
@example(parse_position("oox + oox + a4"))  # Left's 4->3 on a4 leaves xxo
@example(parse_position("oo6 + xxo + xxo"))  # Right's 4->5 on oo6 leaves oox
@settings(max_examples=300, deadline=None)
def test_successors_match_normalize_on_random_u_sums(g):
    _successors_match_reference(g)


@given(standard_u_sums())
@example(parse_position("oox + oox + a4"))
@example(parse_position("oo6 + xxo + xxo"))
@settings(max_examples=300, deadline=None)
def test_children_match_distinct_successors_on_random_u_sums(g):
    _children_match_distinct_successors(g)
