from itertools import combinations_with_replacement, product

import pytest

from linclob.core import (
    SHAPE_FAMILIES, Game, canonical, expand_shorthand, flip, parse_position,
    part_token, shape,
)
from linclob.asf import normalize
from linclob.taxonomy import (
    NotInK, SClass, classify_part, count_vector, enumerate_s_games, in_K,
    in_LL, in_Q, in_S0, in_U, in_left_target, k_parts, part_slot, s_class,
    u_parts, _CLASSES, _multisets,
)


def part(token: str) -> str:
    return canonical(expand_shorthand(token))


def norm(text: str) -> Game:
    return normalize(parse_position(text))


def test_shape_membership_is_orientation_free():
    assert shape("oxox")[0] == "A" and shape("xoxo")[0] == "A"
    assert shape("oxoxo")[0] == "O" and shape("xoxox")[0] != "O"
    assert shape("xoxox")[0] == "X"
    assert shape("ooxox")[0] == "oA" and shape("xoxoo")[0] == "oA"
    assert shape("ooxoxo")[0] == "oO"
    assert shape("ooxoo")[0] == "oOo"
    assert shape("ooxoxx")[0] == "oAx"
    assert shape("xxo")[0] == "Ax"


def _run_from_o(s: str, parity: int) -> bool:
    """An alternating run that begins with o, of the given length parity."""
    return s[:1] == "o" and len(s) % 2 == parity and \
        all(a != b for a, b in zip(s, s[1:]))


def _literal_shape(s: str, name: str) -> bool:
    """The module docstring's prose for one orientation of s."""
    flipped = {"X": "O", "Ax": "oA", "xX": "oO", "xXx": "oOo"}
    if name in flipped:
        return _literal_shape(flip(s), flipped[name])
    return {
        "A": _run_from_o(s, 0) or _run_from_o(flip(s), 0),
        "O": _run_from_o(s, 1) and s[-1] == "o",
        "oA": s[0] == "o" and _run_from_o(s[1:], 0),
        "oO": s[0] == "o" and _run_from_o(s[1:], 1),
        "oOo": s[0] == s[-1] == "o" and _run_from_o(s[1:-1], 1),
        "oAx": s[0] == "o" and s[-1] == "x" and _run_from_o(s[1:-1], 0),
    }[name]


def test_shape_table_matches_the_prose_definitions():
    # every two-colour string of 2-12 stones, in either orientation
    for k in range(2, 13):
        for cells in product("ox", repeat=k):
            s = "".join(cells)
            if len(set(s)) < 2:
                continue
            named = [name for name in SHAPE_FAMILIES
                     if _literal_shape(s, name) or _literal_shape(s[::-1], name)]
            for name in SHAPE_FAMILIES:
                assert (shape(s)[0] == name) == (name in named), (s, name)
            # the families are disjoint, so shape names the one that holds s
            assert len(named) <= 1, s
            assert shape(s)[0] == (named[0] if named else None), s


def test_part_token_expands_back_to_the_part():
    for p in u_parts(40):
        if len(set(p)) == 2:
            assert expand_shorthand(part_token(p)) in (p, p[::-1]), p
    # both orientations of every U string of 2-12 stones
    strings = {s for p in u_parts(12) if len(p) >= 2 for s in (p, p[::-1])}
    assert len(strings) == 80
    for s in strings:
        assert expand_shorthand(part_token(s)) in (s, s[::-1]), s


def test_primed_class_flags():
    assert "Aprime" in classify_part(part("a8"))
    for excluded in ("a2", "a4", "a6", "a12"):
        assert "Aprime" not in classify_part(part(excluded))
    assert "Oprime" in classify_part(part("o5"))
    assert "Oprime" not in classify_part(part("o3"))
    assert "Oprime" not in classify_part(part("o9"))
    assert "oOprime" in classify_part(part("oo10"))
    assert "oOprime" not in classify_part(part("oo8"))
    assert "oAprime" in classify_part(part("oo7"))
    assert "oAprime" not in classify_part(part("oo5"))
    assert "oOoprime" in classify_part(part("oo9oo"))
    assert "oOoprime" in classify_part(part("oox"))  # oo3 counts in slot c
    assert "oOoprime" not in classify_part(part("oo7oo"))
    assert "I" in classify_part(part("a2"))
    assert "I" in classify_part(part("a4"))
    assert "I" in classify_part(part("oo6"))
    assert "XXO" in classify_part(part("xxo"))
    assert "OO8" in classify_part(part("oo8"))


def test_excluded_parts_reduce_out_of_their_shape():
    # every primed-set exclusion disappears or changes shape under ASF
    for token in ("a6", "a12", "o3", "o9", "oo4", "oo6xx", "oo5", "oo5oo", "oo7oo"):
        g = norm(token)
        assert all(p != part(token) for p in g.parts), token


def test_k_slots_are_disjoint_and_exclusive():
    # on each U part, in either orientation, at most one class test holds,
    # part_slot names it, and its flag is the part's one class flag
    flags = {flag for flag, _ in _CLASSES}
    for p in u_parts(60):
        for s in (p, p[::-1]):
            holds = [i for i, (_, test) in enumerate(_CLASSES)
                     if test(shape(s)[0], len(s))]
            assert len(holds) <= 1, (s, holds)
            assert part_slot(s) == (holds[0] if holds else None), s
            assert classify_part(s) & flags == {_CLASSES[i][0] for i in holds}, s


def test_part_slot_and_in_k():
    # one member of each class, in slot order (a, b, c, d, e, f, y, z)
    members = ("o5", "oo10", "oox", "a4", "xxo", "oo8", "a8", "oo7")
    for slot, token in enumerate(members):
        assert part_slot(part(token)) == slot, token
        assert in_K(part(token)), token
    for token in ("a6", "o9"):  # A and O members outside every class
        assert part_slot(part(token)) is None, token
        assert not in_K(part(token)), token


def test_count_vector_slots():
    g = norm("o5 + oo10 + oo9oo + a4 + xxo + oo8 + a8 + oo7")
    assert count_vector(g) == (1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(NotInK):
        count_vector(Game.of(["xoxox"]))  # negative part: no slot


def test_in_u_covers_negatives_too():
    assert in_U("xoxox") and in_U("xxoxo") and in_U("oxoxo")
    assert not in_U("ooxxo")


def test_u_parts_is_every_u_part():
    brute = {canonical("".join(cells))
             for k in range(1, 13) for cells in product("ox", repeat=k)
             if in_U("".join(cells))}
    parts = u_parts(12)
    assert parts == sorted(brute, key=lambda p: (len(p), p))
    assert len(parts) == 51
    assert [p for p in parts if len(set(p)) < 2] == ["o", "x"]
    for n in (3, 12, 18):
        assert set(k_parts(n)) <= set(u_parts(n))


def test_q_and_ll_exact_matching():
    assert in_Q(norm("o5 + a2"))
    assert in_Q(norm("o7 + a4"))
    assert in_Q(norm("o15 + a4 + a2"))
    assert in_LL(norm("oo8"))
    assert in_LL(norm("o5 + oox + a4 + a2"))
    assert in_LL(norm("a14 + xxo + a4 + a2"))
    assert not in_Q(norm("oo8 + a2")) and not in_LL(norm("oo8 + a2"))


def test_s_class_examples():
    assert s_class(norm("xxo")) is SClass.S2
    assert s_class(norm("a4 + a2 + xxo")) is SClass.S2
    assert s_class(norm("oo8 + oo14")) is SClass.S0only
    assert s_class(norm("o5")) is SClass.S1
    assert s_class(norm("o5 + a2")) is SClass.S0only  # in Q, so not S1
    assert s_class(norm("a8")) is SClass.S0only       # y=1 start
    assert s_class(norm("oox")) is SClass.NotInS      # a >= c fails
    assert s_class(Game(())) is SClass.NotInS


def literal_s_class(g: Game) -> SClass:
    """The S-family conditions as the paper states them, on the count vector;
    the reference for `s_class`."""
    if not g.parts:
        return SClass.NotInS
    try:
        a, b, c, d, e, f, y, z = count_vector(g)
    except NotInK:
        return SClass.NotInS
    in_s0 = ((y, z) == (1, 0) and a >= c) or \
            ((y, z) == (0, 0) and a >= c) or \
            ((y, z) == (0, 1) and a >= c + 1)
    if (y, z) == (0, 0) and a >= c + 1 and not in_Q(g):
        return SClass.S1
    if (y, z, a, b, c) == (0, 0, 0, 0, 0) and e >= 1 and (d == 0 or d + e >= 3):
        return SClass.S2
    return SClass.S0only if in_s0 else SClass.NotInS


def test_s_class_matches_the_literal_conditions():
    # every multiset of up to 5 K parts of at most 30 stones, normalized or
    # not, in S or not; the Q games; the empty game; a non-K part
    pool = k_parts(30)
    games = [Game(tuple(sorted(combo)))
             for n in range(1, 6) for combo in _multisets(pool, 0, n, 30)]
    assert len(games) == 14351
    games += [norm(t) for t in ("o5 + a2", "o7 + a4", "o15 + a4 + a2")]
    assert all(in_Q(g) for g in games[-3:])
    games += [Game(()), Game((part("oo5"), part("o5")))]
    assert not in_K(part("oo5"))
    seen = set()
    for g in games:
        assert s_class(g) is literal_s_class(g), g
        seen.add(s_class(g))
    assert seen == set(SClass)


def test_left_target_membership():
    assert in_left_target(Game(()))
    assert in_left_target(norm("oo8"))          # LL
    assert in_left_target(norm("o5"))           # S1
    assert in_left_target(norm("xxo"))          # S2
    assert not in_left_target(norm("oo8 + oo8"))
    assert not in_left_target(norm("o5 + a2"))  # Q


def test_enumerate_small():
    games = list(enumerate_s_games(3, 1))
    parts_seen = {g.parts for g in games}
    assert ("ox",) in parts_seen          # a2 is S0
    assert ("oxx",) in parts_seen         # xxo is S2
    assert ("oox",) not in parts_seen     # oo3 fails a >= c
    assert len(games) == 2


def test_enumerate_is_normalized_deduplicated_s_only():
    games = list(enumerate_s_games(14, 2))
    keys = [g.parts for g in games]
    assert len(keys) == len(set(keys))
    for g in games:
        assert normalize(g) == g
        assert in_S0(g)
        assert g.stones() <= 14 and len(g.parts) <= 2


def test_enumerate_matches_a_filter_of_every_combination():
    # the literal enumeration: every multiset of K parts, then the filters
    pool = k_parts(14)
    brute = [Game(tuple(sorted(combo)))
             for n in range(1, 5)
             for combo in combinations_with_replacement(pool, n)
             if sum(len(p) for p in combo) <= 14]
    brute = [g for g in brute if normalize(g) == g and in_S0(g)]
    assert list(enumerate_s_games(14, 4)) == brute
    # no K part has fewer than 2 stones, so 7 parts is every part count
    assert list(enumerate_s_games(14, 10 ** 9)) == list(enumerate_s_games(14, 7))
