from itertools import product

import pytest

from linclob.core import Game, canonical, expand_shorthand, parse_position
from linclob.asf import normalize
from linclob.taxonomy import (
    NotInK, SClass, classify_part, count_vector, enumerate_s_games, in_K,
    in_LL, in_Q, in_S0, in_U, in_left_target, in_shape, k_parts, part_slot,
    s_class, u_parts,
)


def part(token: str) -> str:
    return canonical(expand_shorthand(token))


def norm(text: str) -> Game:
    return normalize(parse_position(text))


def test_shape_membership_is_orientation_free():
    assert in_shape("oxox", "A") and in_shape("xoxo", "A")
    assert in_shape("oxoxo", "O") and not in_shape("xoxox", "O")
    assert in_shape("xoxox", "X")
    assert in_shape("ooxox", "oA") and in_shape("xoxoo", "oA")
    assert in_shape("ooxoxo", "oO")
    assert in_shape("ooxoo", "oOo")
    assert in_shape("ooxoxx", "oAx")
    assert in_shape("xxo", "Ax")


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
    for p in k_parts(18):
        flags = classify_part(p)
        slots = [f for f in ("Oprime", "oOprime", "oOoprime", "I", "XXO",
                             "OO8", "Aprime", "oAprime") if f in flags]
        assert len(slots) == 1, (p, slots)


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
    assert len(parts) == 55
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
