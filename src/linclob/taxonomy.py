"""Part classification: named shape families, count vectors, and the
S0/S1/S2 game families used by the Left strategy.

Shape families (either orientation; a "run" alternates and begins with o):
  A    even alternating            O    odd alternating, o at both ends
  oA   o + even run               oO    o + odd run
  oOo  o + odd run + o            oAx   o + even run + x
plus their color-flips X, Ax, xX, xXx; `core.SHAPE_FAMILIES` is the table,
and `core.shape` the one lookup of the family that holds a part.

The eight count-vector classes are the specific members that survive
standard-form reduction: O', oO', oOo', I, {xxo}, {oo8}, A', oA'; the
table `_CLASSES` states each with its test on a part's family and size.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterator

from .core import SHAPE_FAMILIES, Game, canonical, parse_position, shape, shape_string
from .asf import normalize


class NotInK(ValueError):
    """A part outside the eight count-vector classes; the vector is undefined."""

    def __init__(self, part: str):
        super().__init__(f"part {part!r} is not in any count-vector class")
        self.part = part


class SClass(Enum):
    S1 = "S1"
    S2 = "S2"
    S0only = "S0"
    NotInS = "not-in-S"


# The eight count-vector classes in slot order (a, b, c, d, e, f, y, z):
# each class flag and its test on a part's shape family and stone count.
# No part passes two tests.
_CLASSES = (
    ("Oprime", lambda f, k: f == "O" and k >= 5 and k != 9),
    ("oOprime", lambda f, k: f == "oO" and k >= 10),
    # oo3 (= oox) is the 3-stone member of the oOo-primed class.
    ("oOoprime", lambda f, k: (f == "oA" and k == 3) or (f == "oOo" and k >= 9)),
    ("I", lambda f, k: (f == "A" and k in (2, 4)) or (f == "oO" and k == 6)),
    ("XXO", lambda f, k: f == "Ax" and k == 3),
    ("OO8", lambda f, k: f == "oO" and k == 8),
    ("Aprime", lambda f, k: f == "A" and k not in (2, 4, 6, 12)),
    ("oAprime", lambda f, k: f == "oA" and k >= 7),
)


@lru_cache(maxsize=None)
def part_slot(part: str) -> int | None:
    """Index in `_CLASSES` of the part's count-vector class, or None."""
    family, k = shape(part)[0], len(part)
    return next((i for i, (_, test) in enumerate(_CLASSES) if test(family, k)), None)


@lru_cache(maxsize=None)
def classify_part(part: str) -> frozenset[str]:
    """The part's shape family and its count-vector class flag, if any."""
    slot = part_slot(part)
    flags = {shape(part)[0], None if slot is None else _CLASSES[slot][0]}
    return frozenset(flags - {None})


def in_U(part: str) -> bool:
    """Part arises in play from some even alternating start."""
    return shape(part)[0] is not None


def u_parts(max_stones: int) -> list[str]:
    """All canonical U parts with at most max_stones stones, sorted by
    (length, string)."""
    parts = {canonical(s) for k in range(1, max_stones + 1)
             for name in SHAPE_FAMILIES if (s := shape_string(name, k)) is not None}
    return sorted(parts, key=lambda p: (len(p), p))


def in_K(part: str) -> bool:
    return part_slot(part) is not None


def count_vector(g: Game) -> tuple[int, int, int, int, int, int, int, int]:
    """Class multiplicities (a,b,c,d,e,f,y,z) of a normalized game."""
    vec = [0] * 8
    for p in g.parts:
        slot = part_slot(p)
        if slot is None:
            raise NotInK(p)
        vec[slot] += 1
    return tuple(vec)  # type: ignore[return-value]


def _games(texts: list[str]) -> frozenset[tuple[str, ...]]:
    return frozenset(parse_position(t).parts for t in texts)


_Q = _games(["o5 + a2", "o7 + a4", "o15 + a4 + a2"])
_LL = _games(["oo8", "o5 + oox + a4 + a2", "a14 + xxo + a4 + a2"])


def in_Q(g: Game) -> bool:
    """The three games Left must never leave for Right."""
    return g.parts in _Q


def in_LL(g: Game) -> bool:
    """The three listed Left-second-player-win target games."""
    return g.parts in _LL


def s_class(g: Game) -> SClass:
    """S-family membership from the count vector, Q, and part count."""
    if not g.parts:
        return SClass.NotInS
    try:
        a, b, c, d, e, f, y, z = count_vector(g)
    except NotInK:
        return SClass.NotInS
    if y or z:  # S0 if (y, z) = (1, 0) and a >= c, or (0, 1) and a >= c + 1
        in_s0 = (y == 1 and not z and a >= c) or (z == 1 and not y and a > c)
        return SClass.S0only if in_s0 else SClass.NotInS
    if a > c:  # S1: (y, z) = 0, a >= c + 1, not in Q; else S0 (S2 needs a = 0)
        return SClass.S0only if in_Q(g) else SClass.S1
    if not (a or b or c) and e and (not d or d + e >= 3):  # S2: (y, z, a, b, c) = 0
        return SClass.S2
    return SClass.S0only if a == c else SClass.NotInS  # S0: (y, z) = 0, a >= c


def in_S0(g: Game) -> bool:
    return s_class(g) is not SClass.NotInS


def in_left_target(g: Game) -> bool:
    """g is in S1, S2, LL, or is the zero game (Left's move targets)."""
    return not g.parts or in_LL(g) or s_class(g) in (SClass.S1, SClass.S2)


def k_parts(max_stones: int) -> list[str]:
    """All count-vector-class parts with at most max_stones stones, sorted."""
    return [p for p in u_parts(max_stones) if in_K(p)]


def enumerate_s_games(max_stones: int = 18, max_parts: int = 3) -> Iterator[Game]:
    """Every normalized S-family multiset of K-parts within the bounds.

    Deterministic order (by part count, then as
    `itertools.combinations_with_replacement` lists the sorted pool), no
    duplicates.  No K part has fewer than 2 stones, so at most
    `max_stones // 2` parts are tried.
    """
    pool = k_parts(max_stones)
    for n in range(1, min(max_parts, max_stones // 2) + 1):
        for combo in _multisets(pool, 0, n, max_stones):
            g = Game(tuple(sorted(combo)))
            if normalize(g) != g:
                continue
            if s_class(g) is not SClass.NotInS:
                yield g


def _multisets(pool: list[str], start: int, n: int,
               room: int) -> Iterator[tuple[str, ...]]:
    """The n-part multisets from pool[start:] of at most `room` stones, in
    combinations order.  The pool is sorted by length, so the first part
    that does not fit n times over ends the scan."""
    if n == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        if len(pool[i]) * n > room:
            break
        for rest in _multisets(pool, i, n - 1, room - len(pool[i])):
            yield (pool[i],) + rest
