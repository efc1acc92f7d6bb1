"""Part classification: named shape families, count vectors, and the
S0/S1/S2 game families used by the Left strategy.

Shape families (either orientation of the stone string):
  A    even alternating            O    odd alternating, o at both ends
  oA   o + even alternating       oO    o + odd alternating
  oOo  o + alternating + o        oAx   o + alternating + x
plus their color-flips X, Ax, xX, xXx.

The eight count-vector classes are the specific members that survive
standard-form reduction: O', oO', oOo', I, {xxo}, {oo8}, A', oA'.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator

from .core import Game, alternating, canonical, flip, parse_position
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


_SHAPES = ("A", "O", "oA", "oO", "oOo", "oAx", "X", "Ax", "xX", "xXx")


def _shape_string(name: str, k: int) -> str | None:
    """The unique member of a shape family with k stones, if any."""
    if name in ("X", "Ax", "xX", "xXx"):
        base = {"X": "O", "Ax": "oA", "xX": "oO", "xXx": "oOo"}[name]
        s = _shape_string(base, k)
        return None if s is None else flip(s)
    if name == "A":
        return alternating(k, "o") if k >= 2 and k % 2 == 0 else None
    if name == "O":
        return alternating(k, "o") if k % 2 == 1 else None
    if name == "oA":
        if k == 1:
            return "o"
        return "o" + alternating(k - 1, "o") if k >= 3 and k % 2 == 1 else None
    if name == "oO":
        return "o" + alternating(k - 1, "o") if k >= 2 and k % 2 == 0 else None
    if name == "oOo":
        return "o" + alternating(k - 2, "o") + "o" if k >= 3 and k % 2 == 1 else None
    if name == "oAx":
        return "o" + alternating(k - 2, "o") + "x" if k >= 4 and k % 2 == 0 else None
    raise ValueError(name)


def in_shape(part: str, name: str) -> bool:
    """Shape membership, insensitive to orientation."""
    s = _shape_string(name, len(part))
    return s is not None and (part == s or part[::-1] == s)


@lru_cache(maxsize=None)
def classify_part(part: str) -> frozenset[str]:
    """All shape and count-vector class flags that apply to a part."""
    flags = {name for name in _SHAPES if in_shape(part, name)}
    k = len(part)
    if "A" in flags and k not in (2, 4, 6, 12):
        flags.add("Aprime")
    if "O" in flags and k >= 5 and k != 9:
        flags.add("Oprime")
    if "oO" in flags and k >= 10:
        flags.add("oOprime")
    if "oA" in flags and k >= 7:
        flags.add("oAprime")
    # oo3 (= oox) is the 3-stone member of the oOo-primed class.
    if ("oA" in flags and k == 3) or ("oOo" in flags and k >= 9):
        flags.add("oOoprime")
    if ("A" in flags and k in (2, 4)) or ("oO" in flags and k == 6):
        flags.add("I")
    if "Ax" in flags and k == 3:
        flags.add("XXO")
    if "oO" in flags and k == 8:
        flags.add("OO8")
    return frozenset(flags)


def in_U(part: str) -> bool:
    """Part arises in play from some even alternating start."""
    return any(in_shape(part, name) for name in _SHAPES)


def u_parts(max_stones: int) -> list[str]:
    """All canonical U parts with at most max_stones stones, sorted by
    (length, string)."""
    parts = {canonical(s) for k in range(1, max_stones + 1) for name in _SHAPES
             if (s := _shape_string(name, k)) is not None}
    return sorted(parts, key=lambda p: (len(p), p))


# Count-vector slot order: (a, b, c, d, e, f, y, z).
_SLOT_FLAGS = ("Oprime", "oOprime", "oOoprime", "I", "XXO", "OO8", "Aprime", "oAprime")


def part_slot(part: str) -> int | None:
    """Index of the part's count-vector class, or None."""
    flags = classify_part(part)
    for i, flag in enumerate(_SLOT_FLAGS):
        if flag in flags:
            return i
    return None


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
    in_s0 = ((y, z) == (1, 0) and a >= c) or \
            ((y, z) == (0, 0) and a >= c) or \
            ((y, z) == (0, 1) and a >= c + 1)
    if (y, z) == (0, 0) and a >= c + 1 and not in_Q(g):
        return SClass.S1
    if (y, z, a, b, c) == (0, 0, 0, 0, 0) and e >= 1 and (d == 0 or d + e >= 3):
        return SClass.S2
    return SClass.S0only if in_s0 else SClass.NotInS


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

    Deterministic order, no duplicates.
    """
    pool = k_parts(max_stones)
    for n in range(1, max_parts + 1):
        for combo in combinations_with_replacement(pool, n):
            if sum(len(p) for p in combo) > max_stones:
                continue
            g = Game(tuple(sorted(combo)))
            if normalize(g) != g:
                continue
            if s_class(g) is not SClass.NotInS:
                yield g
