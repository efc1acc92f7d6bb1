"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N: pass/fail`` line (collected into the
terminal summary by conftest) and then asserts at the stated tolerance.
"""

import math
import time
from functools import lru_cache

import pytest

from linclob.core import Game, parse_position
from linclob.asf import normalize
from linclob.oracle import OutcomeClass, SolveCache, equivalent, outcome
from linclob.strategy import Ruleset
from linclob.verifier import (
    check_asf_soundness, check_theorem_left, check_theorem_right,
    check_u_closure, verify_range, verify_start,
)

from conftest import record_acceptance

_CACHE = SolveCache(order="fast")


@lru_cache(maxsize=None)
def _verified(stones: int):
    """A basic start verified alone and the seconds it took; criteria 8-10
    read its standalone time and node counts."""
    begin = time.perf_counter()
    stats = verify_start(stones)
    return stats, time.perf_counter() - begin


def report(num: int, ok: bool, detail: str) -> bool:
    record_acceptance(f"criterion {num:2d}: {'pass' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_conjecture_desk_scale():
    t0 = time.perf_counter()
    verdicts = []
    for stones in (2, 4, 8, 10, 12, 14, 16, 18, 20):
        t = time.perf_counter()
        o = outcome(parse_position(f"a{stones}"), _CACHE)
        verdicts.append(o is OutcomeClass.N and time.perf_counter() - t <= 10)
    verdicts.append(outcome(parse_position("a6"), _CACHE) is OutcomeClass.P)
    total = time.perf_counter() - t0
    ok = all(verdicts) and total <= 60
    assert report(1, ok, f"a2..a20 are N, a6 is P, suite {total:.1f}s (limit 60s)")


def test_criterion_02_asf_soundness():
    t0 = time.perf_counter()
    rep = check_asf_soundness()
    total = time.perf_counter() - t0
    ok = rep.ok and total <= 120
    assert report(2, ok, f"{rep.instances_checked} rule instances oracle-equivalent, "
                         f"{len(rep.failures)} failures, {total:.1f}s (limit 120s)")


def test_criterion_03_standard_form_rows():
    rows = [("a6", "0"), ("a12", "a4 + a2"), ("o3", "a2"), ("oo4", "xxo + a2"),
            ("oo5", "a2"), ("oo5oo", "oox"), ("oo7oo", "a2"), ("oo6xx", "a4 + a2")]
    bad = []
    for src, want in rows:
        expected = Game(()) if want == "0" else parse_position(want)
        if normalize(parse_position(src)) != expected:
            bad.append(src)
    o9 = equivalent(parse_position("o9"), parse_position("xxo + a2"), _CACHE)
    ok = not bad and o9
    assert report(3, ok, f"{len(rows) - len(bad)}/{len(rows)} table rows reproduced; "
                         f"oracle verdict o9 = xxo + a2: {o9}")


def test_criterion_04_ll_and_q_outcomes():
    t0 = time.perf_counter()
    ll = {t: outcome(parse_position(t), _CACHE)
          for t in ("oo8", "o5 + oox + a4 + a2", "a14 + xxo + a4 + a2")}
    qq = {t: outcome(parse_position(t), _CACHE)
          for t in ("o5 + a2", "o7 + a4", "o15 + a4 + a2")}
    total = time.perf_counter() - t0
    ok = all(o is OutcomeClass.L for o in ll.values()) and total <= 600
    q_text = ",".join(o.value for o in qq.values())
    assert report(4, ok, f"LL outcomes all L, Q outcomes recorded as [{q_text}] "
                         f"(regression: all N), {total:.1f}s (limit 600s)")
    assert all(o is OutcomeClass.N for o in qq.values())


def test_criterion_05_theorem_right():
    rep = check_theorem_right(18, 3)
    assert report(5, rep.ok, f"Right moves from S1/S2 stay in S0: "
                             f"{rep.instances_checked} instances, "
                             f"{len(rep.failures)} failures")


def test_criterion_06_theorem_left():
    rep = check_theorem_left(18, 3)
    offenders = sorted({str(g) for g, _, _ in rep.failures})
    ok = rep.ok
    report(6, ok, f"Left moves from S0 reach S1/S2/LL/0: "
                  f"{rep.instances_checked} instances, "
                  f"{len(rep.failures)} failures {offenders}")
    if not ok:
        pytest.fail(
            "known gap: no Left move from oo12 + a4 lands in S1/S2/LL/0 "
            "(its mandated move reaches oo8 + xxo + a4, an oracle-verified "
            "Left win that the three listed LL games do not cover); "
            f"offenders: {offenders}")


def test_criterion_07_u_closure():
    rep = check_u_closure(15)
    assert report(7, rep.ok, f"U-closure <=15 stones and 2-move reachability "
                             f"<=12 stones: {rep.instances_checked} instances, "
                             f"{len(rep.failures)} failures")


def test_criterion_08_verification_reproduction():
    basic = [_verified(s) for s in range(8, 51, 2)]
    # one pass over the range gives the verdicts of a pass per start
    # (test_shared_memo_counts_match_separate_runs) and expands each game once
    improved = verify_range(range(8, 61, 2), Ruleset.IMPROVED)
    slowest = max(seconds for _, seconds in basic)
    ok = (all(st.left_wins for st, _ in basic) and
          all(st.left_wins for st in improved) and slowest <= 300)
    assert report(8, ok, f"left wins on basic 8..50 and improved 8..60; "
                         f"slowest basic run {slowest:.1f}s (limit 300s)")


def test_criterion_09_node_counts():
    reference = {4: (9, 5), 10: (36, 17), 20: (1957, 581), 30: (45820, 10522)}
    details, in_band = [], []
    for n, (left_ref, right_ref) in reference.items():
        st, _ = _verified(2 * n)
        for got, ref in ((st.left_nodes, left_ref), (st.right_nodes, right_ref)):
            in_band.append(ref / 2 <= got <= ref * 2)
        details.append(f"n={n}:{st.left_nodes}/{left_ref},{st.right_nodes}/{right_ref}")
    ok = all(in_band)
    report(9, ok, "node counts vs reference (got/ref, factor-2 band): "
                  + " ".join(details))
    if not ok:
        pytest.fail(
            "soft criterion: at n=4 this verifier counts 3/3 against the "
            "reference's 9/5, and the left count is outside the band; the n=4 "
            "tree is a8 ->(1d) o5 with two distinct Right replies, and a "
            "search of it counts 7/7 with no memo and no dedupe, 4/4 with "
            "dedupe only and 3/3 with this verifier's pass, which expands "
            "each distinct node once, so none of these "
            "searches reproduces 9/5 and what the reference counted is "
            "unknown; n=10,20,30 are all within band")


def test_criterion_10_growth_trend_informational():
    times = {s: _verified(s)[1] for s in range(28, 51, 2)}
    ratios = [math.log(times[s] / times[s - 2])
              for s in range(30, 51, 2) if times[s - 2] > 0]
    avg = sum(ratios) / len(ratios)
    ok = avg <= math.log(1.6)
    report(10, ok, f"informational: mean log step ratio over 30..50 stones = "
                   f"{avg:.3f} (threshold {math.log(1.6):.3f})")
    # informational only: recorded, never a failure


def test_criterion_11_exercise_regression():
    ok = equivalent(parse_position("oxoo"), parse_position("xxo + xo"), _CACHE)
    assert report(11, ok, "equivalent(oxoo, xxo + xo)")
