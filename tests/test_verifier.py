import json
from pathlib import Path

import pytest

from linclob import asf, cli, verifier
from linclob.core import (
    BLACK, WHITE, Game, alternating, apply_move, canonical, clobbers,
    legal_moves, parse_position,
)
from linclob.asf import RewriteRule, normalize, part_successors, rule_table
from linclob.oracle import OutcomeClass, SolveCache, outcome, wins_moving_first
from linclob.strategy import Ruleset, left_child
from linclob.taxonomy import (
    SClass, enumerate_s_games, in_S0, in_left_target, s_class, u_parts,
)
from linclob.verifier import (
    check_asf_soundness, check_conjecture, check_theorem_left,
    check_theorem_right, check_u_closure, verify_range, verify_start,
)


def test_verify_start_small_wins():
    for stones in (4, 8, 10, 12, 16, 20):
        stats = verify_start(stones)
        assert stats.left_wins, stones
        assert stats.n == stones // 2
        assert stats.left_nodes > 0 and stats.right_nodes > 0


def test_verify_start_rejects_bad_starts():
    for stones in (2, 3, 6, 7, 502):
        with pytest.raises(ValueError):
            verify_start(stones)


def test_memo_determinism():
    a = verify_start(20)
    b = verify_start(20)
    assert (a.left_nodes, a.right_nodes) == (b.left_nodes, b.right_nodes)


@pytest.mark.parametrize("ruleset", list(Ruleset))
def test_shared_memo_counts_match_separate_runs(ruleset):
    starts = list(range(8, 31, 2))
    alone = {s: verify_start(s, ruleset) for s in starts}

    def counts(stats):
        return {st.n: (st.left_wins, st.left_nodes, st.right_nodes)
                for st in stats}
    want = counts(alone.values())
    assert counts(verify_range(starts, ruleset)) == want
    assert counts(verify_range(starts[::-1], ruleset)) == want


def _pass_moves(monkeypatch, ruleset, play=left_child):
    """The pass over 8..40 with Left's move given by `play`: its stats, and
    each Left node it expands with the child `play` moves it to."""
    moves = []

    def recorded(parts, ruleset):
        move = play(parts, ruleset)
        moves.append((parts, move[2]))
        return move
    monkeypatch.setattr(verifier, "left_child", recorded)
    stats = verify_range(range(8, 41, 2), ruleset)
    monkeypatch.undo()
    return stats, moves


@pytest.mark.parametrize("ruleset, calls", [(Ruleset.BASIC, 2283),
                                            (Ruleset.IMPROVED, 2169)])
def test_range_expands_each_left_node_once(monkeypatch, ruleset, calls):
    # the strategy runs once per distinct non-empty Left node of 8..40
    stats, moves = _pass_moves(monkeypatch, ruleset)
    assert all(st.left_wins for st in stats)
    nodes = [node for node, _ in moves]
    assert len(nodes) == len(set(nodes)) == calls


def _wrong_left_child(parts, ruleset):
    """Left's move with one planted fault: a lone a4 goes to a2, not to rule
    5i's xxo, and Right then moves to 0."""
    if parts == ("oxox",):
        return "wrong", (0, 2, 1), ("ox",)
    return left_child(parts, ruleset)


def test_verify_rejects_a_wrong_left_move(monkeypatch):
    monkeypatch.setattr(verifier, "left_child", _wrong_left_child)
    stats = verify_range(range(8, 15, 2))
    # a lost start counts every node it reaches, not only those searched up
    # to the first refutation
    assert {st.n: (st.left_wins, st.left_nodes, st.right_nodes) for st in stats} == {
        4: (True, 3, 3), 5: (False, 6, 4), 6: (True, 1, 1), 7: (False, 11, 8)}
    assert cli.run(["verify", "--from", "8", "--to", "14"]) == 1
    monkeypatch.undo()
    assert all(st.left_wins for st in verify_range(range(8, 15, 2)))


def _oracle_check(moves):
    """The Left moves checked by the oracle within 24 stones: the numbers of
    nodes and of children checked, and the moves whose node is not a
    Left-first win or whose child is not a Right-first loss."""
    cache = SolveCache(max_stones=24)

    def solved(parts, player):
        if sum(map(len, parts)) <= 24:
            return wins_moving_first(Game(parts), player, cache)
    verdicts = [(solved(node, BLACK), solved(child, WHITE)) for node, child in moves]
    wrong = [move for move, (node, child) in zip(moves, verdicts)
             if node is False or child is True]
    return (sum(node is not None for node, _ in verdicts),
            sum(child is not None for _, child in verdicts), wrong)


@pytest.mark.parametrize("ruleset, nodes, children", [(Ruleset.BASIC, 1090, 1683),
                                                      (Ruleset.IMPROVED, 1087, 1670)])
def test_every_left_move_of_the_pass_agrees_with_the_oracle(monkeypatch, ruleset,
                                                            nodes, children):
    # each Left node is a win for Left moving first, and Left's move leaves
    # Right, moving first, a loss
    _, moves = _pass_moves(monkeypatch, ruleset)
    assert _oracle_check(moves) == (nodes, children, [])


def test_oracle_check_reports_a_wrong_left_move(monkeypatch):
    _, moves = _pass_moves(monkeypatch, Ruleset.BASIC, _wrong_left_child)
    assert _oracle_check(moves)[2] == [(("oxox",), ("ox",))]


def test_left_wins_every_s_game_of_40_stones_and_4_parts(monkeypatch):
    # one pass from all 13,670 games; the paper's lemma fails at one Left
    # node only, oo12 + a4, whose rule-4b child oo8 + xxo + a4 lies outside
    # S1, S2, LL and 0 (the known red of criterion 6)
    misses = []

    def recorded(parts, ruleset):
        move = left_child(parts, ruleset)
        if not in_left_target(Game(move[2])):
            misses.append((parts, move[0], move[2]))
        return move
    monkeypatch.setattr(verifier, "left_child", recorded)
    roots = [g.parts for g in enumerate_s_games(40, 4)]
    lost, left, right = verifier._search(roots, Ruleset.BASIC)
    assert len(roots) == 13670 and lost == 0
    assert (sum(left.values()), sum(right.values())) == (21932, 5078)
    assert misses == [(parse_position("oo12 + a4").parts, "4b",
                       parse_position("oo8 + xxo + a4").parts)]


_EXPECTED_VERIFY = Path(__file__).parents[1] / "perfbench" / "expected_verify.json"

# (left_nodes, right_nodes) of each start a(2n) of improved 8..40, by n.
_IMPROVED_NODES = {
    4: (3, 3), 5: (5, 3), 6: (1, 1), 7: (10, 7), 8: (17, 8), 9: (31, 15),
    10: (39, 21), 11: (64, 27), 12: (90, 36), 13: (118, 49), 14: (205, 80),
    15: (268, 102), 16: (383, 133), 17: (608, 202), 18: (843, 270),
    19: (1172, 356), 20: (1654, 487),
}


def test_range_matches_the_benchmark_reference():
    # the verdicts and node counts the benchmark's answer gate holds verify to
    expected = json.loads(_EXPECTED_VERIFY.read_text())
    starts = range(8, 41, 2)
    got = {st.n: {"left_wins": st.left_wins, "left_nodes": st.left_nodes,
                  "right_nodes": st.right_nodes} for st in verify_range(starts)}
    assert got == {s // 2: expected[str(s // 2)] for s in starts}
    improved = verify_range(starts, Ruleset.IMPROVED)
    assert all(st.left_wins for st in improved)
    assert {st.n: (st.left_nodes, st.right_nodes) for st in improved} == _IMPROVED_NODES


def test_agreement_with_oracle_up_to_20_stones():
    cache = SolveCache(order="fast")
    for stones in (4, 8, 10, 12, 14, 16, 18, 20):
        g = Game.of([alternating(stones, "o")])
        assert wins_moving_first(g, BLACK, cache)
        assert verify_start(stones).left_wins
    assert outcome(parse_position("a6"), cache) is OutcomeClass.P


def test_corollary_outcomes_on_enumerated_s_games():
    cache = SolveCache(order="fast")
    for g in enumerate_s_games(24, 4):
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


def test_theorem_right_counts_each_right_move():
    # one instance per Right move, not one per distinct child
    moves = sum(len(legal_moves(g, WHITE)) for g in enumerate_s_games(18, 3)
                if s_class(g) in (SClass.S1, SClass.S2))
    assert check_theorem_right(18, 3).instances_checked == moves == 939


def test_theorem_right_reports_every_move_into_a_child_outside_s(monkeypatch, capsys):
    # a planted fault: one S0 child of Right's moves is called outside S.
    # Right reaches it twice from each copy of oxoxo in oxoxo + oxoxo.
    target = ("ox", "oxoxo")
    monkeypatch.setattr(verifier, "in_S0",
                        lambda g: g.parts != target and in_S0(g))
    want = [(g, m, Game(target)) for g in enumerate_s_games(14, 3)
            if s_class(g) in (SClass.S1, SClass.S2)
            for m in legal_moves(g, WHITE)
            if normalize(apply_move(g, m)).parts == target]
    assert len(want) == 15
    twice = [m.part_index for g, m, _ in want if g.parts == ("oxoxo", "oxoxo")]
    assert twice == [0, 0, 1, 1]
    assert check_theorem_right(14, 3).failures == want
    assert cli.run(["check", "theorem-right", "--max-stones", "14",
                    "--max-parts", "3"]) == 1
    assert "failures=15" in capsys.readouterr().out


def test_theorem_right_reports_failures_in_legal_moves_order(monkeypatch):
    # planted faults: both Right children of oxoxo in oxoxo + oxoxo are
    # called outside S; each copy's moves into them interleave in scan order
    g = Game(("oxoxo", "oxoxo"))
    targets = {normalize(apply_move(g, m)).parts for m in legal_moves(g, WHITE)}
    assert len(targets) == len(part_successors("oxoxo", WHITE)) == 2
    monkeypatch.setattr(verifier, "enumerate_s_games", lambda *bounds: [g])
    monkeypatch.setattr(verifier, "in_S0",
                        lambda h: h.parts not in targets and in_S0(h))
    want = [(g, m, h) for m in legal_moves(g, WHITE)
            if (h := normalize(apply_move(g, m))).parts in targets]
    assert len(want) == 8
    assert check_theorem_right().failures == want


def test_theorem_right_builds_a_copy_s_children_once(monkeypatch):
    # the second oxoxo leaves the same rest as the first, so its children
    # are not built again; its moves still count, under its own index
    g = Game(("oxoxo", "oxoxo"))
    assert s_class(g) in (SClass.S1, SClass.S2)
    monkeypatch.setattr(verifier, "enumerate_s_games", lambda *bounds: [g])
    built = []
    real = asf.add_form
    monkeypatch.setattr(asf, "add_form",
                        lambda rest, form: built.append(form) or real(rest, form))
    report = check_theorem_right()
    assert built == list(part_successors("oxoxo", WHITE))
    assert report.instances_checked == len(legal_moves(g, WHITE)) == 8


def test_theorem_left_small():
    report = check_theorem_left(14, 2)
    assert report.ok and report.instances_checked > 0


def test_theorem_left_reports_a_strategy_gap(drop_rule_row):
    # a table without row 7b has no move on a lone xxo
    drop_rule_row("7b")
    report = check_theorem_left(14, 2)
    assert (Game(("oxx",)), None, "no rule matches oxx") in report.failures


def test_theorem_left_full_bound_has_single_known_gap():
    # the bounds hold k·oo8 + a2 for k = 2..4 and k·oo8 + a4 + a2 for
    # k = 2, 3, the games of the oo8-family rows
    report = check_theorem_left(34, 6)
    assert report.instances_checked == 11962
    offenders = {g.parts for g, _, _ in report.failures}
    assert offenders == {normalize(parse_position("oo12 + a4")).parts}


def test_u_closure_small():
    # one instance per clobber of either player on each U part, plus one per
    # non-trivial U part tested for reachability; the counts were recorded
    # with an independent clobber generator on raw stone strings; 10 tests
    # reachability up to 10 stones only
    for max_stones, instances in ((15, 975), (10, 393)):
        report = check_u_closure(max_stones)
        assert (report.instances_checked, report.failures) == (instances, []), max_stones


def test_u_closure_leaves_the_u_move_tables_uncached():
    # the closure loop builds each U part's table without caching it, so
    # only the reachability loop's tables of small parts stay
    clobbers.cache_clear()
    check_u_closure(40)
    assert clobbers.cache_info().currsize < len(u_parts(40))


def test_u_closure_has_no_false_failures_for_any_reach():
    # a piece of r stones comes from a start of at least r + 2 stones, which
    # for odd r is r + 3: oxo and xox (r = 3) need a6
    for max_stones in range(1, 16):
        assert check_u_closure(max_stones).failures == [], max_stones


def test_u_closure_reports_a_piece_outside_u_and_an_unreached_part(monkeypatch):
    # planted parts: oooox, outside U, whose clobber x -> o leaves ooox,
    # also outside U; and a30, a U part past the reach of two moves
    a30 = "ox" * 15
    monkeypatch.setattr(verifier, "u_parts", lambda k: u_parts(k) + [a30, "oooox"])
    assert check_u_closure(15).failures == [
        ("oooox", "ooox"),
        (a30, "unreachable in two moves"),
        ("oooox", "unreachable in two moves"),
    ]


def test_asf_soundness_reports_unsound_rules_by_name(monkeypatch, capsys):
    # planted faults: a rule oxo -> 0 (oxo is *, not 0), and a pair cancel
    # of each sample against itself instead of its negative, which holds
    # only for the self-negative samples ox and oxox
    planted = RewriteRule("planted", frozenset({"oxo"}), ())
    monkeypatch.setattr(verifier, "rule_table", lambda: [*rule_table(), planted])
    monkeypatch.setattr(verifier, "negative", canonical)
    report = check_asf_soundness()
    assert report.instances_checked == 34
    assert report.failures == [("beta", "xxo"), ("beta", "oxoxo"),
                               ("beta", "ooxoxo"), ("planted", "oxo")]
    assert cli.run(["check", "asf"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "theorem=AsfSoundness instances=34 failures=4"
    assert out[-1] == "failure=('planted', 'oxo')"


def test_asf_soundness_report():
    report = check_asf_soundness()
    # five beta samples and each listed left side of the other twelve rules
    assert report.ok and report.instances_checked == 33


def test_conjecture_solves_every_start_on_one_memo(monkeypatch):
    built = []

    class RecordingCache(SolveCache):
        def __init__(self, **bounds):
            super().__init__(**bounds)
            built.append(self)

    monkeypatch.setattr(verifier, "SolveCache", RecordingCache)
    report = check_conjecture(28)
    assert report.ok and report.instances_checked == 14
    # a2..a28 on fresh memos store 4,456 keys in all
    assert len(built) == 1 and len(built[0].table) == 2339
