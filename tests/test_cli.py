import argparse
import csv
import doctest
import errno
import inspect
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from linclob import cli, oracle, verifier
from linclob.cli import run
from linclob.core import BudgetExceeded, EmptyPosition, ParseError
from linclob.strategy import NotInScope, StrategyGap
from linclob.verifier import (
    check_asf_soundness, check_conjecture, check_theorem_left,
    check_theorem_right, check_u_closure,
)


def test_solve(capsys):
    assert run(["solve", "oxoxox"]) == 0
    assert capsys.readouterr().out.strip() == "P"
    assert run(["solve", "a4"]) == 0
    assert capsys.readouterr().out.strip() == "N"
    # a position that starts with a gap comes after --, not as a flag
    assert run(["solve", "--", "-ox"]) == 0
    assert capsys.readouterr().out.strip() == "N"


def test_solve_stats(capsys):
    # the fast-order memo of both first-mover solves of a8, one entry per
    # Left-to-move position
    assert run(["solve", "a8", "--stats"]) == 0
    outcome, stats = capsys.readouterr().out.splitlines()
    assert outcome == "N"
    assert stats.startswith("memo_keys=5 seconds=")


def test_solve_budget_exit_code(capsys):
    assert run(["solve", "a10", "--budget", "4"]) == 3


def test_budget_has_the_500_stone_cap(capsys):
    # the oracle takes one frame per ply, so a larger budget is a usage error
    for argv in (["solve", "ox"], ["equiv", "ox", "ox"]):
        assert run([*argv, "--budget", "501"]) == 2, argv
    assert capsys.readouterr().err.count("over the 500 cap") == 2
    assert run(["solve", "-".join(["ox"] * 250), "--budget", "500"]) == 0
    assert capsys.readouterr().out == "P\n"


def test_huge_token_is_rejected_before_it_is_built(capsys):
    # a token of 10^9 stones is refused from its digits, not after expansion
    huge = f"a{10 ** 9}"
    begin = time.perf_counter()
    assert run(["solve", huge, "--budget", "5"]) == 3
    assert run(["equiv", "a4", huge]) == 3
    assert run(["equiv", huge, "a4"]) == 3
    assert time.perf_counter() - begin < 1.0
    assert "budget" in capsys.readouterr().err
    # the budget covers both sides of an equivalence test
    assert run(["equiv", "a4", "a4", "--budget", "7"]) == 3
    assert run(["equiv", "a4", "a4", "--budget", "8"]) == 0
    # verbs without --budget stop at the 500-stone cap, tokens and literals
    # alike: the move table of one part is quadratic in its length
    for position in (huge, "ox" * 300):
        for verb, *flags in (["normalize"], ["classify"],
                             ["moves", "--player", "L"], ["best"]):
            begin = time.perf_counter()
            assert run([verb, position, *flags]) == 3
            assert time.perf_counter() - begin < 1.0
    assert capsys.readouterr().err.count("is 500") == 8
    assert run(["moves", "ox" * 250, "--player", "L"]) == 0
    # a count of more digits than int() converts is over any budget too
    for verb in ("solve", "normalize"):
        assert run([verb, "a" + "9" * 5000]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_shorthand_count_is_judged_by_value(capsys):
    # leading zeros do not count, however many there are: a0004 is a4
    token = "a" + "0" * 5000 + "4"
    for verb, out in (("normalize", "a4"), ("solve", "N")):
        assert run([verb, token]) == 0
        assert capsys.readouterr().out.strip() == out


def test_long_tokens_are_echoed_short(capsys):
    # a malformed token, and a count int() converts but no budget admits
    for token, code in (("b" + "9" * 5000, 2), ("a" + "8" * 4000, 3)):
        assert run(["normalize", token]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 100, err


def test_parse_error_exit_code(capsys):
    assert run(["solve", "oq"]) == 2
    assert run(["normalize", "a4 ++ a2"]) == 2
    capsys.readouterr()
    # a count is written in ASCII digits only
    for token in ("a٤", "a４"):
        assert run(["solve", token]) == 2
        assert capsys.readouterr() == (
            "", f"error: unrecognized shorthand token {token!r}\n")
    for blank in ("", "   "):
        assert run(["solve", blank]) == 2
        assert capsys.readouterr() == ("", "error: empty position\n")


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_normalize_with_trace(capsys):
    assert run(["normalize", "oo5", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "a2" or out[-1] == "ox"
    assert any(line.startswith("rule=") for line in out[:-1])
    assert run(["normalize", "a12", "--format", "stones"]) == 0
    assert capsys.readouterr().out == "ox-oxox\n"


def test_classify(capsys):
    assert run(["classify", "oo8 + oo14"]) == 0
    out = capsys.readouterr().out
    assert "s_class=S0" in out
    assert "count_vector=0,1,0,0,0,1,0,0" in out
    # x5 has no count-vector class, so the vector is undefined
    assert run(["classify", "x5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "count_vector=undefined part=xoxox" in out
    assert "s_class=not-in-S" in out
    assert run(["classify", "oo8 + a2", "--format", "stones"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "normalized=ooxoxoxo-ox"


def test_moves(capsys):
    assert run(["moves", "oxo", "--player", "R"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_best(capsys):
    assert run(["best", "a8"]) == 0
    assert "rule=1d" in capsys.readouterr().out
    assert run(["best", "a14 + oo6", "--ruleset", "improved"]) == 0
    assert "rule=spiral" in capsys.readouterr().out
    assert run(["best", "a8", "--format", "stones"]) == 0
    assert capsys.readouterr().out == (
        "rule=1d part=oxoxoxox from=6 to=7 result=oxoxo\n")


def test_best_outside_the_strategy_is_a_usage_error(capsys):
    # x5 is no S game and no rule applies; oxo-oxo's standard form is 0;
    # a8 + x5 is no S game although rule 1d moves on its a8; a6's standard
    # form is 0, written as `best` writes its results
    for position in ("x5", "oxo-oxo", "a8 + x5", "a6"):
        assert run(["best", position]) == 2, position
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
    assert captured.err == "error: 0 is outside the strategy's scope\n"


def test_best_strategy_gap_fails_the_claim(capsys, monkeypatch):
    def gap(g, ruleset):
        raise StrategyGap(f"no rule matches S0 game {g}")
    monkeypatch.setattr(cli, "choose_left_move", gap)
    assert run(["best", "a8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no rule matches")


def test_verify_reports_a_strategy_gap(capsys, drop_rule_row):
    # a table without row 1d has no move on a8 or a10; the pass, which goes
    # in decreasing potential, meets a10 first
    drop_rule_row("1d")
    assert run(["verify", "--from", "8", "--to", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: no rule matches oxoxoxoxox"]


def test_verify_gap_keeps_an_earlier_csv(capsys, drop_rule_row, tmp_path):
    drop_rule_row("1d")
    path = tmp_path / "gap.csv"
    path.write_text("sentinel\n")
    assert run(["verify", "--from", "8", "--to", "10", "--csv", str(path)]) == 1
    assert path.read_text() == "sentinel\n"
    # a run that ends replaces the earlier CSV, it does not append to it
    drop_rule_row(None)
    assert run(["verify", "--from", "8", "--to", "10", "--csv", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,left_nodes,right_nodes"
    assert len(lines) == 3


def test_verify_gap_leaves_no_csv_on_a_new_path(drop_rule_row, tmp_path):
    drop_rule_row("1d")
    path = tmp_path / "new.csv"
    assert run(["verify", "--from", "8", "--to", "10", "--csv", str(path)]) == 1
    assert not path.exists()


def test_each_error_has_one_exit_code(capsys, monkeypatch):
    # EmptyPosition is a ParseError; an error outside the table propagates
    def fail(args):
        raise error("bad")
    monkeypatch.setattr(cli, "_dispatch", fail)
    for error, code in ((ParseError, 2), (EmptyPosition, 2), (cli.UsageError, 2),
                        (NotInScope, 2), (StrategyGap, 1), (BudgetExceeded, 3)):
        assert run(["solve", "a4"]) == code, error
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad\n"
    error = KeyError
    with pytest.raises(KeyError):
        run(["solve", "a4"])


def test_equiv_exit_codes(capsys):
    assert run(["equiv", "oxoo", "xxo + xo"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    assert run(["equiv", "ox", "xxo"]) == 1


def test_verify_skips_six_and_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "v.csv"
    assert run(["verify", "--from", "4", "--to", "10", "--csv", str(out_csv)]) == 0
    captured = capsys.readouterr()
    assert "skipping the 6-stone start" in captured.err
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["n", "left_nodes", "right_nodes"]
    assert [r[0] for r in rows[1:]] == ["2", "4", "5"]


def test_verify_rejects_runs_that_check_nothing(capsys):
    assert run(["verify", "--from", "8", "--to", "4"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no start to verify in 8..4 (--from is above --to)"]
    # the only start in range is the skipped one, and the error says so
    assert run(["verify", "--from", "6", "--to", "6"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: skipping the 6-stone start (the conjecture's exception)",
        "error: no start to verify in 6..6 (the 6-stone start is skipped)"]


def test_verify_rejects_huge_starts_before_building_them(capsys):
    # a start too deep for the search, and a range too long to list
    begin = time.perf_counter()
    assert run(["verify", "--from", "3000", "--to", "3000"]) == 2
    assert run(["verify", "--from", "8", "--to", str(10 ** 9)]) == 2
    assert time.perf_counter() - begin < 1.0
    assert capsys.readouterr().err.count("500-stone cap") == 2


def test_verify_has_no_jobs_flag(capsys):
    # a range is one pass in one process, so there is nothing to share out
    assert run(["verify", "--from", "8", "--to", "12", "--jobs", "2"]) == 2
    assert run(["verify", "--from", "8", "--to", "8", "--jobs", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_csv_path_that_cannot_be_written(tmp_path, capsys):
    # refused before the search, not after the whole range
    for path in (tmp_path / "missing" / "v.csv", tmp_path, ""):
        begin = time.perf_counter()
        assert run(["verify", "--from", "8", "--to", "60",
                    "--csv", str(path)]) == 2
        assert time.perf_counter() - begin < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "--csv" in captured.err and str(path) in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_verify_csv_write_that_fails_after_the_search(capsys):
    # the verdicts stand; the failed write is a usage error, not a traceback
    assert run(["verify", "--from", "8", "--to", "10", "--csv", "/dev/full"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[:2] == _VERDICTS_8_TO_10
    assert err == "error: cannot write --csv /dev/full: No space left on device\n"


def test_verify_csv_write_error_removes_a_new_file(tmp_path, capsys, monkeypatch):
    # as after a search error, a CSV file this run created does not stay
    class Full:
        def writerow(self, row):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(csv, "writer", lambda fh: Full())
    path = tmp_path / "new.csv"
    assert run(["verify", "--from", "8", "--to", "10", "--csv", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write --csv {path}: No space left on device\n")
    assert not path.exists()


def _verify_in_a_process(csv_path, **streams) -> subprocess.CompletedProcess:
    """`verify --from 8 --to 10 --csv csv_path` in a fresh process."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "linclob.cli", "verify", "--from", "8", "--to", "10",
         "--csv", str(csv_path)], text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        **streams)


def test_python_m_linclob_runs_the_command_line():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "linclob", "solve", "a4"], text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, done.stdout, done.stderr) == (0, "N\n", "")


_CSV_8_TO_10 = ["n,left_nodes,right_nodes", "4,3,3", "5,5,3"]
_VERDICTS_8_TO_10 = ["n=4 left_wins=True left_nodes=3 right_nodes=3",
                     "n=5 left_wins=True left_nodes=5 right_nodes=3"]


def test_verify_csv_to_a_pipe():
    # a pipe holds no earlier CSV to truncate, and cannot be sought in
    done = _verify_in_a_process("/dev/stdout", stdout=subprocess.PIPE)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-3:] == _CSV_8_TO_10


def test_verify_csv_to_stdout_appending_to_a_file(tmp_path):
    # stdout's own file keeps what it held: its earlier line, then the
    # verdicts, then the CSV
    log = tmp_path / "log.txt"
    log.write_text("earlier line\n")
    with log.open("a") as out:
        assert _verify_in_a_process("/dev/stdout", stdout=out).returncode == 0
    lines = log.read_text().splitlines()
    assert lines[:3] == ["earlier line", *_VERDICTS_8_TO_10]
    assert lines[3].startswith("seconds=") and lines[4:] == _CSV_8_TO_10


def test_verify_csv_with_stdin_and_stdout_closed(tmp_path):
    # the CSV file takes descriptor 0; with no stdout to compare it with,
    # an earlier CSV is replaced as on any other path
    path = tmp_path / "v.csv"
    path.write_text("sentinel\n")

    def close_stdin_and_stdout():
        os.close(0)
        os.close(1)
    assert _verify_in_a_process(path, preexec_fn=close_stdin_and_stdout).returncode == 0
    assert path.read_text().splitlines() == _CSV_8_TO_10


@pytest.mark.parametrize("argv", [
    ["solve", "a4"], ["normalize", "a4"], ["classify", "a4"],
    ["moves", "a4", "--player", "L"], ["best", "a4"], ["equiv", "a4", "a4"],
    ["verify", "--from", "8", "--to", "8"], ["check", "u-closure"],
])
def test_no_verb_has_a_quiet_flag(capsys, argv):
    assert run([*argv, "--quiet"]) == 2
    assert capsys.readouterr().out == ""


def test_check_theorem_left_reads_no_ruleset():
    assert "ruleset" not in inspect.signature(check_theorem_left).parameters


def test_check_rejects_bounds_below_one(capsys):
    for argv, flag in ((["check", "u-closure", "--max-stones", "0"], "--max-stones"),
                       (["check", "theorem-right", "--max-stones", "-5"], "--max-stones"),
                       (["check", "theorem-left", "--max-parts", "0"], "--max-parts"),
                       (["solve", "a4", "--budget", "0"], "--budget"),
                       (["solve", "ox", "--budget", "-1"], "--budget"),
                       (["equiv", "a4", "a4", "--budget", "0"], "--budget"),
                       (["solve", "a4", "--budget", "abc"], "--budget"),
                       (["check", "theorem-right", "--max-parts", "2x"], "--max-parts")):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


@pytest.mark.parametrize("suite, check", [
    ("asf", check_asf_soundness), ("theorem-right", check_theorem_right),
    ("theorem-left", check_theorem_left), ("u-closure", check_u_closure),
    ("conjecture", check_conjecture),
])
def test_check_defaults_are_the_library_defaults(capsys, suite, check):
    report = check()
    run(["check", suite])
    assert capsys.readouterr().out.splitlines()[0] == (
        f"theorem={report.theorem} instances={report.instances_checked} "
        f"failures={len(report.failures)}")


@pytest.mark.parametrize("suite, flag", [
    ("asf", "--max-stones"), ("asf", "--max-parts"), ("asf", "--budget"),
    ("u-closure", "--max-parts"), ("u-closure", "--budget"),
    ("theorem-right", "--budget"), ("theorem-left", "--budget"),
    ("conjecture", "--max-parts"), ("conjecture", "--budget"),
])
def test_check_rejects_bounds_the_suite_does_not_read(capsys, suite, flag):
    # whatever the value, also one that a bound it reads would refuse
    for value in ("3", "0", "-1"):
        assert run(["check", suite, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: check {suite} does not read {flag} {value}\n"


# Two small values of each bound that a `check` suite may read.
_TWO_VALUES = {"--max-stones": (10, 12), "--max-parts": (1, 2), "--budget": (20, 26)}


@pytest.mark.parametrize("suite", list(cli._SUITES))
def test_every_check_bound_changes_what_is_checked(suite):
    # a bound that no instance count depends on is a knob that nothing reads
    check, reads = cli._SUITES[suite]
    for flag, keyword, _ in reads:
        counts = {check(**{keyword: value}).instances_checked
                  for value in _TWO_VALUES[flag]}
        assert len(counts) == 2, (suite, flag, counts)


def test_check_rejects_huge_max_stones_before_any_work(capsys):
    begin = time.perf_counter()
    assert run(["check", "u-closure", "--max-stones", "20000"]) == 2
    assert run(["check", "theorem-right", "--max-stones", "200",
                "--max-parts", "3"]) == 2
    assert run(["check", "theorem-left", "--max-stones", "41"]) == 2
    assert run(["check", "conjecture", "--max-stones", "100"]) == 2
    assert run(["check", "conjecture", "--max-stones", "49"]) == 2
    assert time.perf_counter() - begin < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("cap") == 5
    # the cap itself is accepted
    assert run(["check", "theorem-left", "--max-stones", "40",
                "--max-parts", "1"]) == 0


def test_check_max_parts_needs_no_cap(capsys):
    # no K part has fewer than 2 stones, so 9 parts is every part count at 18
    assert run(["check", "theorem-left", "--max-stones", "18",
                "--max-parts", "9"]) == 1
    nine = capsys.readouterr().out
    assert run(["check", "theorem-left", "--max-stones", "18",
                "--max-parts", "1000000000"]) == 1
    assert capsys.readouterr().out == nine


def test_check_asf_refuses_budget(capsys):
    # its largest instance, 18 stones, is within the oracle's default budget
    assert not inspect.signature(check_asf_soundness).parameters
    assert run(["check", "asf", "--budget", "40"]) == 2
    assert capsys.readouterr() == ("", "error: check asf does not read --budget 40\n")


def test_check_default_max_parts(capsys):
    assert run(["check", "theorem-right", "--max-stones", "12"]) == 0
    default = capsys.readouterr().out
    assert run(["check", "theorem-right", "--max-stones", "12",
                "--max-parts", "3"]) == 0
    assert capsys.readouterr().out == default


def test_verify_and_check_have_no_format_flag():
    assert run(["verify", "--from", "8", "--to", "8", "--format", "short"]) == 2
    assert run(["check", "u-closure", "--format", "stones"]) == 2
    assert run(["solve", "a4", "--format", "stones"]) == 2
    assert run(["equiv", "a4", "a4", "--format", "short"]) == 2
    assert run(["moves", "a4", "--player", "L", "--format", "short"]) == 2


def test_check_default_max_stones(capsys):
    assert run(["check", "u-closure"]) == 0
    default = capsys.readouterr().out
    assert run(["check", "u-closure", "--max-stones", "15"]) == 0
    assert capsys.readouterr().out == default


def test_check_suites(capsys):
    assert run(["check", "u-closure", "--max-stones", "10"]) == 0
    assert run(["check", "theorem-right", "--max-stones", "12", "--max-parts", "2"]) == 0
    assert run(["check", "theorem-left", "--max-stones", "12", "--max-parts", "2"]) == 0
    assert run(["check", "asf"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_check_theorem_left_full_range_reports_failure(capsys):
    # the one known Theorem-4 gap (oo12 + a4) surfaces as exit code 1
    assert run(["check", "theorem-left", "--max-stones", "18", "--max-parts", "3"]) == 1
    assert "failure=" in capsys.readouterr().out


def test_check_conjecture(capsys, monkeypatch):
    # a2..a20: a6 is the one start the first mover loses
    assert run(["check", "conjecture", "--max-stones", "20"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "theorem=FirstPlayerWins instances=10 failures=0"]
    # a verdict that differs from "P at a6 only" names its start
    monkeypatch.setattr(verifier, "wins_moving_first", lambda g, player, cache: True)
    assert run(["check", "conjecture", "--max-stones", "8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "theorem=FirstPlayerWins instances=4 failures=1", "failure=('a6', 'N')"]


def test_check_that_checks_nothing_is_a_usage_error(capsys):
    # no even alternating start has fewer than 2 stones, and no U part of
    # fewer than 2 stones has a move
    for suite in ("conjecture", "u-closure"):
        assert run(["check", suite, "--max-stones", "1"]) == 2, suite
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nothing to check" in captured.err


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _flags(parser: argparse.ArgumentParser) -> list[str]:
    return [flag for action in parser._actions for flag in action.option_strings
            if flag not in ("-h", "--help")]


def test_readme_lists_every_verb_suite_and_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    usage = [line.split() for line in block.splitlines()]
    verbs = _subcommands(cli._parser())
    commands = [((verb,), parser) for verb, parser in verbs.items() if verb != "check"]
    commands += [(("check", suite), parser)
                 for suite, parser in _subcommands(verbs["check"]).items()]
    for words, parser in commands:
        lines = [line for line in usage if line[1] == words[0]
                 and (len(words) == 1 or words[1] in line[2].split("|"))]
        assert len(lines) == 1, words
        named = re.findall(r"--[\w-]+", " ".join(lines[0]))
        assert set(_flags(parser)) <= set(named), words


def test_readme_states_each_check_cap():
    # the caps paragraph states each suite's --max-stones cap and the
    # oracle's stone cap, so a cap changed in code alone fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = " ".join(next(p for p in readme.split("\n\n")
                              if "above a suite's cap" in p).split())
    for suite, (_, reads) in cli._SUITES.items():
        name = "theorem-*" if suite.startswith("theorem-") else suite
        for flag, _, cap in reads:
            if flag == "--max-stones":
                assert f"{cap} for `{name}`" in paragraph, suite
    assert (f"The {oracle.MAX_STONES}-stone cap (`oracle.MAX_STONES`)"
            in paragraph)


def test_readme_exit_code_table_names_each_raised_class():
    # the "raised as" column names exactly the classes of `cli._EXIT_CODES`,
    # each on its code's row; argparse errors are not classes of the table
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [line.strip("|").split("|") for line in readme.splitlines()
            if re.match(r"\| \d \|", line)]
    named = {int(code): {name.strip(" `").rpartition(".")[2]
                         for name in raised.split(",")} - {"", "argparse"}
             for code, _, raised in rows}
    want = {code: set() for code in named}
    for cls, code in cli._EXIT_CODES.items():
        want.setdefault(code, set()).add(cls.__name__)
    assert sorted(named) == [0, 1, 2, 3]
    assert named == want


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # each `$ linclob` line's output, compared up to a `...` line
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    examples = block.split("$ linclob ")[1:]
    assert len(examples) == 3
    for example in examples:
        command, *want = example.splitlines()
        assert run(shlex.split(command)) == 0, command
        got = capsys.readouterr().out.splitlines()
        if "..." in want:
            want = want[:want.index("...")]
            got = got[:len(want)]
        assert got == want, command


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library",
                                               "README.md", 0)
    results = doctest.DocTestRunner().run(test)
    assert results.failed == 0 and results.attempted == len(test.examples) > 0
