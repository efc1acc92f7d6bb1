import csv

import pytest

from linclob.cli import run


def test_solve(capsys):
    assert run(["solve", "oxoxox"]) == 0
    assert capsys.readouterr().out.strip() == "P"
    assert run(["solve", "a4"]) == 0
    assert capsys.readouterr().out.strip() == "N"


def test_solve_budget_exit_code(capsys):
    assert run(["solve", "a10", "--budget", "4"]) == 3


def test_parse_error_exit_code(capsys):
    assert run(["solve", "oq"]) == 2
    assert run(["normalize", "a4 ++ a2"]) == 2


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_normalize_with_trace(capsys):
    assert run(["normalize", "oo5", "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "a2" or out[-1] == "ox"
    assert any(line.startswith("rule=") for line in out[:-1])


def test_classify(capsys):
    assert run(["classify", "oo8 + oo14"]) == 0
    out = capsys.readouterr().out
    assert "s_class=S0" in out
    assert "count_vector=0,1,0,0,0,1,0,0" in out


def test_moves(capsys):
    assert run(["moves", "oxo", "--player", "R"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_best(capsys):
    assert run(["best", "a8"]) == 0
    assert "rule=1d" in capsys.readouterr().out
    assert run(["best", "a14 + oo6", "--ruleset", "improved"]) == 0
    assert "rule=spiral" in capsys.readouterr().out


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
    assert rows[0] == ["n", "runtime_seconds", "left_nodes", "right_nodes"]
    assert [r[0] for r in rows[1:]] == ["2", "4", "5"]


def test_verify_jobs(capsys):
    assert run(["verify", "--from", "8", "--to", "12", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=4" in out and "n=6" in out


def test_verify_rejects_runs_that_check_nothing(capsys):
    assert run(["verify", "--from", "8", "--to", "4"]) == 2
    assert run(["verify", "--from", "6", "--to", "6"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_non_positive_jobs(capsys):
    assert run(["verify", "--from", "8", "--to", "8", "--jobs", "0"]) == 2
    assert run(["verify", "--from", "8", "--to", "8", "--jobs", "-3"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_check_rejects_bounds_below_one(capsys):
    assert run(["check", "u-closure", "--max-stones", "0"]) == 2
    assert run(["check", "theorem-right", "--max-stones", "-5"]) == 2
    assert run(["check", "theorem-left", "--max-parts", "0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("suite, flag", [
    ("asf", "--max-stones"), ("asf", "--max-parts"),
    ("u-closure", "--max-parts"), ("u-closure", "--budget"),
    ("theorem-right", "--budget"), ("theorem-left", "--budget"),
])
def test_check_rejects_bounds_the_suite_does_not_read(capsys, suite, flag):
    assert run(["check", suite, flag, "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and suite in captured.err


def test_check_asf_reads_budget(capsys):
    # the pair-cancellation samples need 10 stones
    assert run(["check", "asf", "--budget", "4"]) == 3


def test_check_default_max_parts(capsys):
    assert run(["check", "theorem-right", "--max-stones", "12"]) == 0
    default = capsys.readouterr().out
    assert run(["check", "theorem-right", "--max-stones", "12",
                "--max-parts", "3"]) == 0
    assert capsys.readouterr().out == default


def test_verify_and_check_have_no_format_flag():
    assert run(["verify", "--from", "8", "--to", "8", "--format", "short"]) == 2
    assert run(["check", "u-closure", "--format", "stones"]) == 2


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
