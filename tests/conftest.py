import pytest

from linclob import strategy
from linclob.core import Game

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a criterion result line for the end-of-session report."""
    print(line)
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rule_rows():
    """Left's rule table for one test: `rule_rows(rows)` puts the shorthand
    `rows` in place of `_RULE_TOKENS`.  The rows that can fire on a part are
    cached from the table, so the cache is cleared at setup, at each change
    and at teardown, which restores the table and checks that a8 picks 1d
    again."""
    table = strategy._RULE_TOKENS

    def use(rows):
        strategy._RULE_TOKENS = rows
        strategy._part_rows.cache_clear()
    use(table)
    yield use
    use(table)
    assert strategy.choose_left_move(Game(("oxoxoxox",))).rule_id == "1d"


@pytest.fixture
def drop_rule_row(rule_rows):
    """Left's rule table without one row: `drop_rule_row("1d")` removes row
    1d, and `drop_rule_row(None)` removes none."""
    table = strategy._RULE_TOKENS
    return lambda rule_id: rule_rows(tuple(row for row in table if row[0] != rule_id))
