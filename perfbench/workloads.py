"""The benchmark's workloads.

Each workload is a closed loop with one client in one single-threaded
process.  It has three steps: `prepare` makes the inputs (set-up, untimed),
`operate` runs the operations and times them, and `check` compares the
answers with the reference outside the timed region.  `digest` condenses the
answers so that repeated passes can be compared with the checked one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import time
from collections import Counter
from pathlib import Path

from linclob import asf, cli, core, oracle, strategy, taxonomy

HERE = Path(__file__).resolve().parent

# verify-range: starts a8..a40 (n = 4..20), basic ruleset.
VERIFY_FROM, VERIFY_TO = 8, 40
# oracle-ladder: starts a2..a28; the solver's stone budget is the top start.
LADDER_TOP = 28
# best-queries: queries per pass, parts per game, stones per game, and the
# largest count-vector part drawn.
QUERIES, MAX_PARTS, MAX_STONES, MAX_PART = 1000, 5, 40, 24
# Share of queries that use the improved ruleset.
IMPROVED_SHARE = 0.5


class Workload:
    name = ""

    def trace_extras(self, answer) -> dict:
        """Numbers the traced run reads from the answers, not from probes."""
        return {}


class VerifyRange(Workload):
    """`linclob verify --from 8 --to 40 --csv ...`, basic ruleset."""

    # Chosen because it is the paper's main claim and the user's longest job:
    # a deep memoized search in `asf` and `strategy`, and the only workload
    # that runs the range logic in `cli` and the `verifier` memo.
    name = "verify-range"

    def prepare(self, seed: int, out_dir: Path):
        # The range is fixed; the seed is ignored.
        expected = json.loads((HERE / "expected_verify.json").read_text())
        csv_path = out_dir / f"verify-{os.getpid()}.csv"
        argv = ["verify", "--from", str(VERIFY_FROM), "--to", str(VERIFY_TO),
                "--csv", str(csv_path)]
        return {"argv": argv, "csv": csv_path, "expected": expected}

    def operate(self, state):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.run(state["argv"])
        latency = time.perf_counter() - start
        with open(state["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        state["csv"].unlink()
        return [latency], {"exit": code, "stdout": out.getvalue(), "rows": rows}

    def attempted(self, state) -> int:
        return len(starts_of(VERIFY_FROM, VERIFY_TO))

    def check(self, state, answer) -> list[str]:
        return check_verify(answer, state["expected"],
                            starts_of(VERIFY_FROM, VERIFY_TO))

    def digest(self, answer) -> str:
        rows = [(r["n"], r["left_nodes"], r["right_nodes"]) for r in answer["rows"]]
        verdicts = _VERDICT.findall(answer["stdout"])
        return _hash((answer["exit"], rows, verdicts))

    def trace_extras(self, answer) -> dict:
        return {"left_nodes": sum(int(r["left_nodes"]) for r in answer["rows"]),
                "right_nodes": sum(int(r["right_nodes"]) for r in answer["rows"])}


class BestQueries(Workload):
    """A seeded stream of distinct S0 games, each answered like `linclob best`
    and followed by normalizing every Right reply (theorem-right's work)."""

    # Chosen because it runs the same `asf`, `strategy` and `taxonomy` code
    # wide and shallow (each game once, `verifier` and `oracle` idle), so a
    # memo that helps verify-range should show no gain here, only its cost.
    name = "best-queries"

    def prepare(self, seed: int, out_dir: Path):
        return {"queries": make_queries(seed, QUERIES)}

    def operate(self, state):
        latencies, answers = [], []
        clock = time.perf_counter
        for g, ruleset in state["queries"]:
            start = clock()
            try:
                sm = strategy.choose_left_move(g, ruleset)
                replies = [asf.normalize(core.apply_move(sm.result, m))
                           for m in core.legal_moves(sm.result, core.WHITE)]
                answers.append((sm, replies))
            except (strategy.StrategyGap, strategy.NotInScope) as e:
                answers.append((None, repr(e)))
            latencies.append(clock() - start)
        return latencies, answers

    def attempted(self, state) -> int:
        return len(state["queries"])

    def check(self, state, answer) -> list[str]:
        return [f"{g}: {err}" for (g, _), got in zip(state["queries"], answer)
                if (err := check_best(g, *got))]

    def digest(self, answer) -> str:
        return _hash([(sm.rule_id, sm.move, sm.result.parts, [r.parts for r in replies])
                      if sm else replies for sm, replies in answer])


class OracleLadder(Workload):
    """One `solve` (outcome with a fresh fast-order cache) per start a2..a28."""

    # Chosen because it is the paper's conjecture checked by the ground-truth
    # oracle: `core` move generation and the `oracle` memo only, never `asf`
    # or `strategy`.
    name = "oracle-ladder"

    def __init__(self, count_lookups: bool = False):
        # The traced run counts memo lookups to read the hit ratio.
        self.count_lookups = count_lookups
        self.lookups: Counter = Counter()
        self.nodes = 0

    def prepare(self, seed: int, out_dir: Path):
        # The ladder is fixed; the seed is ignored.
        return {"starts": [(s, core.parse_position(f"a{s}"))
                           for s in range(2, LADDER_TOP + 1, 2)]}

    def operate(self, state):
        # One operation is the whole ladder: the per-start solves range from
        # microseconds to seconds, so their percentiles would time a single
        # small solve.
        answers = []
        start = time.perf_counter()
        for _, g in state["starts"]:
            table = CountingTable(self.lookups) if self.count_lookups else {}
            cache = oracle.SolveCache(max_stones=LADDER_TOP, order="fast", table=table)
            try:
                answers.append(oracle.outcome(g, cache).value)
            except oracle.BudgetExceeded as e:
                answers.append(repr(e))
            self.nodes += len(table)
        return [time.perf_counter() - start], answers

    def attempted(self, state) -> int:
        return len(state["starts"])

    def check(self, state, answer) -> list[str]:
        return check_ladder([s for s, _ in state["starts"]], answer)

    def digest(self, answer) -> str:
        return _hash(answer)

    def trace_extras(self, answer) -> dict:
        return {"oracle_nodes": self.nodes, "oracle_hits": self.lookups["hit"],
                "oracle_misses": self.lookups["miss"]}


class CountingTable(dict):
    """An oracle memo table that counts its lookups into `lookups`."""

    def __init__(self, lookups: Counter):
        super().__init__()
        self.lookups = lookups

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self.lookups["miss" if value is None else "hit"] += 1
        return value


WORKLOADS = {w.name: w for w in (VerifyRange, BestQueries, OracleLadder)}


# ---------------------------------------------------------------------------
# Inputs


def starts_of(first: int, last: int) -> list[int]:
    """The n of each start a(2n) that `verify --from first --to last` runs."""
    return [s // 2 for s in range(first, last + 1) if s % 2 == 0 and s >= 4 and s != 6]


def make_queries(seed: int, count: int) -> list:
    """`count` distinct normalized S0 games of 1..MAX_PARTS count-vector
    parts and at most MAX_STONES stones, each with a seeded ruleset."""
    rng = random.Random(seed)
    pool = sorted(taxonomy.k_parts(MAX_PART), key=lambda p: (len(p), p))
    seen, queries = set(), []
    while len(queries) < count:
        parts, room = [], MAX_STONES
        for _ in range(rng.randint(1, MAX_PARTS)):
            fits = [p for p in pool if len(p) <= room]
            if not fits:
                break
            parts.append(rng.choice(fits))
            room -= len(parts[-1])
        ruleset = (strategy.Ruleset.IMPROVED if rng.random() < IMPROVED_SHARE
                   else strategy.Ruleset.BASIC)
        g = core.Game.of(parts)
        if g.parts in seen or asf.normalize(g) != g \
                or taxonomy.s_class(g) is taxonomy.SClass.NotInS:
            continue
        seen.add(g.parts)
        queries.append((g, ruleset))
    return queries


# ---------------------------------------------------------------------------
# Answer checks (outside the timed region)

_VERDICT = re.compile(r"n=(\d+) left_wins=(\w+) left_nodes=(\d+) right_nodes=(\d+)")


def check_verify(answer, expected: dict, starts: list[int]) -> list[str]:
    """One message per start whose verdict or node counts differ from the
    table recorded at the baseline commit, or that is missing."""
    rows = {int(r["n"]): r for r in answer["rows"]}
    verdicts = {int(n): won == "True" for n, won, _, _ in _VERDICT.findall(answer["stdout"])}
    bad = []
    for n in starts:
        want = expected[str(n)]
        row = rows.get(n)
        got = None if row is None else {
            "left_wins": verdicts.get(n),
            "left_nodes": int(row["left_nodes"]),
            "right_nodes": int(row["right_nodes"]),
        }
        if got != want:
            bad.append(f"n={n}: expected {want}, got {got}")
    if answer["exit"] != cli.EXIT_OK and not bad:
        bad.append(f"verify exited {answer['exit']}")
    return bad


def check_best(g, sm, replies) -> str | None:
    """Checks one `best` answer against the literal rewriter `normalize_trace`."""
    if sm is None:
        return replies  # the error the query raised
    if sm.move not in core.legal_moves(g, core.BLACK):
        return f"illegal move {sm.move}"
    if sm.result != asf.normalize_trace(core.apply_move(g, sm.move))[0]:
        return f"result {sm.result} is not the normal form after {sm.move}"
    moves = core.legal_moves(sm.result, core.WHITE)
    if len(replies) != len(moves):
        return f"{len(replies)} replies for {len(moves)} Right moves"
    for m, got in zip(moves, replies):
        if got != asf.normalize_trace(core.apply_move(sm.result, m))[0]:
            return f"Right reply {m} normalizes to {got}"
    return None


def check_ladder(stones: list[int], answer: list[str]) -> list[str]:
    """a(2n) is N for every 2n != 6 and P for a6."""
    return [f"a{s}: {got}" for s, got in zip(stones, answer)
            if got != ("P" if s == 6 else "N")]


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()
