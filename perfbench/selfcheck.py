"""Self-check of the benchmark's answer gate.

    python3 perfbench/selfcheck.py

Feeds each workload's check planted wrong answers (a node count, a verdict,
an illegal move, a wrong normal form, a wrong outcome class) next to the
right ones, and checks that the run's summary counts a failure for each and
refuses a run that completed no operations.  Exits 0 when the gate catches
every planted error and passes every right answer.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from linclob import core  # noqa: E402


def verify_cases():
    w = workloads.VerifyRange()
    state = w.prepare(0, HERE)
    starts = workloads.starts_of(workloads.VERIFY_FROM, workloads.VERIFY_TO)
    table = state["expected"]
    right = {
        "exit": 0,
        "rows": [{"n": str(n), "runtime_seconds": "0.00",
                  "left_nodes": str(table[str(n)]["left_nodes"]),
                  "right_nodes": str(table[str(n)]["right_nodes"])} for n in starts],
        "stdout": "".join(f"n={n} left_wins={table[str(n)]['left_wins']} "
                          f"left_nodes={table[str(n)]['left_nodes']} "
                          f"right_nodes={table[str(n)]['right_nodes']}\n" for n in starts),
    }
    node = copy.deepcopy(right)
    node["rows"][-1]["left_nodes"] = str(int(node["rows"][-1]["left_nodes"]) + 1)
    verdict = copy.deepcopy(right)
    verdict["stdout"] = verdict["stdout"].replace("left_wins=True", "left_wins=False", 1)
    missing = copy.deepcopy(right)
    missing["rows"].pop()
    exit_code = dict(right, exit=1)
    yield "verify: right answer", w, state, right, 0
    for name, answer in (("node count", node), ("verdict", verdict),
                         ("missing start", missing), ("exit code", exit_code)):
        yield f"verify: planted {name}", w, state, answer, 1


def best_cases():
    w = workloads.BestQueries()
    state = {"queries": workloads.make_queries(0, 20)}
    _, right = w.operate(state)
    yield "best: right answers", w, state, right, 0
    i = next(i for i, (_, replies) in enumerate(right) if replies)
    sm, replies = right[i]
    # ox + ox cancels, so it is never a normal form.
    not_normal = core.Game(("ox", "ox"))
    plants = {
        "illegal move": (dataclasses.replace(sm, move=core.Move(99, 1, 2)), replies),
        "wrong result": (dataclasses.replace(sm, result=not_normal), replies),
        "wrong reply": (sm, [not_normal] + replies[1:]),
        "missing reply": (sm, replies[:-1]),
        "raised error": (None, "StrategyGap('planted')"),
    }
    for name, planted in plants.items():
        yield f"best: planted {name}", w, state, right[:i] + [planted] + right[i + 1:], 1


def ladder_cases():
    w = workloads.OracleLadder()
    state = w.prepare(0, HERE)
    right = ["P" if s == 6 else "N" for s, _ in state["starts"]]
    yield "ladder: right answers", w, state, right, 0
    for i in (0, 2):  # a2 (should be N) and a6 (should be P)
        planted = list(right)
        planted[i] = "L"
        yield f"ladder: planted outcome of a{state['starts'][i][0]}", w, state, planted, 1


def main() -> int:
    bad = []
    for case in (*verify_cases(), *best_cases(), *ladder_cases()):
        name, w, state, answer, want_failed = case
        passes = [{"attempted": w.attempted(state), "failures": w.check(state, answer),
                   "digest": w.digest(answer), "mode": "run"}]
        _, failed, _ = run.count_failures(passes)
        if min(failed, 1) != want_failed or run.passed(passes[0]["attempted"], failed) != (not want_failed):
            bad.append(f"{name}: {failed} failed")
    # A later pass that answers differently fails all its operations.
    first = {"attempted": 15, "failures": [], "digest": "a", "mode": "run"}
    _, failed, _ = run.count_failures([first, dict(first, digest="b")])
    if failed != 15:
        bad.append(f"changed digest: {failed} failed")
    if run.passed(0, 0):
        bad.append("a run with no operations passed")
    for line in bad:
        print(f"selfcheck: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
