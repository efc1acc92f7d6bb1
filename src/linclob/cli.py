"""Command-line interface.

Exit codes: 0 success / claim holds, 1 claim fails, 2 usage or parse error,
3 solving budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor

from .core import (
    BLACK, WHITE, ParseError, format_game, legal_moves, parse_position,
)
from .asf import normalize, normalize_trace
from .oracle import (
    DEFAULT_MAX_STONES, BudgetExceeded, SolveCache, equivalent, outcome,
)
from .strategy import NotInScope, Ruleset, StrategyGap, choose_left_move
from .taxonomy import classify_part, count_vector, in_LL, in_Q, NotInK, s_class
from .verifier import (
    check_asf_soundness, check_theorem_left, check_theorem_right,
    check_u_closure, verify_start,
)

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The bounds each `check` suite reads; any other bound given is a usage error.
_CHECK_BOUNDS = {
    "asf": ("--budget",),
    "theorem-right": ("--max-stones", "--max-parts"),
    "theorem-left": ("--max-stones", "--max-parts"),
    "u-closure": ("--max-stones",),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="linclob",
                                  description="Linear clobber toolkit")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, budget=False, fmt=True):
        if fmt:
            p.add_argument("--format", choices=["stones", "short"],
                           default="short")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_MAX_STONES,
                           help="max total stones the solver will accept")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("solve", help="outcome class of a position")
    p.add_argument("position")
    common(p, budget=True)

    p = sub.add_parser("normalize", help="standard form of a position")
    p.add_argument("position")
    p.add_argument("--trace", action="store_true")
    common(p)

    p = sub.add_parser("classify", help="part classes, count vector, S-class")
    p.add_argument("position")
    common(p)

    p = sub.add_parser("moves", help="legal moves for a player")
    p.add_argument("position")
    p.add_argument("--player", choices=["L", "R"], required=True)
    common(p)

    p = sub.add_parser("best", help="Left's strategy move")
    p.add_argument("position")
    p.add_argument("--ruleset", choices=["basic", "improved"], default="basic")
    common(p)

    p = sub.add_parser("equiv", help="test game equivalence via the oracle")
    p.add_argument("position1")
    p.add_argument("position2")
    common(p, budget=True)

    p = sub.add_parser("verify", help="strategy verification over starts")
    p.add_argument("--from", dest="start", type=int, required=True,
                   help="first start size in stones (even)")
    p.add_argument("--to", dest="stop", type=int, required=True,
                   help="last start size in stones (even, inclusive)")
    p.add_argument("--ruleset", choices=["basic", "improved"], default="basic")
    p.add_argument("--csv", dest="csv_path")
    p.add_argument("--jobs", type=int, default=1)
    common(p, fmt=False)

    p = sub.add_parser("check", help="bounded theorem property suites")
    p.add_argument("suite", choices=list(_CHECK_BOUNDS))
    p.add_argument("--max-stones", type=int, default=None,
                   help="theorem-* and u-closure: max stones per game or part")
    p.add_argument("--max-parts", type=int, default=None,
                   help="theorem-*: max parts per game (default 3)")
    p.add_argument("--budget", type=int, default=None,
                   help="asf: max total stones the solver will accept "
                        f"(default {DEFAULT_MAX_STONES})")
    common(p, fmt=False)
    return top


def _emit(args, text: str) -> None:
    if not getattr(args, "quiet", False):
        print(text)


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET


def _dispatch(args) -> int:
    if args.verb == "solve":
        g = parse_position(args.position)
        cache = SolveCache(max_stones=args.budget, order="fast")
        _emit(args, outcome(g, cache).value)
        return EXIT_OK

    if args.verb == "normalize":
        g = parse_position(args.position)
        fixpoint, trace = normalize_trace(g)
        if args.trace:
            for rule_name, step in trace:
                _emit(args, f"rule={rule_name} game={format_game(step, args.format)}")
        _emit(args, format_game(fixpoint, args.format))
        return EXIT_OK

    if args.verb == "classify":
        g = normalize(parse_position(args.position))
        _emit(args, f"normalized={format_game(g, args.format)}")
        for p in g.parts:
            flags = ",".join(sorted(classify_part(p)))
            _emit(args, f"part={p} classes={flags}")
        try:
            _emit(args, "count_vector=" + ",".join(map(str, count_vector(g))))
        except NotInK as e:
            _emit(args, f"count_vector=undefined part={e.part}")
        _emit(args, f"s_class={s_class(g).value}")
        _emit(args, f"in_q={in_Q(g)}")
        _emit(args, f"in_ll={in_LL(g)}")
        return EXIT_OK

    if args.verb == "moves":
        g = parse_position(args.position)
        player = BLACK if args.player == "L" else WHITE
        for m in legal_moves(g, player):
            part = g.parts[m.part_index]
            _emit(args, f"part={part} from={m.from_index} to={m.to_index}")
        return EXIT_OK

    if args.verb == "best":
        g = normalize(parse_position(args.position))
        ruleset = Ruleset(args.ruleset)
        try:
            sm = choose_left_move(g, ruleset)
        except (NotInScope, StrategyGap) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CLAIM_FAILS
        part = g.parts[sm.move.part_index]
        _emit(args, f"rule={sm.rule_id} part={part} "
                    f"from={sm.move.from_index} to={sm.move.to_index} "
                    f"result={format_game(sm.result, args.format)}")
        return EXIT_OK

    if args.verb == "equiv":
        g = parse_position(args.position1)
        h = parse_position(args.position2)
        cache = SolveCache(max_stones=args.budget, order="fast")
        if equivalent(g, h, cache):
            _emit(args, "equivalent")
            return EXIT_OK
        _emit(args, "not equivalent")
        return EXIT_CLAIM_FAILS

    if args.verb == "verify":
        return _verify(args)

    return _check(args)


def _verify_one(stones: int, ruleset_name: str):
    return verify_start(stones, Ruleset(ruleset_name))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _verify(args) -> int:
    if args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1, got {args.jobs}")
    starts = [s for s in range(args.start, args.stop + 1) if s % 2 == 0]
    if 6 in starts:
        print("warning: skipping the 6-stone start (the conjecture's exception)",
              file=sys.stderr)
        starts.remove(6)
    starts = [s for s in starts if s >= 4]
    if not starts:
        return _usage_error(f"no even start of at least 4 stones in "
                            f"{args.start}..{args.stop}")
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                stats = list(pool.map(_verify_one, starts,
                                      [args.ruleset] * len(starts)))
        else:
            stats = [_verify_one(s, args.ruleset) for s in starts]
    except StrategyGap as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CLAIM_FAILS
    for st in stats:
        _emit(args, f"n={st.n} left_wins={st.left_wins} "
                    f"left_nodes={st.left_nodes} right_nodes={st.right_nodes} "
                    f"runtime_seconds={st.elapsed:.2f}")
    if args.csv_path:
        with open(args.csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "runtime_seconds", "left_nodes", "right_nodes"])
            for st in stats:
                writer.writerow([st.n, f"{st.elapsed:.2f}",
                                 st.left_nodes, st.right_nodes])
    return EXIT_OK if all(st.left_wins for st in stats) else EXIT_CLAIM_FAILS


def _check(args) -> int:
    bounds = {"--max-stones": args.max_stones, "--max-parts": args.max_parts,
              "--budget": args.budget}
    for flag, value in bounds.items():
        if value is None:
            continue
        if flag not in _CHECK_BOUNDS[args.suite]:
            return _usage_error(f"check {args.suite} does not read {flag}")
        if flag != "--budget" and value < 1:
            return _usage_error(f"{flag} must be at least 1, got {value}")
    max_stones = args.max_stones
    if max_stones is None:
        max_stones = 15 if args.suite == "u-closure" else 18
    max_parts = 3 if args.max_parts is None else args.max_parts
    budget = DEFAULT_MAX_STONES if args.budget is None else args.budget
    if args.suite == "asf":
        report = check_asf_soundness(SolveCache(max_stones=budget, order="fast"))
    elif args.suite == "theorem-right":
        report = check_theorem_right(max_stones, max_parts)
    elif args.suite == "theorem-left":
        report = check_theorem_left(max_stones, max_parts)
    else:
        report = check_u_closure(max_stones)
    _emit(args, f"theorem={report.theorem} "
                f"instances={report.instances_checked} "
                f"failures={len(report.failures)}")
    for failure in report.failures:
        _emit(args, f"failure={failure}")
    return EXIT_OK if report.ok else EXIT_CLAIM_FAILS


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
