"""Command-line interface.

Exit codes: 0 success / claim holds, 1 claim fails, 2 usage or parse error,
3 solving budget or the 500-stone position cap exceeded.  `_EXIT_CODES` maps
each error a verb may raise to its code.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from contextlib import nullcontext

from .core import (
    BLACK, WHITE, ParseError, format_game, legal_moves, parse_position,
)
from .asf import normalize, normalize_trace
from .oracle import (
    DEFAULT_MAX_STONES, MAX_STONES, BudgetExceeded, SolveCache, equivalent,
    outcome,
)
from .strategy import (
    NotInScope, Ruleset, StrategyGap, choose_left_move, require_scope,
)
from .taxonomy import classify_part, count_vector, in_LL, in_Q, NotInK, s_class
from .verifier import (
    check_asf_soundness, check_conjecture, check_theorem_left,
    check_theorem_right, check_u_closure, verify_range,
)

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """A request the command line refuses, though argparse accepted it."""


# The exit code of each error a verb may raise; each prints one `error:` line.
_EXIT_CODES = {
    ParseError: EXIT_USAGE,
    UsageError: EXIT_USAGE,
    NotInScope: EXIT_USAGE,
    StrategyGap: EXIT_CLAIM_FAILS,
    BudgetExceeded: EXIT_BUDGET,
}

# Each `check` suite: its check function and the bounds it reads, as
# (flag, keyword of the function, largest value accepted or None).  A bound
# that is not given is left to the function's default.  The --max-stones caps
# keep the worst case within about 15 s (2-vCPU VM, Python 3.11, times scaled
# to `perfbench/calibrate.py`'s reference speed): theorem-* enumerate every
# S game of up to max-stones // 2 parts (40: 5.1 s), u-closure builds every U
# part's move table (120: 0.2 s, 16 MiB), conjecture solves every start of up
# to max-stones stones on one memo (48: 12 s, 80 MiB).
_SUITES = {
    "asf": (check_asf_soundness, ()),
    "theorem-right": (check_theorem_right,
                      (("--max-stones", "max_stones", 40),
                       ("--max-parts", "max_parts", None))),
    "theorem-left": (check_theorem_left,
                     (("--max-stones", "max_stones", 40),
                      ("--max-parts", "max_parts", None))),
    "u-closure": (check_u_closure, (("--max-stones", "max_stones", 120),)),
    "conjecture": (check_conjecture, (("--max-stones", "max_stones", 48),)),
}

_BOUND_HELP = {
    "--budget": "max total stones the solver will accept",
    "--max-stones": "max stones per game, part or start",
    "--max-parts": "max parts per game",
}


def _bound(cap: int | None = None):
    """The argparse type of a bound flag: an integer of at least 1 and, with
    a cap, at most `cap`."""
    def bound(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"{value} is over the {cap} cap")
        return value
    return bound


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="linclob",
                                  description="Linear clobber toolkit")
    sub = top.add_subparsers(dest="verb", required=True)
    fmt = {"choices": ["stones", "short"], "default": "short"}
    budget = {"type": _bound(MAX_STONES), "default": DEFAULT_MAX_STONES,
              "help": f"{_BOUND_HELP['--budget']} (at most {MAX_STONES})"}
    ruleset = {"choices": [r.value for r in Ruleset],
               "default": Ruleset.BASIC.value}

    p = sub.add_parser("solve", help="outcome class of a position")
    p.add_argument("position")
    p.add_argument("--budget", **budget)
    p.add_argument("--stats", action="store_true",
                   help="also print the memo size and the solve time")

    p = sub.add_parser("normalize", help="standard form of a position")
    p.add_argument("position")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("classify", help="part classes, count vector, S-class")
    p.add_argument("position")
    p.add_argument("--format", **fmt)

    p = sub.add_parser("moves", help="legal moves for a player")
    p.add_argument("position")
    p.add_argument("--player", choices=["L", "R"], required=True)

    p = sub.add_parser("best", help="Left's strategy move")
    p.add_argument("position")
    p.add_argument("--ruleset", **ruleset)
    p.add_argument("--format", **fmt)

    p = sub.add_parser("equiv", help="test game equivalence via the oracle")
    p.add_argument("position1")
    p.add_argument("position2")
    p.add_argument("--budget", **budget)

    p = sub.add_parser("verify", help="strategy verification over starts")
    p.add_argument("--from", dest="start", type=int, required=True,
                   help="first start size in stones (even)")
    p.add_argument("--to", dest="stop", type=int, required=True,
                   help="last start size in stones (even, inclusive)")
    p.add_argument("--ruleset", **ruleset)
    p.add_argument("--csv", dest="csv_path")

    p = sub.add_parser("check", help="bounded theorem property suites")
    suites = p.add_subparsers(dest="suite", required=True)
    for suite, (_, reads) in _SUITES.items():
        q = suites.add_parser(suite)
        for flag, keyword, cap in reads:
            q.add_argument(flag, dest=keyword, type=_bound(cap),
                           help=_BOUND_HELP[flag]
                           + (f" (at most {cap})" if cap else ""))
    return top


def run(argv: list[str]) -> int:
    try:
        args, unread = _parser().parse_known_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if unread:
            verb = " ".join(filter(None, (args.verb, getattr(args, "suite", None))))
            raise UsageError(f"{verb} does not read {' '.join(unread)}")
        return _dispatch(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))


def _dispatch(args) -> int:
    if args.verb == "solve":
        g = parse_position(args.position, args.budget)
        cache = SolveCache(max_stones=args.budget)
        begin = time.perf_counter()
        print(outcome(g, cache).value)
        if args.stats:
            print(f"memo_keys={len(cache.table)} "
                  f"seconds={time.perf_counter() - begin:.3f}")
        return EXIT_OK

    if args.verb == "normalize":
        g = parse_position(args.position, MAX_STONES)
        fixpoint, trace = normalize_trace(g)
        if args.trace:
            for rule_name, step in trace:
                print(f"rule={rule_name} game={format_game(step, args.format)}")
        print(format_game(fixpoint, args.format))
        return EXIT_OK

    if args.verb == "classify":
        g = normalize(parse_position(args.position, MAX_STONES))
        print(f"normalized={format_game(g, args.format)}")
        for p in g.parts:
            print(f"part={p} classes={','.join(sorted(classify_part(p)))}")
        try:
            print("count_vector=" + ",".join(map(str, count_vector(g))))
        except NotInK as e:
            print(f"count_vector=undefined part={e.part}")
        print(f"s_class={s_class(g).value}")
        print(f"in_q={in_Q(g)}")
        print(f"in_ll={in_LL(g)}")
        return EXIT_OK

    if args.verb == "moves":
        g = parse_position(args.position, MAX_STONES)
        player = BLACK if args.player == "L" else WHITE
        for m in legal_moves(g, player):
            print(f"part={g.parts[m.part_index]} "
                  f"from={m.from_index} to={m.to_index}")
        return EXIT_OK

    if args.verb == "best":
        g = normalize(parse_position(args.position, MAX_STONES))
        require_scope(g)
        sm = choose_left_move(g, Ruleset(args.ruleset))
        print(f"rule={sm.rule_id} part={g.parts[sm.move.part_index]} "
              f"from={sm.move.from_index} to={sm.move.to_index} "
              f"result={format_game(sm.result, args.format)}")
        return EXIT_OK

    if args.verb == "equiv":
        g = parse_position(args.position1, args.budget)
        h = parse_position(args.position2, args.budget - g.stones())
        if equivalent(g, h, SolveCache(max_stones=args.budget)):
            print("equivalent")
            return EXIT_OK
        print("not equivalent")
        return EXIT_CLAIM_FAILS

    if args.verb == "verify":
        return _verify(args)

    return _check(args)


def _verify(args) -> int:
    if args.stop > MAX_STONES:
        raise UsageError(f"--to {args.stop} is over the {MAX_STONES}-stone cap")
    starts = [s for s in range(max(args.start, 4), args.stop + 1) if s % 2 == 0]
    why = ("--from is above --to" if args.start > args.stop
           else "starts are even and at least 4 stones")
    if 6 in starts:
        print("warning: skipping the 6-stone start (the conjecture's exception)",
              file=sys.stderr)
        starts.remove(6)
        why = "the 6-stone start is skipped"
    if not starts:
        raise UsageError(f"no start to verify in {args.start}..{args.stop} ({why})")
    # Open the CSV before the search, so a path that cannot be written
    # fails at once instead of after the whole range.  Appending truncates
    # nothing: an earlier CSV survives a run that ends in an error, and a
    # file this run created is removed again.
    path = args.csv_path
    created = path is not None and not os.path.exists(path)
    try:
        out = open(path, "a", newline="") if path is not None else nullcontext()
    except OSError as e:
        raise _unwritable(path, e) from None
    try:
        with out as fh:
            begin = time.perf_counter()
            stats = verify_range(starts, Ruleset(args.ruleset))
            seconds = time.perf_counter() - begin
            for st in stats:
                print(f"n={st.n} left_wins={st.left_wins} "
                      f"left_nodes={st.left_nodes} right_nodes={st.right_nodes}")
            print(f"seconds={seconds:.3f}")
            if fh is not None:
                _write_csv(fh, stats, path)
    except BaseException:
        if created:
            os.remove(path)
        raise
    return EXIT_OK if all(st.left_wins for st in stats) else EXIT_CLAIM_FAILS


def _unwritable(path: str, e: OSError) -> UsageError:
    return UsageError(f"cannot write --csv {path}: {e.strerror}")


def _write_csv(fh, stats, path: str) -> None:
    """Write the node counts to the open CSV file and close it."""
    try:
        # A file opened for appending starts at its end.  Only a file that
        # held data is truncated (on ext4 a truncation makes the close write
        # the data out), not a pipe nor stdout's file (fd 1, if it is open).
        if fh.seekable() and fh.tell() and not (
                sys.__stdout__ and os.path.sameopenfile(fh.fileno(), 1)):
            fh.truncate(0)
        writer = csv.writer(fh)
        writer.writerow(["n", "left_nodes", "right_nodes"])
        writer.writerows([st.n, st.left_nodes, st.right_nodes] for st in stats)
        fh.close()  # a write held in the buffer fails here
    except OSError as e:
        raise _unwritable(path, e) from None


def _check(args) -> int:
    check, reads = _SUITES[args.suite]
    report = check(**{keyword: getattr(args, keyword) for _, keyword, _ in reads
                      if getattr(args, keyword) is not None})
    if not report.instances_checked:
        raise UsageError(f"check {args.suite}: the bounds leave nothing to check")
    print(f"theorem={report.theorem} instances={report.instances_checked} "
          f"failures={len(report.failures)}")
    for failure in report.failures:
        print(f"failure={failure}")
    return EXIT_OK if report.ok else EXIT_CLAIM_FAILS


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
