"""Speed calibration: a fixed pure-Python kernel, timed in a fresh process.

    python3 perfbench/calibrate.py

The benchmark's reference host is a shared virtual machine whose speed
drifts by up to 2x over tens of seconds to minutes, with no steal time to
show it, so the same pass takes 1.8 s or 3 s depending on when it runs.
`run.py` times this kernel between passes and reports each time scaled to
the reference speed, at which the kernel takes `REFERENCE_S`.  The kernel
does the kind of work `linclob` does: a memoized win/loss search over sorted
tuples, with dict lookups, tuple building and recursion, so a slower host
slows both, though not by exactly the same factor.  It uses no `linclob`
code, so a change to the program cannot move it.  The last line of standard
output is a JSON object with `calib_s`.
"""

from __future__ import annotations

import json
import sys
import time

# Kernel seconds at the reference speed: about its mean over 224 timings on a
# 2-vCPU Intel Xeon KVM guest (shared host) with Python 3.11.7.
REFERENCE_S = 0.40
# What the kernel returns: won starting positions, memo entries.
ANSWER = (185, 25883)


def kernel() -> tuple[int, int]:
    """Count the first-player wins among three-heap starts of a take-1,2,3,5
    game in which a heap above 6 left after a move also sheds a half-heap."""
    memo: dict[tuple[int, ...], bool] = {}

    def wins(pos: tuple[int, ...]) -> bool:
        known = memo.get(pos)
        if known is not None:
            return known
        won = False
        for i, heap in enumerate(pos):
            for take in (1, 2, 3, 5):
                if take > heap:
                    break
                rest = heap - take
                after = pos[:i] + pos[i + 1:]
                if rest:
                    after = tuple(sorted(after + ((rest, rest // 2) if rest > 6 else (rest,))))
                if not wins(after):
                    won = True
                    break
            if won:
                break
        memo[pos] = won
        return won

    won = sum(wins((a, b, c)) for a in range(1, 13) for b in range(a, 13)
              for c in range(b, 11))
    return won, len(memo)


def main() -> int:
    start = time.perf_counter()
    answer = kernel()
    elapsed = time.perf_counter() - start
    if answer != ANSWER:
        print(f"calibration kernel answered {answer}, expected {ANSWER}", file=sys.stderr)
        return 1
    print(json.dumps({"calib_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
