"""One pass of one workload in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace [--check]

`setup` stops after making the inputs; `run` also runs the operations;
`trace` runs them with the per-layer probes installed.  `--check` compares
every answer with the reference.  The last line of standard output is one
JSON object; `first_op` is read from the system-wide monotonic clock so the
parent can subtract its own spawn time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import probes  # noqa: E402
import workloads  # noqa: E402
from linclob import taxonomy  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    traced = args.mode == "trace"

    workload_cls = workloads.WORKLOADS[args.workload]
    if workload_cls is workloads.OracleLadder:
        workload = workload_cls(count_lookups=traced)
    else:
        workload = workload_cls()
    state = workload.prepare(args.seed, args.out)
    first_op = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"first_op": first_op}))
        return 0

    tracer = probes.Tracer() if traced else contextlib.nullcontext()
    classify_before = taxonomy.classify_part.cache_info()
    with tracer:
        start = time.perf_counter()
        latencies, answer = workload.operate(state)
        wall = time.perf_counter() - start
    classify_after = taxonomy.classify_part.cache_info()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "first_op": first_op,
        "wall_s": wall,
        "rss_kib": rss_kib,
        "ops": len(latencies),
        "latencies_s": latencies,
        "attempted": workload.attempted(state),
        "digest": workload.digest(answer),
    }
    if args.check:
        result["failures"] = workload.check(state, answer)
    if traced:
        result["layers"] = probes.layer_metrics(
            tracer,
            classify_hits=classify_after.hits - classify_before.hits,
            classify_misses=classify_after.misses - classify_before.misses,
            **workload.trace_extras(answer),
        )
        result["missing_probes"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
