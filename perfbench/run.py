"""Benchmark for linclob.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass of a workload runs in a
fresh single-threaded Python process (`worker.py`), because every `linclob`
invocation starts with cold module-level caches such as `classify_part`'s.
The run first checks that the answer gate catches planted errors
(`selfcheck.py`), starts a few set-up-only processes, then repeats passes until
the next one would end after `--seconds`, always making at least one.  The
first pass's answers are checked against the reference; every later pass
must give answers with the same digest.

On the shared 2-vCPU virtual machine the benchmark was built on, the speed
drifts by up to 2x between runs, so a time measured alone would say more
about when it ran than about the program. The run therefore times a fixed
calibration kernel (`calibrate.py`, no `linclob` code) in a fresh process
before the set-up-only processes and after each cycle of passes, and scales
every time by the kernel's reference time over the mean of the run's kernel
times: the times reported are seconds at the reference speed. Besides
drifting, the speed of each vCPU flickers between a fast and a slow state,
about 1.5x apart, from one second to the next, and independently of the
other vCPU. So the run takes means, not medians, of the kernel and pass
times: the median of such a mixture jumps between the two states, while the
mean follows the share of time spent in each, and in bootstrap resamples of
recorded runs its error was about 40% lower. A ratio of run means, not a
mean of per-pass ratios, because a per-pass ratio would add the kernel's
flicker to the pass's. The raw times and the kernel's times are printed as
well.

With `--trace 0` the run reports the end-to-end metrics:

    wall_s        time of one pass's operations, set-up excluded; the mean
                  over passes
    setup_s       spawn to first operation: interpreter, import, inputs;
                  the median over processes, because in a fresh checkout
                  the first one also compiles the bytecode
    peak_rss_mib  peak resident memory of a pass's process; the mean
    op_p50_ms     median per-operation latency
    op_p99_ms     nearest-rank 99th percentile of per-operation latency

Every pass makes the same operations, so each operation's latency is its
mean over the run's passes, and the percentiles are taken over operations.
Percentiles within each pass would not do: a burst of host stalls lasting a
second or so can triple one pass's 99th percentile and leave the next
untouched, while in a mean over passes a stall adds only its share.

An operation is one user request: one `verify` range command (verify-range),
one `best` query with its Right replies (best-queries), or one ladder of
`solve`s (oracle-ladder).  Answers are counted one per start or query.

With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of `probes.py` (medians over the traced passes) and the
tracing overhead.  Before the result it prints one line per metric with its
unit and sample count, the seed and failed_ratio; the last line is the JSON
result.  The exit code is 0 when every answer checked out, 1 when one did
not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-range", "best-queries", "oracle-ladder")
SETUP_ONLY = 5        # set-up-only processes per run, for setup_s
PASS_TIMEOUT_S = 150  # one process; the whole run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def run_child(cmd: list[str], what: str, env: dict | None = None) -> dict:
    """Run one child process to completion; return the JSON object on the
    last line of its standard output."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{what} exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn(workload: str, seed: int, mode: str, check: bool, out_dir: Path) -> dict:
    """Run one worker process to completion; return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out_dir)]
    if check:
        cmd.append("--check")
    # A fixed hash seed keeps dict and set layouts, and so timings, the same
    # from pass to pass.  Bytecode is cached, so that after the first process
    # set-up times an import as an installed package sees it, whatever the
    # caller's environment says.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    begin = time.monotonic()
    result = run_child(cmd, f"{mode} pass", env)
    result["mode"] = mode
    result["setup_s"] = result["first_op"] - begin
    result["elapsed_s"] = time.monotonic() - begin
    return result


def calibration() -> float:
    """Seconds the calibration kernel takes in a fresh process."""
    return run_child([sys.executable, str(HERE / "calibrate.py")], "calibration")["calib_s"]


def run_passes(args, out_dir: Path, modes: tuple[str, ...],
               kernel: list[float]) -> list[dict]:
    """Repeat the cycle of `modes`, each followed by a calibration appended
    to `kernel`, while the next cycle fits in --seconds."""
    begin = time.monotonic()
    passes: list[dict] = []
    while True:
        cycle_begin = time.monotonic()
        for mode in modes:
            passes.append(spawn(args.workload, args.seed, mode,
                                check=not passes, out_dir=out_dir))
        kernel.append(calibration())
        now = time.monotonic()
        if now - begin + (now - cycle_begin) > args.seconds:
            return passes


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): the first pass is checked against the
    reference, each later pass must repeat its answers exactly."""
    first = passes[0]
    messages = list(first["failures"])
    failed = min(len(messages), first["attempted"])
    for i, p in enumerate(passes[1:], start=2):
        if p["digest"] != first["digest"]:
            failed += p["attempted"]
            messages.append(f"pass {i} ({p['mode']}) answered differently from pass 1")
    return sum(p["attempted"] for p in passes), failed, messages


def passed(attempted: int, failed: int) -> bool:
    """A run passes only when it checked something and nothing failed."""
    return attempted > 0 and failed == 0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def end_to_end_result(setups: list[float], passes: list[dict],
                      kernel: list[float]) -> dict:
    """Each end-to-end metric over the run's processes, times scaled to the
    reference speed by the run's calibration `kernel` times."""
    k = calibrate.REFERENCE_S / statistics.mean(kernel)
    print(f"calibration: scale {k:.6g} = reference {calibrate.REFERENCE_S:g} s / mean "
          f"of {len(kernel)} kernel times, samples=" + ",".join(f"{v:.6g}" for v in kernel))
    print(f"raw wall_s={statistics.mean(p['wall_s'] for p in passes):.6g} s (mean, "
          "unscaled) samples=" + ",".join(f"{p['wall_s']:.6g}" for p in passes))
    samples = {
        "wall_s": ("s", [p["wall_s"] * k for p in passes]),
        "setup_s": ("s", [s * k for s in setups + [p["setup_s"] for p in passes]]),
        "peak_rss_mib": ("MiB", [p["rss_kib"] / 1024 for p in passes]),
    }
    result = {}
    for name, (unit, values) in samples.items():
        stat = "median" if name == "setup_s" else "mean"
        result[name] = {"value": getattr(statistics, stat)(values), "unit": unit}
        print(f"{name}={result[name]['value']:.6g} {unit} ({stat} of {len(values)} "
              "processes) samples=" + ",".join(f"{v:.6g}" for v in values))
    latency = sorted(statistics.mean(op) * k * 1e3
                     for op in zip(*(p["latencies_s"] for p in passes)))
    for name, q in (("op_p50_ms", 50), ("op_p99_ms", 99)):
        result[name] = {"value": percentile(latency, q), "unit": "ms"}
        print(f"{name}={result[name]['value']:.6g} ms (nearest-rank p{q} of "
              f"{len(latency)} operations, each the mean of {len(passes)} passes)")
    return result


def layer_result(passes: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes, and the
    tracing overhead against the untraced passes."""
    med = statistics.median
    untraced = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]
    names = traced[0]["layers"]
    metrics = {k: med(p["layers"][k] for p in traced) for k in names}
    metrics["trace.untraced_wall_s"] = med(p["wall_s"] for p in untraced)
    metrics["trace.traced_wall_s"] = med(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    repeat = all(p["layers"][k] == traced[0]["layers"][k] for p in traced
                 for k in names if not k.endswith("self_s"))
    print(f"traced_passes={len(traced)} untraced_passes={len(untraced)} "
          f"counts_repeat={repeat} "
          f"missing_probes={','.join(traced[0]['missing_probes']) or 'none'}")
    result = {}
    for k, v in metrics.items():
        unit = "s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count"
        result[k] = {"value": v, "unit": unit}
        print(f"{k}={v:.6g} {unit}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "linclob" / "__init__.py").is_file():
        print(f"error: no linclob sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    gate = subprocess.run([sys.executable, str(HERE / "selfcheck.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if gate.returncode != 0:
        print(f"error: the answer gate failed its self-check:\n{gate.stderr}",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        kernel = [calibration()]
        setups = [spawn(args.workload, args.seed, "setup", False, out_dir)["setup_s"]
                  for _ in range(SETUP_ONLY)]
        modes = ("run", "trace") if args.trace else ("run",)
        passes = run_passes(args, out_dir, modes, kernel)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if out_dir.is_dir() and not any(out_dir.iterdir()):
            out_dir.rmdir()
    attempted, failed, messages = count_failures(passes)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)} "
          f"latency_samples_per_pass={passes[0]['ops']}")
    result = layer_result(passes) if args.trace else end_to_end_result(setups, passes, kernel)
    for message in messages[:20]:
        print(f"failure: {message}")
    if attempted == 0:
        print("error: the run completed no operations", file=sys.stderr)
        return 1
    print(f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    correct = passed(attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
