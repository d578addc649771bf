"""Benchmark of the torsioncosets solver, one workload per invocation.

    python3 perfbench/run.py --workload g2 --seed 1 --seconds 10 --trace 0

Every pass over the workload's corpus runs in a fresh interpreter
(`measure.py`), one after the other; passes repeat until at least
`--seconds` of passes are measured.  With `--trace 0` the run also
starts a few set-up-only interpreters and prints the end-to-end metrics
(medians over passes).  With `--trace 1` one more, traced, pass follows
the untraced ones and the run prints the per-layer metrics; the tracing
overhead is the traced pass time minus the median untraced one.

Human-readable lines come first; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 whenever a result is printed, also when operations failed
(`correct` is then false); it is 1 when no result can be produced, for
example because the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("g2", "sparse3", "lacunary", "verify-n3")
SETUP_SAMPLES = 2        # set-up-only interpreters per untraced run
DEADLINE_S = 170.0       # a run must end within 180 s

END_TO_END_UNITS = {
    "corpus_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_max_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildError(RuntimeError):
    pass


def run_child(workload, seed, mode, deadline):
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    # str hashing is randomized per interpreter; fixing it keeps every
    # pass of a seed on the same code path
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError(f"no time left for measure.py --mode {mode}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildError(
            f"measure.py --mode {mode} ran past the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"measure.py --mode {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setup_samples):
    lat = [p["latencies_ms"] for p in passes]
    return {
        "corpus_s": statistics.median(p["corpus_s"] for p in passes),
        "latency_p50_ms": statistics.median(statistics.median(v) for v in lat),
        "latency_p90_ms": statistics.median(p90(v) for v in lat),
        "latency_max_ms": statistics.median(max(v) for v in lat),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="torsioncosets solve/verify benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into SystemExit, so that subprocess.run kills and
    # reaps the running pass before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    try:
        setup_samples = [] if args.trace else [
            run_child(args.workload, args.seed, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES)]
        passes = []
        while True:
            started = time.monotonic()
            passes.append(run_child(args.workload, args.seed, "pass",
                                    deadline))
            wall = time.monotonic() - started
            if sum(p["corpus_wall_s"] for p in passes) >= args.seconds:
                break
            if time.monotonic() + 2 * wall > deadline:
                break
        traced = (run_child(args.workload, args.seed, "trace", deadline)
                  if args.trace else None)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    digests = sorted({p["digest"] for p in runs})
    correct = not failures and len(digests) == 1

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"untraced pass(es){', 1 traced' if traced else ''}; "
          f"{attempted} operations attempted, {len(failures)} failed, "
          f"failed_ratio {len(failures) / attempted:.4f}")
    print(f"coset digest {' '.join(digests)}")
    for failure in failures:
        print(f"FAILED {failure}")
    walls = " ".join(f"{p['corpus_wall_s']:.3f}" for p in passes)
    print(f"untraced pass wall time {walls} s; end-to-end times below are "
          f"at reference host speed (see hostspeed.py)")

    if traced is None:
        setup_samples += [p["setup_s"] for p in passes]
        values = end_to_end(passes, setup_samples)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        untraced_s = statistics.median(p["corpus_wall_s"] for p in passes)
        values = dict(traced["layers"])
        values["trace.corpus_s"] = traced["corpus_wall_s"]
        values["trace.overhead_s"] = traced["corpus_wall_s"] - untraced_s
        values["trace.root_self_s"] = traced["root_self_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
        print(f"spans: {traced['spans']} in {traced['spans_file']}; "
              f"unattributed root self time "
              f"{traced['root_self_s'] / traced['corpus_wall_s']:.1%} "
              f"of the traced pass")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
