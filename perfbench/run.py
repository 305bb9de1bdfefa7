"""PCIL benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload pcil_iteration --seed 1 --seconds 20 --trace 0

Workloads: pcil_iteration, collect_relabel, divergence_sandwich (see
perfbench/README.md). Each measured run is a fresh ``worker.py`` process.
``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the
workload untraced and then traced, both with the same seed and work, and
reports the per-layer metrics of the traced run plus its overhead against
the untraced one.

Output: a human-readable report; a JSON line recording the platform and
every end-to-end metric of the untraced run, including those only some
workloads have; then a JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding
the metrics ``BENCHMARK.json`` declares for the mode. The exit code is 0
only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pcil_iteration", "collect_relabel", "divergence_sandwich")
SETUP_REPS = 15  # set-up runs this often per measured run; setup_s is their median
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_worker(workload, seed, seconds, trace, setup_reps, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--setup-reps", str(setup_reps)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {TIME_LIMIT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    # the traced mode reports no setup_s, so it sets up once
    setup_reps = 1 if args.trace else SETUP_REPS
    try:
        plain = run_worker(args.workload, args.seed, args.seconds, 0, setup_reps, deadline)
        runs = [plain]
        if args.trace:
            traced = run_worker(args.workload, args.seed, args.seconds, 1, 1, deadline)
            runs.append(traced)
            per_iter = [r["loop_s"] / r["iterations"] for r in (plain, traced)]
            traced["metrics"]["trace.overhead_share"] = (per_iter[1] / per_iter[0] - 1.0, "ratio")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    measured = runs[-1]["metrics"]
    wanted = declared(spec, "per_layer" if args.trace else "end_to_end")
    problems = [p for r in runs for p in r["problems"]]
    metrics = {}
    for name, unit in wanted.items():
        if name not in measured:
            # a per-layer span whose target is gone is absent, not an error
            if not args.trace:
                problems.append(f"end-to-end metric {name} was not measured")
            continue
        value, measured_unit = measured[name]
        if measured_unit != unit or not math.isfinite(value):
            problems.append(f"metric {name} = {value!r} {measured_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not problems
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client")
    print(f"iterations {plain['iterations']}  attempted {attempted}  failed {failed}  "
          f"correct {correct}")
    end_to_end = {k: v for k, v in plain["metrics"].items() if "." not in k}
    print_metrics("end-to-end (untraced run):", end_to_end)
    if args.trace:
        print_metrics("per-layer (traced run):",
                      {k: v for k, v in measured.items() if "." in k})
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = dict(plain["platform"], nproc=os.cpu_count(), git_commit=git_commit(),
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, iterations=plain["iterations"], setup_reps=setup_reps)
    print(json.dumps({"run": record, "end_to_end": {
        name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
