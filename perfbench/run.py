#!/usr/bin/env python3
"""simd2nn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory. The workload runs in a fresh child process whose BLAS
thread count comes from its own environment (``OPENBLAS_NUM_THREADS``, else
the number of usable CPUs), capped at that CPU count, and whose numpy does not
request transparent huge pages (``NUMPY_MADVISE_HUGEPAGE=0``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
twice, untraced and then with every layer function wrapped in spans, and
prints the per-layer metrics plus the tracing overhead (traced ``run_s``
over untraced ``run_s``). The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
DEADLINE_S = 175.0


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = int(env.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        threads = nproc
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    # numpy asks for transparent huge pages on large arrays; whether the kernel
    # can grant them varies with memory fragmentation, which moved the
    # 3200-atom train throughput by about 20% between runs.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_child(args, traced: bool, deadline: float) -> dict:
    out = os.path.join(OUT, f"result-{args.workload}-{args.seed}-{int(traced)}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(traced)),
        "--out", out,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload {args.workload} did not finish within {DEADLINE_S:.0f} s")
    if code != 0:
        raise SystemExit(f"workload {args.workload} exited with code {code}")
    with open(out) as fh:
        return json.load(fh)


def metrics_of(base: dict, traced: dict | None) -> tuple[list, dict]:
    """(metric table, values): end-to-end for an untraced run, else per-layer
    plus the tracing overhead, traced ``run_s`` over untraced ``run_s``."""
    if traced is None:
        return catalog.END_TO_END, base["end_to_end"]
    values = dict(traced["per_layer"])
    values["trace.overhead_pct"] = 100.0 * (
        traced["end_to_end"]["run_s"] / base["end_to_end"]["run_s"] - 1.0
    )
    return catalog.PER_LAYER, values


def result_of(runs: list[dict], names: list, values: dict) -> dict:
    """The final output line: correctness, check counts and every metric with its unit."""
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "simd2nn", "__init__.py")):
        print(f"no simd2nn package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    runs = [run_child(args, traced=False, deadline=deadline)]
    if args.trace:
        runs.append(run_child(args, traced=True, deadline=deadline))
    names, values = metrics_of(runs[0], runs[1] if args.trace else None)

    env = dict(runs[0]["environment"], commit=git_commit(), trace_ids=[r["trace_id"] for r in runs])
    print("environment " + json.dumps(env))
    print(f"{args.workload}: {runs[0]['rounds']} round(s), {runs[0]['attempted']} checks")
    for name, unit, _ in names:
        print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    print(json.dumps(result_of(runs, names, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
