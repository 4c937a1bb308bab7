"""Benchmark entry point: one workload, one seed, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload codim1-sparse --seed 1 --seconds 32 --trace 0

With ``--trace 0`` it times ``import evoalg`` plus input parsing in fresh
interpreters (``setup_s``) around a run of the closed-loop client for the
end-to-end metrics.  With ``--trace 1`` the client runs a fixed list of ops
untraced and then traced, for the per-layer metrics.  The client always
runs in a fresh interpreter with PYTHONHASHSEED=0.  The last line of
standard output is the result object; it exits non-zero, printing no
result, when the checkout holds no ``src/evoalg``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import gen
import tracing
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 31
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20

E2E_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _worker(mode: str, args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, WORKER, mode, "--root", ROOT, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters."""
    return [
        _worker("setup", ["--workload", workload], SETUP_TIMEOUT_S)["setup_s"]
        for _ in range(count)
    ]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Worker result for one run, plus setup_s for untraced runs.

    setup_s is the median of SETUP_SAMPLES fresh interpreters, half taken
    before the timed loop and half after it, so that it spans the run's
    drift in machine speed.  One discarded interpreter first writes the
    bytecode caches, which a user pays for once per install.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "evoalg", "__init__.py")):
        raise SystemExit(f"no src/evoalg package under {ROOT}")
    pool = gen.make_pool(workload, worker.input_dir(workload))
    gen.write_items(pool, os.path.join(ROOT, worker.input_dir(workload)))
    args = ["--workload", workload, "--seed", str(seed)]
    if traced:
        return _worker("traced", args, WORKER_TIMEOUT_S)
    setup_samples(workload, 1)
    before = setup_samples(workload, SETUP_SAMPLES // 2)
    result = _worker("timed", args + ["--seconds", str(seconds)], WORKER_TIMEOUT_S)
    after = setup_samples(workload, SETUP_SAMPLES - len(before))
    if result["wrapped_bindings"]:
        raise SystemExit("an untraced run found tracer wrappers installed")
    result["metrics"]["setup_s"] = statistics.median(before + after)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    traced = bool(args.trace)
    result = run(args.workload, args.seed, args.seconds, traced)
    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    units = tracing.METRICS if traced else E2E_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(
        f"{args.workload}: {result['attempted']} ops, {result['failed']} failed"
        + (f", {result['passes']} passes over the pool" if not traced else "")
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
