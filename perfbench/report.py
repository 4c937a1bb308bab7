"""Print every metric with its unit, one row per workload.

    python3 perfbench/report.py                  # one run per workload
    python3 perfbench/report.py --runs 10        # medians of seeds 1..10, with spreads
    python3 perfbench/report.py --baseline       # the recorded baseline, no runs
    python3 perfbench/report.py --runs 10 --record perfbench/baseline.json

Runs go through the command listed in BENCHMARK.json, from the checkout
root.  With several runs it prints, per end-to-end metric, the median
and the spread (distance between the first and third quartile as a share
of the median) next to the metric's bound.  Each workload also gets one
traced run for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(manifest: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def measure(manifest: dict, runs: int) -> dict:
    out = {}
    for workload in (w["name"] for w in manifest["workloads"]):
        results = [run_once(manifest, workload, seed, 0) for seed in range(1, runs + 1)]
        traced = run_once(manifest, workload, 1, 1)
        e2e = {}
        for m in manifest["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            e2e[m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
        out[workload] = {
            "runs": runs,
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "ops_per_run": [r["attempted"] for r in results],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"# {workload}: {runs} runs done", file=sys.stderr, flush=True)
    return out


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return f"{x:.4g}"


def print_tables(manifest: dict, data: dict) -> None:
    e2e = manifest["end_to_end"]
    header = ["workload", "ok"] + [f"{m['name']} ({m['unit']})" for m in e2e]
    rows = []
    for workload, d in data.items():
        cells = [workload, "yes" if d["correct"] else "NO"]
        for m in e2e:
            v = d["end_to_end"][m["name"]]
            cell = _fmt(v["median"])
            if d["runs"] > 1:
                cell += f" ±{v['spread']:.3f}/{m['bound']}"
            cells.append(cell)
        rows.append(cells)
    _print_rows(header, rows)
    if any(d["runs"] > 1 for d in data.values()):
        print("(median ±spread/bound; spread = IQR / median over the runs)")
    print()
    layer = manifest["per_layer"]
    header = ["workload"] + [f"{m['name']} ({m['unit']})" for m in layer]
    rows = [[w] + [_fmt(d["per_layer"][m["name"]]) for m in layer] for w, d in data.items()]
    _print_rows(header, rows)


def _print_rows(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    manifest = load_manifest()
    ap = argparse.ArgumentParser(description="Print every benchmark metric, one row per workload.")
    ap.add_argument("--runs", type=int, default=1, help="untraced runs per workload (seeds 1..N)")
    ap.add_argument("--baseline", action="store_true", help="print the recorded baseline only")
    ap.add_argument("--record", metavar="PATH", help="write the measurements as a baseline file")
    args = ap.parse_args(argv)
    if args.baseline:
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = json.load(fh)
        for point in baseline["trajectory"]:
            print(f"commit {point['commit']}  python {point['python']}  nproc {point['nproc']}"
                  f"  {point['runs']} runs x {point['run_seconds']} s")
            print_tables(manifest, point["workloads"])
        return 0
    data = measure(manifest, args.runs)
    print_tables(manifest, data)
    if args.record:
        point = {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "runs": args.runs,
            "run_seconds": manifest["run_seconds"],
            "workloads": data,
        }
        try:
            with open(args.record, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            baseline = {"trajectory": []}
        baseline["trajectory"].append(point)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if all(d["correct"] for d in data.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
