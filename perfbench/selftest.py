"""Self-test of the benchmark itself (not of evoalg).

    python3 perfbench/selftest.py

Fails (exit 1) when:
  * BENCHMARK.json does not list exactly the workloads of gen.py and the
    metrics the runs print;
  * after ``Tracer.install`` any evoalg module or class still binds an
    original traced callable, or ``uninstall`` leaves a wrapper behind;
  * a per-layer call or count metric is zero on every workload, which
    means a binding was missed;
  * two traced runs with the same seed disagree on any count metric;
  * an untraced run finds tracer wrappers installed;
  * any run reports a failed op.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import run
import tracing
import worker

SEED = 7

# Name imports that exist in the package today; the scan must find them.
EXPECTED_BINDINGS = {
    "linalg.rref": {"evoalg.linalg.rref", "evoalg.subspace.rref", "evoalg.finder.rref"},
    "finder.enumerate_codim1": {"evoalg.finder.enumerate_codim1", "evoalg.cli.enumerate_codim1"},
    "finder.solve_onedim": {"evoalg.finder.solve_onedim", "evoalg.cli.solve_onedim"},
    "oracle.enumerate_subalgebras": {
        "evoalg.oracle.enumerate_subalgebras",
        "evoalg.cli.enumerate_subalgebras",
    },
}


def check_manifest(errors: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if [w["name"] for w in manifest["workloads"]] != list(gen.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from gen.WORKLOADS")
    if {m["name"]: m["unit"] for m in manifest["end_to_end"]} != run.E2E_UNITS:
        errors.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    if {m["name"]: m["unit"] for m in manifest["per_layer"]} != tracing.METRICS:
        errors.append("BENCHMARK.json per_layer differs from tracing.METRICS")


def check_bindings(errors: list) -> None:
    """Every binding of a traced callable is replaced, then restored."""
    worker.import_evoalg(run.ROOT)
    originals = {}
    for name, (module, path) in tracing.SPANS.items():
        owner, attr = tracing.resolve(module, path)
        originals[name] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def holders():
        found = {}
        for module in tracing.package_modules():
            for attr, value in vars(module).items():
                for name, orig in originals.items():
                    if value is orig:
                        found.setdefault(name, []).append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        for name, orig in originals.items():
                            if cvalue is orig:
                                found.setdefault(name, []).append(f"{value.__qualname__}.{cattr}")
        return found

    before = holders()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = holders()
        for name, where in left.items():
            errors.append(f"{name}: still bound unwrapped at {', '.join(sorted(set(where)))}")
        if tracing.wrapped_bindings() == 0:
            errors.append("install() put no wrappers in place")
    finally:
        tracer.uninstall()
    if tracing.wrapped_bindings() or holders() != before:
        errors.append("uninstall() did not restore every binding")
    for name, want in EXPECTED_BINDINGS.items():
        missing = want - set(before.get(name, ()))
        if missing:
            errors.append(f"{name}: binding scan missed {', '.join(sorted(missing))}")


def main() -> int:
    errors: list[str] = []
    check_manifest(errors)
    check_bindings(errors)

    counts = [m for m, unit in tracing.METRICS.items() if unit == "count"]
    seen = dict.fromkeys(counts, 0)
    for workload in gen.WORKLOADS:
        first = run.run(workload, SEED, 0, traced=True)
        second = run.run(workload, SEED, 0, traced=True)
        for res in (first, second):
            if res["failed"]:
                errors.append(f"{workload}: {res['failed']} failed ops: {res['errors'][:3]}")
        for m in counts:
            a, b = first["metrics"][m], second["metrics"][m]
            if a != b:
                errors.append(f"{workload}: {m} is {a} in one run and {b} in the other")
            seen[m] += a
        untraced = run.run(workload, SEED, 1.0, traced=False)
        if untraced["wrapped_bindings"]:
            errors.append(f"{workload}: untraced run found tracer wrappers")
        if untraced["failed"]:
            errors.append(f"{workload}: untraced run failed {untraced['failed']} ops")
        same = all(first["metrics"][m] == second["metrics"][m] for m in counts)
        print(f"{workload}: {first['metrics']['trace.spans']} spans, "
              f"counts {'repeat' if same else 'DIFFER'} across two traced runs")
    for m, total in seen.items():
        if total == 0:
            errors.append(f"{m} is zero on every workload: a binding was missed")
    for line in errors:
        print(f"FAIL: {line}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
