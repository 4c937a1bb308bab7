"""Record the reference output of every op in every workload's pool.

    python3 perfbench/record.py

Runs each op of every pool once, without relabelling, against the
checkout's evoalg and writes ``perfbench/reference.json``: per workload, a
digest of each generated input file; per library op, the normal vector
of each codim-1 subalgebra found (runs map these through their
relabelling); per CLI op, the sha256 of its canonical output (plus the
text itself over R, where the last digits of a float may move).  It refuses to
record when an output fails the benchmark's own closure or oracle checks.
Re-record only at a commit whose outputs are trusted, and say so in the
change that does it.
"""

from __future__ import annotations

import json
import os
import sys

import exact
import gen
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record_workload(evoalg, workload: str) -> dict:
    pool = gen.make_pool(workload, worker.input_dir(workload))
    gen.write_items(pool, os.path.join(ROOT, worker.input_dir(workload)))
    matrices = worker.load_inputs(evoalg, pool, workload)
    runner = worker.Runner(evoalg, pool)
    checker = worker.Checker(pool, workload, None)
    items = {item.name: item for item in pool.items}
    ops = {}
    for op in pool.ops:
        field = items[op.item].field
        _, _, raw = runner.call(op, runner.matrix(op))
        text, bases = runner.canonical(op, raw)
        checker.bases[op.key] = (op, bases)
        if text is None:
            normals = [exact.hyperplane_normal(b, field) for b in bases]
            if None in normals:
                raise SystemExit(f"{op.key}: refusing to record a subspace that is not a hyperplane")
            ops[op.key] = {"normals": [exact.normal_text(v) for v in normals]}
            continue
        entry = {"sha256": worker.digest(text)}
        if field["kind"] == "R":
            entry["text"] = text
        ops[op.key] = entry
    if checker.closure_failures() or checker.cross_check(evoalg, matrices):
        raise SystemExit(f"{workload}: refusing to record:\n" + "\n".join(checker.errors))
    return {
        "inputs": {item.name: worker.digest(item.json_text()) for item in pool.items},
        "ops": ops,
    }


def main() -> int:
    os.chdir(ROOT)
    evoalg = worker.import_evoalg(ROOT)
    reference = {w: record_workload(evoalg, w) for w in gen.WORKLOADS}
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, ref in reference.items():
        print(f"{w}: {len(ref['inputs'])} inputs, {len(ref['ops'])} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
