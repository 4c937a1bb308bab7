"""One closed-loop client: runs a workload's ops against evoalg and checks them.

Started by ``run.py`` in a fresh interpreter with a fixed PYTHONHASHSEED.
Each op calls one public entry point; the next op starts when the previous
one returns.  Every op's output is compared with the reference recorded
in ``reference.json``; after the timed loop, every reported subspace is
re-checked for closure in plain Fraction/int/float code and
codimension-one results over F_p are cross-checked against the oracle.

Modes (the first argument):
  setup    time ``import evoalg`` + ``evoalg.cli`` and parsing and
           constructing the workload's inputs, print the seconds.
  timed    timed loop for --seconds (whole passes over the pool).
  traced   a fixed number of passes untraced, then the same ops traced;
           per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time

import exact
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
# The traced run writes its spans to <workload>.tsv here.
SPANS_DIR = os.path.join(HERE, "_work", "spans")
# Largest number of hyperplanes the F_p cross-check enumerates per algebra.
CROSS_CHECK_LIMIT = 5000


def input_dir(workload: str) -> str:
    """Item files, relative to the checkout root (the worker's cwd)."""
    return os.path.join("perfbench", "_work", "inputs", workload)


def import_evoalg(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import evoalg
    import evoalg.cli

    where = os.path.dirname(os.path.abspath(evoalg.__file__))
    if where != os.path.join(os.path.abspath(src), "evoalg"):
        raise SystemExit(f"evoalg imported from {where}, not from {src}")
    return evoalg


def load_inputs(evoalg, pool: gen.Pool, workload: str) -> dict:
    """Parse every item file through the CLI's own reader."""
    folder = input_dir(workload)
    return {
        item.name: evoalg.cli.AlgebraFile.from_path(os.path.join(folder, item.name + ".json"))
        .algebra()
        .structure
        for item in pool.items
    }


# -- ops ----------------------------------------------------------------


def _bases_text(subs) -> list:
    """Each reported subspace's basis rows as scalar text."""
    return [[[x.render() for x in row] for row in s.basis.rows()] for s in subs]


class Runner:
    """Builds one op's input, calls it, and turns its output into text.

    Entry points are looked up on the package at call time, so a tracer's
    wrappers are used when installed.  Each library op builds a fresh
    ``EvolutionAlgebra`` from its parsed matrix, so no lazily cached
    determinant or inverse carries over from one op to the next.
    """

    def __init__(self, evoalg, pool: gen.Pool):
        self.evoalg = evoalg
        self.items = {item.name: item for item in pool.items}

    def matrix(self, op: gen.Op):
        """A library op's (relabelled) input, parsed by the CLI's reader;
        None for a CLI op, which reads its file itself."""
        if op.kind == "cli":
            return None
        item = self.items[op.item]
        obj = {
            "field": item.field,
            "dim": item.dim,
            "matrix": gen.relabel_rows(item.rows, item.field, op.relabel),
        }
        return self.evoalg.cli.AlgebraFile.from_json_obj(obj).algebra().structure

    def call(self, op: gen.Op, matrix):
        """Run the op; return (wall seconds, CPU seconds, raw output)."""
        evoalg = self.evoalg
        if op.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    code = evoalg.cli.main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code
                dt, dc = time.perf_counter() - t0, time.process_time() - c0
            return dt, dc, (code, out.getvalue(), err.getvalue())
        algebra = evoalg.EvolutionAlgebra(matrix)
        t0, c0 = time.perf_counter(), time.process_time()
        result = evoalg.enumerate_codim1(algebra).subspaces()
        return time.perf_counter() - t0, time.process_time() - c0, result

    @staticmethod
    def canonical(op: gen.Op, raw) -> tuple[str | None, list]:
        """(canonical CLI text or None, reported subspace bases as scalar text)."""
        if op.kind == "cli":
            code, out, err = raw
            bases = []
            if op.argv[0] == "codim1" and "--json" in op.argv and code == 0:
                bases = [f["basis"] for f in json.loads(out)["subalgebras"]]
            return f"exit {code}\n{out}--stderr--\n{err}", bases
        return None, _bases_text(raw)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- checks ---------------------------------------------------------------


class Checker:
    """Reference comparison per op, independent checks per item."""

    def __init__(self, pool: gen.Pool, workload: str, reference: dict | None):
        self.items = {item.name: item for item in pool.items}
        self.reference = reference
        self.bases: dict[str, tuple] = {}  # op key -> (op, reported bases)
        self.errors: list[str] = []
        if reference is not None:
            want = reference["inputs"]
            got = {item.name: digest(item.json_text()) for item in pool.items}
            if got != want:
                raise SystemExit(f"{workload}: generated inputs differ from reference.json")

    def check_op(self, op: gen.Op, text: str | None, bases: list) -> bool:
        """CLI ops: the output's digest (or, over R, its text) matches the
        recorded one.  Library ops: the reported hyperplanes, read by
        ``exact``, are the recorded ones mapped through the op's
        relabelling."""
        self.bases.setdefault(op.key, (op, bases))
        want = self.reference["ops"].get(op.key) if self.reference else None
        if want is None:
            self.errors.append(f"{op.key}: no reference output")
            return False
        field = self.items[op.item].field
        if text is None:
            got = [exact.hyperplane_normal(b, field) for b in bases]
            expected = exact.expected_normals(want["normals"], op.relabel, field)
            if None not in got and exact.normals_match(got, expected, field):
                return True
        elif digest(text) == want["sha256"]:
            return True
        elif "text" in want and exact.texts_match(text, want["text"], field):
            return True
        self.errors.append(f"{op.key}: output differs from the reference")
        return False

    def closure_failures(self) -> set[str]:
        """Op keys whose reported codim-1 subspaces (from library calls or
        `codim1 --json`) fail the plain-arithmetic closure check or have
        the wrong dimension.  Each op is checked on the first input it ran
        on, relabelled or not."""
        bad = set()
        for key, (op, bases) in self.bases.items():
            item = self.items[op.item]
            rows = gen.relabel_rows(item.rows, item.field, op.relabel)
            for basis in bases:
                why = exact.closure_failure(rows, basis, item.field)
                if why is None and len(basis) != item.dim - 1:
                    why = f"dimension {len(basis)}, expected {item.dim - 1}"
                if why is not None:
                    self.errors.append(f"{key}: {why}")
                    bad.add(key)
                    break
        return bad

    def cross_check(self, evoalg, matrices: dict) -> set[str]:
        """Items over F_p whose codim-1 subalgebras differ from the
        oracle's closed subspaces of dimension n-1."""
        bad = set()
        for name, item in self.items.items():
            if item.field["kind"] != "Fp":
                continue
            p, n = item.field["p"], item.dim
            if (p ** n - 1) // (p - 1) > CROSS_CHECK_LIMIT:
                continue
            a = evoalg.EvolutionAlgebra(matrices[name])
            found = {s.render() for s in evoalg.enumerate_codim1(a).subspaces()}
            oracle = {
                s.render()
                for s in evoalg.enumerate_subspaces_of(a, n - 1)
                if s.is_subalgebra()
            }
            if found != oracle:
                self.errors.append(f"{name}: codim-1 search and oracle disagree")
                bad.add(name)
        return bad


# -- modes ------------------------------------------------------------------


def run_setup(root: str, workload: str) -> dict:
    folder = input_dir(workload)
    paths = sorted(os.path.join(folder, name) for name in os.listdir(folder))
    t0 = time.perf_counter()
    evoalg = import_evoalg(root)
    for path in paths:
        evoalg.cli.AlgebraFile.from_path(path).algebra()
    return {"setup_s": time.perf_counter() - t0}


def _loop(runner: Runner, checker: Checker, ops, matrices=None, tracer=None):
    """Run ops in order; return (wall seconds, CPU seconds, whether each
    op's output matched its reference).  Inputs come from ``matrices``
    (aligned with ``ops``) or are built per op; either way outside the
    timed call.  With a tracer, each call is an "op" span."""
    walls, cpus, oks = [], [], []
    for i, op in enumerate(ops):
        try:
            matrix = runner.matrix(op) if matrices is None else matrices[i]
            if tracer is None:
                wall, cpu, raw = runner.call(op, matrix)
            else:
                tracer.op_id = i
                span = tracer.open(0)
                try:
                    wall, cpu, raw = runner.call(op, matrix)
                finally:
                    tracer.close(span)
            text, bases = runner.canonical(op, raw)
        except Exception as exc:  # an op that raises counts as failed
            checker.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            oks.append(False)
            continue
        walls.append(wall)
        cpus.append(cpu)
        oks.append(checker.check_op(op, text, bases))
    return walls, cpus, oks


def _failed(evoalg, matrices, checker: Checker, ops: list, oks: list) -> int:
    """Ops that failed their reference check, or that ran on an item whose
    outputs fail the closure re-check or the oracle cross-check."""
    bad_keys = checker.closure_failures()
    bad_items = checker.cross_check(evoalg, matrices)
    return sum(
        1
        for op, ok in zip(ops, oks)
        if not ok or op.key in bad_keys or op.item in bad_items
    )


def run_timed(root: str, workload: str, seed: int, seconds: float) -> dict:
    """Whole passes over the pool until ``seconds`` have gone by.  Wall and
    CPU time are summed over the calls alone: building inputs and checking
    outputs are left out."""
    pool = gen.make_pool(workload, input_dir(workload))
    evoalg = import_evoalg(root)
    matrices = load_inputs(evoalg, pool, workload)
    checker = Checker(pool, workload, _load_reference(workload))
    runner = Runner(evoalg, pool)

    done = []
    ops = _whole_passes(gen.op_sequence(pool, seed), seconds, time.perf_counter(), done)
    walls, cpus, oks = _loop(runner, checker, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = _failed(evoalg, matrices, checker, done, oks)
    ok = len(done) - failed
    return {
        "attempted": len(done),
        "failed": failed,
        "passes": len(done) // len(pool.ops),
        "errors": checker.errors[:20],
        "wrapped_bindings": tracing.wrapped_bindings(),
        "metrics": {
            "throughput_ops_s": ok / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "latency_p90_ms": statistics.quantiles(walls, n=10)[8] * 1e3,
            "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
            "ok_ratio": ok / len(done),
            "peak_rss_mb": peak_rss_mb,
        },
    }


def run_traced(root: str, workload: str, seed: int) -> dict:
    """The same fixed op list untraced, then traced.

    Both passes start by parsing the inputs as set-up does, so the traced
    pass also measures the parse layer on every workload; the relabelled
    inputs of the library ops are built once, before either pass.  The op
    list depends only on the workload and the seed, so counts repeat
    exactly.
    """
    pool = gen.make_pool(workload, input_dir(workload))
    evoalg = import_evoalg(root)
    checker = Checker(pool, workload, _load_reference(workload))
    runner = Runner(evoalg, pool)
    seq = gen.op_sequence(pool, seed)
    ops = [op for _, op in itertools.takewhile(lambda x: x[0] < pool.trace_passes, seq)]
    inputs = [runner.matrix(op) for op in ops]

    def one_pass(tracer=None):
        matrices = load_inputs(evoalg, pool, workload)
        walls, _, oks = _loop(runner, checker, ops, inputs, tracer)
        return sum(walls), oks, matrices

    untraced, oks_untraced, matrices = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, oks_traced, _ = one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced / untraced
    tracer.write_spans(os.path.join(SPANS_DIR, f"{workload}.tsv"))
    failed = _failed(evoalg, matrices, checker, ops + ops, oks_untraced + oks_traced)
    return {
        "attempted": 2 * len(ops),
        "failed": failed,
        "errors": checker.errors[:20],
        "metrics": metrics,
    }


def _whole_passes(seq, seconds: float, t_start: float, done: list):
    """Ops until the first pass that ends after ``seconds``; every op of
    the pool then ran equally often."""
    current = 0
    for pass_no, op in seq:
        if pass_no != current:
            if time.perf_counter() - t_start >= seconds:
                return
            current = pass_no
        done.append(op)
        yield op


def _load_reference(workload: str) -> dict | None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = ap.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "timed", "traced"):
        sub = modes.add_parser(mode)
        sub.add_argument("--root", required=True, help="checkout root holding src/evoalg")
        sub.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
        if mode != "setup":
            sub.add_argument("--seed", type=int, required=True)
        if mode == "timed":
            sub.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.root, args.workload)
    elif args.mode == "traced":
        result = run_traced(args.root, args.workload, args.seed)
    else:
        result = run_timed(args.root, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
