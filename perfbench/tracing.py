"""Tracing of evoalg from outside the package.

``Tracer.install`` replaces public functions and methods with wrappers at
every module binding where they are reachable (``rref`` is imported by
name into ``subspace`` and ``finder``, the finder and oracle entry points
into ``cli`` and the package root), so no file of the package changes.
Each wrapped call records a span: name, start, end, parent span and op
id.  Spans stay in memory until the run ends.  Scalar construction and
field-spec comparisons are only counted: a span per scalar operation
would make tracing dominate the run.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

MARK = "__perfbench_wrapped__"

# Layer metric name -> (module, attribute path) of the wrapped callable.
SPANS = {
    "field.nonzero_roots": ("evoalg.field", "nonzero_roots"),
    "field.scalar_parse": ("evoalg.field", "scalar_parse"),
    "linalg.rref": ("evoalg.linalg", "rref"),
    "linalg.determinant": ("evoalg.linalg", "determinant"),
    "linalg.inverse": ("evoalg.linalg", "inverse"),
    "algebra.product": ("evoalg.algebra", "Element.__mul__"),
    "algebra.identity_checks": ("evoalg.algebra", "EvolutionAlgebra.__eq__"),
    "subspace.new": ("evoalg.subspace", "Subspace.__init__"),
    "subspace.contains": ("evoalg.subspace", "Subspace.contains"),
    "subspace.is_subalgebra": ("evoalg.subspace", "Subspace.is_subalgebra"),
    "finder.enumerate_codim1": ("evoalg.finder", "enumerate_codim1"),
    "finder.solve_onedim": ("evoalg.finder", "solve_onedim"),
    "oracle.enumerate_subalgebras": ("evoalg.oracle", "enumerate_subalgebras"),
    "cli.parse": ("evoalg.cli", "AlgebraFile.from_path"),
    "cli.main": ("evoalg.cli", "main"),
}

# Count metrics reported besides the span calls; self-test and
# determinism checks use the same list.
COUNTS = (
    "field.scalars_created",
    "field.scalars_created.Q",
    "field.scalars_created.Fp",
    "field.scalars_created.R",
    "field.spec_compares",
    "finder.pairs.rank0",
    "finder.pairs.rank1",
    "finder.pairs.rank2",
    "finder.candidates",
    "oracle.subspaces_scanned",
)

# Metric name -> unit, in the order BENCHMARK.json lists them.
METRICS = {}
for _name in SPANS:
    METRICS[_name if _name == "algebra.identity_checks" else _name + ".calls"] = "count"
    METRICS[_name + ".self_s"] = "s"
for _name in COUNTS:
    METRICS[_name] = "count"
METRICS.update({
    "subspace.closed_ratio": "ratio",
    "finder.unique_ratio": "ratio",
    "oracle.closed_ratio": "ratio",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
})


def resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "evoalg" or name.startswith("evoalg."))]


def wrapped_bindings() -> int:
    """Number of tracer wrappers currently reachable from evoalg modules."""
    found = 0
    for module in package_modules():
        for value in vars(module).values():
            if callable(value) and hasattr(value, MARK):
                found += 1
            elif isinstance(value, type) and value.__module__.startswith("evoalg"):
                found += sum(hasattr(getattr(v, "__func__", v), MARK) for v in vars(value).values())
    return found


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches the
    package and ``uninstall`` restores every binding it replaced."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(result, idx)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- result hooks (attribute reads only, no evoalg arithmetic) ---------

    def _on_codim1(self, report, _idx):
        counts = self.counts
        for d in report.diagnostics:
            counts[f"finder.pairs.rank{d.rank}"] += 1
            if d.rank == 1:
                counts["finder.candidates"] += bool(d.closure_holds)
            elif d.rank == 0:
                counts["finder.candidates"] += len(d.roots) + bool(d.drop_p) + bool(d.drop_q)
        counts["finder.found"] += report.count

    def _on_is_subalgebra(self, closed, idx):
        counts = self.counts
        counts["subspace.closed"] += bool(closed)
        parent = self.span_parent[idx]
        if parent >= 0 and self.names[self.span_name[parent]] == "oracle.enumerate_subalgebras":
            counts["oracle.subspaces_scanned"] += 1
            counts["oracle.closed"] += bool(closed)

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> int:
        replaced = 0
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    replaced += 1
        return replaced

    def _patch_class_attr(self, owner, attr, wrap):
        raw = owner.__dict__[attr]
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))

    def install(self) -> None:
        """Wrap every traced callable at every binding in the package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "finder.enumerate_codim1": self._on_codim1,
            "subspace.is_subalgebra": self._on_is_subalgebra,
        }
        for name, (module, path) in SPANS.items():
            owner, attr = resolve(module, path)
            wrap = lambda fn, name=name: self._span_wrapper(name, fn, hooks.get(name))  # noqa: E731
            if isinstance(owner, type):
                self._patch_class_attr(owner, attr, wrap)
            else:
                original = getattr(owner, attr)
                if self._replace_everywhere(original, wrap(original)) == 0:
                    raise RuntimeError(f"no binding of {module}.{path} found")

        field = sys.modules["evoalg.field"]
        counts = self.counts

        def counted_init(orig):
            def __init__(scalar, spec, value):
                counts[spec.kind] += 1
                orig(scalar, spec, value)
            setattr(__init__, MARK, orig)
            return __init__

        def counted_eq(orig):
            def __eq__(spec, other):
                counts["field.spec_compares"] += 1
                return orig(spec, other)
            setattr(__eq__, MARK, orig)
            return __eq__

        self._patch_class_attr(field.FieldScalar, "__init__", counted_init)
        self._patch_class_attr(field.FieldSpec, "__eq__", counted_eq)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls and self time per span name, plus counters and ratios.

        A span's self time is its duration minus the time its child spans
        cover.
        """
        n = len(self.span_start)
        start, end, parent, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += (end[i] - start[i]) - child[i]
        c = self.counts
        out = {}
        for name in SPANS:
            key = name if name == "algebra.identity_checks" else name + ".calls"
            out[key] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out["field.scalars_created.Q"] = c["Q"]
        out["field.scalars_created.Fp"] = c["Fp"]
        out["field.scalars_created.R"] = c["R"]
        out["field.scalars_created"] = c["Q"] + c["Fp"] + c["R"]
        for name in COUNTS:
            out.setdefault(name, c[name])
        out["subspace.closed_ratio"] = _ratio(c["subspace.closed"], calls["subspace.is_subalgebra"])
        out["finder.unique_ratio"] = _ratio(c["finder.found"], c["finder.candidates"])
        out["oracle.closed_ratio"] = _ratio(c["oracle.closed"], c["oracle.subspaces_scanned"])
        out["trace.spans"] = n
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line, times in seconds."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
