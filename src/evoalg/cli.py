"""Command-line front end.

Algebra definition files are JSON with three keys::

    {
      "field": {"kind": "Q"},            // or {"kind": "Fp", "p": 5}
                                          // or {"kind": "R", "tol": 1e-9}
      "dim": 3,
      "matrix": [["1", "0", "0"],
                 ["1", "-1", "1"],
                 ["2", "1", "0"]]
    }

Matrix entries are scalar strings so exact rationals survive the trip
through JSON; row i holds the coordinates of e_i^2.  All output is
deterministic: subalgebras are canonically ordered and scalars render in
a fixed canonical form.  ``--json`` switches any command to a stable
machine-readable format.

Each ``cmd_*`` takes the loaded file and the parsed arguments and returns
its result: the JSON object under ``--json``, else its lines of text.
``main`` loads the file once, before a ``--vector`` or ``--span`` is
parsed, and prints the result once.

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .algebra import Element, EvolutionAlgebra
from .errors import EvoAlgError, ParseError
from .field import APPROX_REALS, PRIME_FIELD, FieldSpec, _parse_float, _parse_int, scalar_parse
from .finder import (
    CASE_DROP_Q,
    CASE_ROOT,
    CASE_ROW,
    CodimOneFound,
    PairDiagnostics,
    enumerate_codim1,
    onedim_residual,
    solve_onedim,
)
from .linalg import Matrix
from .oracle import DEFAULT_MAX_SUBSPACES, enumerate_subalgebras
from .subspace import Subspace


@dataclass
class AlgebraFile:
    """Parsed algebra definition: field spec, dimension, structure matrix."""

    spec: FieldSpec
    dim: int
    matrix: Matrix

    @classmethod
    def from_json_obj(cls, obj) -> "AlgebraFile":
        if not isinstance(obj, dict):
            raise ParseError("algebra file must be a JSON object")
        for key in ("field", "dim", "matrix"):
            if key not in obj:
                raise ParseError(f"algebra file is missing the {key!r} key")
        spec = _spec_from_obj(obj["field"])
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ParseError(f"dim must be a positive integer, got {dim!r}")
        rows = obj["matrix"]
        if not isinstance(rows, list) or len(rows) != dim:
            raise ParseError(f"matrix must be a list of {dim} rows")
        parsed = []
        for row in rows:
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError(f"every matrix row must have {dim} entries")
            parsed.append([scalar_parse(str(x), spec) for x in row])
        return cls(spec, dim, Matrix(spec, parsed, ncols=dim))

    @classmethod
    def from_path(cls, path: str) -> "AlgebraFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh, parse_float=_parse_float, parse_int=_parse_int)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    def to_json_obj(self) -> dict:
        field: dict = {"kind": self.spec.kind}
        if self.spec.kind == PRIME_FIELD:
            field["p"] = self.spec.p
        elif self.spec.kind == APPROX_REALS:
            field["tol"] = self.spec.tol
        return {
            "field": field,
            "dim": self.dim,
            "matrix": [[x.render() for x in row] for row in self.matrix.rows()],
        }

    def algebra(self) -> EvolutionAlgebra:
        return EvolutionAlgebra(self.matrix)


def _spec_from_obj(obj) -> FieldSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("field descriptor must be an object with a 'kind' key")
    try:
        return FieldSpec(obj["kind"], p=obj.get("p"), tol=obj.get("tol"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_vector(text: str, algebra: EvolutionAlgebra) -> Element:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != algebra.dim:
        raise ParseError(f"expected {algebra.dim} coordinates, got {len(parts)}: {text!r}")
    return algebra.element([scalar_parse(s, algebra.spec) for s in parts])


def _parse_span(text: str, algebra: EvolutionAlgebra) -> Subspace:
    chunks = [c for c in (s.strip() for s in text.split(";")) if c]
    return Subspace.span(algebra, [_parse_vector(c, algebra) for c in chunks])


def _subspace_json(sub: Subspace) -> list[list[str]]:
    return [[x.render() for x in row] for row in sub.basis.rows()]


def _finding_provenance(f: CodimOneFound) -> str:
    if f.case == CASE_ROOT:
        return f"v = {_vector_text(f)} (cubic root {f.root.render()})"
    if f.case == CASE_ROW:
        return f"v = {_vector_text(f)} (rank-1 row)"
    if f.case == CASE_DROP_Q:
        return f"a[{f.p},{f.q}] = 0; drop e{f.q}"
    return f"a[{f.q},{f.p}] = 0; drop e{f.p}"


def _vector_text(f: CodimOneFound) -> str:
    parts = []
    for x, k in zip(f.vector, (f.p, f.q)):
        if not x.is_zero():
            text = x.render()  # a coefficient is one where it renders so, as in field._render_terms
            parts.append(f"e{k}" if text == "1" else f"{text}*e{k}")
    return " + ".join(parts) if parts else "0"


def _finding_json(f: CodimOneFound) -> dict:
    return {
        "pair": [f.p, f.q],
        "case": f.case,
        "vector": [f.vector[0].render(), f.vector[1].render()] if f.vector else None,
        "root": f.root.render() if f.root is not None else None,
        "dimension": f.subspace.dim,
        "basis": _subspace_json(f.subspace),
    }


def _diag_json(d: PairDiagnostics) -> dict:
    return {
        "pair": [d.p, d.q],
        "rank": d.rank,
        "row": [d.row[0].render(), d.row[1].render()] if d.row else None,
        "closure_lhs": d.closure_lhs.render() if d.closure_lhs is not None else None,
        "closure_rhs": d.closure_rhs.render() if d.closure_rhs is not None else None,
        "closure_holds": d.closure_holds,
        "cubic": [c.render() for c in d.cubic.coefficients()] if d.cubic else None,
        "nonzero_roots": [r.render() for r in d.roots] if d.roots is not None else None,
        "drop_p": d.drop_p,
        "drop_q": d.drop_q,
        "flagged_roots": [r.render() for r in d.flagged_roots],
    }


def _diag_text(a: EvolutionAlgebra, d: PairDiagnostics) -> str:
    head = f"pair ({d.p},{d.q}): rank {d.rank}"
    if d.rank == 2:
        return f"{head}; no candidate direction"
    if d.rank == 1:
        verdict = "holds" if d.closure_holds else "fails"
        return (
            f"{head}; row ({d.row[0].render()}, {d.row[1].render()});"
            f" closure check: {d.closure_lhs.render()} vs {d.closure_rhs.render()} -> {verdict}"
        )
    roots = ", ".join(r.render() for r in d.roots) if d.roots else "(none)"
    apq = a.structure_constant(d.p, d.q)
    aqp = a.structure_constant(d.q, d.p)
    bits = [
        f"{head}; cubic {d.cubic.render()}; nonzero roots: {roots}",
        f"a[{d.p},{d.q}] = {apq.render()}" + (" (drop)" if d.drop_q else " (no drop)"),
        f"a[{d.q},{d.p}] = {aqp.render()}" + (" (drop)" if d.drop_p else " (no drop)"),
    ]
    if d.flagged_roots:
        bits.append(
            "flagged roots (near tolerance): " + ", ".join(r.render() for r in d.flagged_roots)
        )
    return "; ".join(bits)


# -- commands ----------------------------------------------------------


def _count_line(count: int, what: str) -> str:
    return f"{count} {what}" + ("" if count == 1 else "s")


def _natural_basis(sub: Subspace, as_json: bool):
    """The natural basis of the subalgebra ``sub``: its JSON fields, or
    its text lines with each vector's support."""
    basis = sub.natural_basis()
    if as_json:
        return {"natural_basis": _subspace_json(sub), "supports": [list(e.support()) for e in basis]}
    lines = ["natural basis:"]
    for e in basis:
        support = "{" + ", ".join(map(str, e.support())) + "}"
        lines.append(f"  {e.render()}  (support {support})")
    return lines


def cmd_info(algfile: AlgebraFile, args):
    if args.json:
        return algfile.to_json_obj()
    return [
        f"field: {algfile.spec.describe()}",
        f"dim: {algfile.dim}",
        "structure matrix (row i = coordinates of e_i^2):",
        *(f"  {line}" for line in algfile.matrix.render_rows()),
    ]


def cmd_regular(algfile: AlgebraFile, args):
    algebra = algfile.algebra()
    det = algebra.determinant().render()
    regular = algebra.is_regular()
    if args.json:
        return {"regular": regular, "determinant": det}
    return [f"{'regular' if regular else 'not regular'} (det = {det})"]


def cmd_codim1(algfile: AlgebraFile, args):
    algebra = algfile.algebra()
    report = enumerate_codim1(algebra)
    if args.json:
        return {
            "count": report.count,
            "subalgebras": [_finding_json(f) for f in report.found],
            "diagnostics": [_diag_json(d) for d in report.diagnostics],
        }
    lines = [_count_line(report.count, "codimension-one subalgebra")]
    for f in report.found:
        lines.append(f"  {f.subspace.render()}  [pair ({f.p},{f.q}): {_finding_provenance(f)}]")
    if args.verbose:
        lines.append("pair diagnostics:")
        lines += (f"  {_diag_text(algebra, d)}" for d in report.diagnostics)
    return lines


def cmd_onedim(algfile: AlgebraFile, args):
    algebra = algfile.algebra()
    if args.vector is not None:
        res = onedim_residual(algebra, _parse_vector(args.vector, algebra))
        if args.json:
            return {"residual": [c.render() for c in res.coords], "is_zero": res.is_zero()}
        coords = ", ".join(c.render() for c in res.coords)
        return [f"residual: ({coords})", f"residual is zero: {'yes' if res.is_zero() else 'no'}"]
    lines = solve_onedim(algebra)
    if args.json:
        return {"count": len(lines), "lines": [{"basis": _subspace_json(s)} for s in lines]}
    return [_count_line(len(lines), "one-dimensional subalgebra"), *(f"  {s.render()}" for s in lines)]


def cmd_verify(algfile: AlgebraFile, args):
    algebra = algfile.algebra()
    sub = _parse_span(args.span, algebra)
    closed = sub.is_subalgebra()
    regular = closed and algebra.is_regular()
    basis = _natural_basis(sub, args.json) if regular else None
    note = None if basis else "not a subalgebra" if not closed else "ambient algebra not regular"
    if args.json:
        return {"subalgebra": closed, **(basis or {"natural_basis": None, "supports": None}), "note": note}
    lines = [f"subalgebra: {'yes' if closed else 'no'}"]
    if closed:
        lines += basis or [f"natural basis: unavailable ({note})"]
    return lines


def cmd_natural_basis(algfile: AlgebraFile, args):
    return _natural_basis(_parse_span(args.span, algfile.algebra()), args.json)


def cmd_enumerate(algfile: AlgebraFile, args):
    subs = enumerate_subalgebras(algfile.algebra(), max_count=args.max_size)
    if args.json:
        return {
            "count": len(subs),
            "subalgebras": [{"dimension": s.dim, "basis": _subspace_json(s)} for s in subs],
        }
    return [_count_line(len(subs), "subalgebra"), *(f"  {s.render()}  (dim {s.dim})" for s in subs)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoalg",
        description="Subalgebra search for finite-dimensional evolution algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="algebra definition file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("info", cmd_info, "echo the parsed algebra definition")
    add("regular", cmd_regular, "regularity verdict and determinant")
    p = add("codim1", cmd_codim1, "enumerate codimension-one subalgebras")
    p.add_argument("--verbose", action="store_true", help="per-pair diagnostics")
    p = add("onedim", cmd_onedim, "one-dimensional subalgebras, or check one vector")
    p.add_argument("--vector", help="comma-separated coordinates to check instead")
    p = add("verify", cmd_verify, "closure verdict (and natural basis) for a span")
    p.add_argument("--span", required=True, help="semicolon-separated coordinate vectors")
    p = add("natural-basis", cmd_natural_basis, "natural basis of a subalgebra span")
    p.add_argument("--span", required=True, help="semicolon-separated coordinate vectors")
    p = add("enumerate", cmd_enumerate, "all subalgebras by brute force (prime fields)")
    p.add_argument(
        "--max-size",
        type=int,
        default=DEFAULT_MAX_SUBSPACES,
        help="subspace-count guard for the enumeration",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(AlgebraFile.from_path(args.path), args)
        print(json.dumps(result, indent=2) if args.json else "\n".join(result))
        sys.stdout.flush()
        return 0
    except EvoAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except BrokenPipeError:
        # The reader of stdout has gone: stop quietly, and point stdout at
        # devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
