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
from .field import APPROX_REALS, PRIME_FIELD, FieldSpec, scalar_parse
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
                obj = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, too many digits, deep nesting
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


def _parse_span(text: str, algebra: EvolutionAlgebra) -> list[Element]:
    chunks = [c for c in (s.strip() for s in text.split(";")) if c]
    return [_parse_vector(c, algebra) for c in chunks]


def _render_vector(coords) -> str:
    return "(" + ", ".join(x.render() for x in coords) + ")"


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
    alpha, beta = f.vector
    parts = []
    if not alpha.is_zero():
        parts.append(f"e{f.p}" if alpha.is_one() else f"{alpha.render()}*e{f.p}")
    if not beta.is_zero():
        parts.append(f"e{f.q}" if beta.is_one() else f"{beta.render()}*e{f.q}")
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


def cmd_info(args) -> int:
    algfile = AlgebraFile.from_path(args.path)
    if args.json:
        print(json.dumps(algfile.to_json_obj(), indent=2))
        return 0
    print(f"field: {algfile.spec.describe()}")
    print(f"dim: {algfile.dim}")
    print("structure matrix (row i = coordinates of e_i^2):")
    for line in algfile.matrix.render_rows():
        print(f"  {line}")
    return 0


def cmd_regular(args) -> int:
    algebra = AlgebraFile.from_path(args.path).algebra()
    det = algebra.determinant()
    regular = algebra.is_regular()
    if args.json:
        print(json.dumps({"regular": regular, "determinant": det.render()}, indent=2))
        return 0
    word = "regular" if regular else "not regular"
    print(f"{word} (det = {det.render()})")
    return 0


def cmd_codim1(args) -> int:
    algebra = AlgebraFile.from_path(args.path).algebra()
    report = enumerate_codim1(algebra)
    if args.json:
        obj = {
            "count": report.count,
            "subalgebras": [_finding_json(f) for f in report.found],
            "diagnostics": [_diag_json(d) for d in report.diagnostics],
        }
        print(json.dumps(obj, indent=2))
        return 0
    plural = "" if report.count == 1 else "s"
    print(f"{report.count} codimension-one subalgebra{plural}")
    for f in report.found:
        print(f"  {f.subspace.render()}  [pair ({f.p},{f.q}): {_finding_provenance(f)}]")
    if args.verbose:
        print("pair diagnostics:")
        for d in report.diagnostics:
            print(f"  {_diag_text(algebra, d)}")
    return 0


def cmd_onedim(args) -> int:
    algebra = AlgebraFile.from_path(args.path).algebra()
    if args.vector is not None:
        x = _parse_vector(args.vector, algebra)
        res = onedim_residual(algebra, x)
        if args.json:
            obj = {"residual": [c.render() for c in res.coords], "is_zero": res.is_zero()}
            print(json.dumps(obj, indent=2))
            return 0
        print(f"residual: {_render_vector(res.coords)}")
        print(f"residual is zero: {'yes' if res.is_zero() else 'no'}")
        return 0
    lines = solve_onedim(algebra)
    if args.json:
        obj = {"count": len(lines), "lines": [{"basis": _subspace_json(s)} for s in lines]}
        print(json.dumps(obj, indent=2))
        return 0
    plural = "" if len(lines) == 1 else "s"
    print(f"{len(lines)} one-dimensional subalgebra{plural}")
    for s in lines:
        print(f"  {s.render()}")
    return 0


def _natural_basis_lines(basis: list[Element]) -> list[str]:
    out = ["natural basis:"]
    for e in basis:
        support = "{" + ", ".join(str(i) for i in e.support()) + "}"
        out.append(f"  {e.render()}  (support {support})")
    return out


def cmd_verify(args) -> int:
    algebra = AlgebraFile.from_path(args.path).algebra()
    sub = Subspace.span(algebra, _parse_span(args.span, algebra))
    closed = sub.is_subalgebra()
    regular = algebra.is_regular()
    basis = sub.natural_basis() if closed and regular else None
    if args.json:
        obj = {
            "subalgebra": closed,
            "natural_basis": _subspace_json(sub) if basis is not None else None,
            "supports": [list(e.support()) for e in basis] if basis is not None else None,
            "note": None if closed and regular else (
                "not a subalgebra" if not closed else "ambient algebra not regular"
            ),
        }
        print(json.dumps(obj, indent=2))
        return 0
    print(f"subalgebra: {'yes' if closed else 'no'}")
    if closed and basis is not None:
        for line in _natural_basis_lines(basis):
            print(line)
    elif closed:
        print("natural basis: unavailable (ambient algebra not regular)")
    return 0


def cmd_natural_basis(args) -> int:
    algebra = AlgebraFile.from_path(args.path).algebra()
    sub = Subspace.span(algebra, _parse_span(args.span, algebra))
    basis = sub.natural_basis()
    if args.json:
        obj = {
            "natural_basis": _subspace_json(sub),
            "supports": [list(e.support()) for e in basis],
        }
        print(json.dumps(obj, indent=2))
        return 0
    for line in _natural_basis_lines(basis):
        print(line)
    return 0


def cmd_enumerate(args) -> int:
    algebra = AlgebraFile.from_path(args.path).algebra()
    subs = enumerate_subalgebras(algebra, max_count=args.max_size)
    if args.json:
        obj = {
            "count": len(subs),
            "subalgebras": [{"dimension": s.dim, "basis": _subspace_json(s)} for s in subs],
        }
        print(json.dumps(obj, indent=2))
        return 0
    plural = "" if len(subs) == 1 else "s"
    print(f"{len(subs)} subalgebra{plural}")
    for s in subs:
        print(f"  {s.render()}  (dim {s.dim})")
    return 0


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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvoAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone: stop quietly, and point stdout at
        # devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
