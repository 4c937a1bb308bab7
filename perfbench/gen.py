"""Seeded input generator shared by every workload.

Every input is a regular evolution algebra written in the CLI's JSON file
format, and the library workloads parse it with the CLI's own reader, so
both kinds of workload read the same inputs.  The pool of algebras and CLI invocations is drawn from the fixed
``POOL_SEED``; that keeps it covered by the outputs recorded in
``reference.json``.  The command-line seed draws the order in which one
run visits the pool, afresh for every pass over it, and, for every
library op, a random relabelling of the natural basis (a permutation and
sign changes): the op then runs on an isomorphic algebra with a structure
matrix of its own, so no two library ops need receive the same input, and
its expected output is the recorded one mapped through the relabelling.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace

import exact

POOL_SEED = 20251017

Q = {"kind": "Q"}
R = {"kind": "R", "tol": 1e-9}


def fp(p: int) -> dict:
    return {"kind": "Fp", "p": p}


@dataclass(frozen=True)
class Item:
    """One generated algebra file."""

    name: str
    field: dict
    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    def json_text(self) -> str:
        obj = {"field": self.field, "dim": self.dim, "matrix": [list(r) for r in self.rows]}
        return json.dumps(obj) + "\n"


@dataclass(frozen=True)
class Op:
    """One call into the program: ``kind`` names the public entry point."""

    key: str
    kind: str  # "codim1" (library call) or "cli" (evoalg.cli.main)
    item: str
    argv: tuple = ()
    relabel: tuple = ()  # library ops: (perm, signs), see exact.relabel


# Each workload: a pool of (field, n, style, how many algebras, op kind).
# A library op calls enumerate_codim1; a "cli" item yields one op per
# invocation of the rotation in _cli_argvs.
# Sizes follow per-op times measured on a 2-core box so that one pass over
# the pool takes about two seconds and a run makes well over 100 ops.  The
# op count of a pass is odd and 10 * k + 5, so the median and the 90th
# percentile fall inside a cluster of repeats of one op, not on the edge
# between two ops of very different cost.
WORKLOADS = {
    "codim1-sparse": {
        "why": "enumerate_codim1 over Q on sparse n=5,6,7: rank-0/1 pairs make candidate "
        "verification, dedup and algebra identity checks dominate",
        "pool": [(Q, 5, "sparse", 8, "codim1"), (Q, 6, "sparse", 8, "codim1"),
                 (Q, 7, "sparse", 9, "codim1")],
        "trace_passes": 2,
    },
    "codim1-dense": {
        "why": "enumerate_codim1 on dense Q n=16,24, F_7 n=24,32, R n=24: rank-2 pairs, so "
        "determinant and pair rref dominate and verification barely runs",
        "pool": [(field, n, "dense", 3, "codim1")
                 for field, n in ((Q, 16), (Q, 24), (fp(7), 24), (fp(7), 32), (R, 24))],
        "trace_passes": 2,
    },
    "cli-mixed": {
        "why": "evoalg.cli.main in-process on n=3-5 files over Q, F_3, R, all 7 subcommands: "
        "file parsing, argparse and rendering dominate the maths",
        "pool": [
            (field, n, style, 1, "cli")
            for field in (Q, fp(3), R)
            for n, style in ((3, "sparse"), (4, "sparse"), (5, "sparse"), (3, "dense"),
                             (4, "dense"))
        ],
        "trace_passes": 5,
    },
}


def _scalar(value, field: dict) -> str:
    if field["kind"] == "R":
        return f"{value:.2f}"
    if field["kind"] == "Fp":
        return str(value % field["p"])
    return str(value)


def _sparse_rows(rng: random.Random, n: int, field: dict) -> list[list[str]]:
    """Nonzero diagonal plus about n/2 small off-diagonal entries."""
    if field["kind"] == "Fp":
        p = field["p"]
        diag = lambda: rng.randrange(1, p)  # noqa: E731
        off = lambda: rng.randrange(1, p)  # noqa: E731
    elif field["kind"] == "R":
        diag = lambda: rng.choice((-3, -2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2, 3))  # noqa: E731
        off = lambda: rng.choice((-2, -1, -0.5, 0.5, 1, 2))  # noqa: E731
    else:
        diag = lambda: rng.choice((-3, -2, -1, 1, 2, 3))  # noqa: E731
        off = lambda: rng.choice((-2, -1, 1, 2))  # noqa: E731
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag()
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(cells, (n + 1) // 2):
        rows[i][j] = off()
    return [[_scalar(x, field) for x in row] for row in rows]


def _dense_rows(rng: random.Random, n: int, field: dict) -> list[list[str]]:
    if field["kind"] == "Fp":
        return [[str(rng.randrange(field["p"])) for _ in range(n)] for _ in range(n)]
    if field["kind"] == "R":
        return [[_scalar(rng.randint(-999, 999) / 100, field) for _ in range(n)] for _ in range(n)]
    return [[str(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]


def _regular_rows(rng: random.Random, n: int, field: dict, style: str) -> list[list[str]]:
    make = _sparse_rows if style == "sparse" else _dense_rows
    while True:
        rows = make(rng, n, field)
        if exact.is_regular(rows, field):
            return rows


def _field_label(field: dict) -> str:
    return "F%d" % field["p"] if field["kind"] == "Fp" else field["kind"]


def _closed_coordinate_set(rows: list[list[str]], start: int) -> list[int]:
    """Smallest set S of indices containing ``start`` with supp(e_i^2) in S
    for every i in S; span{e_i : i in S} is then a subalgebra."""
    closed, todo = {start}, [start]
    while todo:
        i = todo.pop()
        for j, x in enumerate(rows[i]):
            if float(x) != 0.0 and j not in closed:
                closed.add(j)
                todo.append(j)
    return sorted(closed)


def _vector_text(coords) -> str:
    return ",".join(str(c) for c in coords)


def _cli_argvs(rng: random.Random, index: int, item: Item, path: str) -> list[tuple]:
    """A rotation of 13 invocations through all seven subcommands for one
    file; with 15 files a pass makes 195 ops.

    Some invocations end in an expected exit-1 domain answer: onedim in
    dimension >= 3 over an infinite field, enumerate over a non-prime
    field or past --max-size, natural-basis on a span that is not closed.
    """
    n = item.dim
    fmt = ("--json",) if index % 2 else ()
    unit = lambda i: [1 if j == i else 0 for j in range(n)]  # noqa: E731
    closed = _closed_coordinate_set([list(r) for r in item.rows], rng.randrange(n))
    closed_span = ";".join(_vector_text(unit(i)) for i in closed)
    # The same closed span given through a non-echelon spanning set.
    mixed = [unit(closed[0])] if len(closed) == 1 else [
        [a + b for a, b in zip(unit(closed[0]), unit(closed[1]))]
    ] + [unit(i) for i in closed[1:]]
    mixed_span = ";".join(_vector_text(v) for v in mixed)
    random_span = ";".join(
        _vector_text(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)
    )
    vector = _vector_text(rng.randint(-2, 2) for _ in range(n))
    argvs = [
        ("info", path) + fmt,
        ("regular", path) + fmt,
        ("codim1", path),
        ("codim1", path, "--verbose"),
        ("codim1", path, "--json"),
        ("codim1", path, "--verbose", "--json"),
        ("onedim", path) + fmt,
        ("onedim", path, "--vector=" + vector) + fmt,
        ("verify", path, "--span=" + closed_span) + fmt,
        ("verify", path, "--span=" + random_span, "--json"),
        ("natural-basis", path, "--span=" + mixed_span) + fmt,
        ("natural-basis", path, "--span=" + random_span),
    ]
    if item.field["kind"] == "Fp" and n >= 5:
        argvs.append(("enumerate", path, "--max-size", "1000"))
    else:
        argvs.append(("enumerate", path) + fmt)
    return argvs


@dataclass(frozen=True)
class Pool:
    items: tuple
    ops: tuple
    trace_passes: int


def make_pool(workload: str, input_dir: str) -> Pool:
    """The fixed pool of inputs and ops for one workload.

    ``input_dir`` is where the item files live; CLI ops name them by path.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{POOL_SEED}/{workload}")
    items, ops = [], []
    for field, n, style, count, kind in spec["pool"]:
        for _ in range(count):
            name = f"{_field_label(field)}-n{n}-{style}-{kind}-{len(items)}"
            item = Item(name, field, tuple(tuple(r) for r in _regular_rows(rng, n, field, style)))
            items.append(item)
            if kind == "cli":
                path = os.path.join(input_dir, name + ".json")
                for j, argv in enumerate(_cli_argvs(rng, len(items), item, path)):
                    ops.append(Op(f"{name}/{j}", kind, name, argv))
            else:
                ops.append(Op(name, kind, name))
    return Pool(tuple(items), tuple(ops), spec["trace_passes"])


def write_items(pool: Pool, input_dir: str) -> None:
    os.makedirs(input_dir, exist_ok=True)
    for item in pool.items:
        path = os.path.join(input_dir, item.name + ".json")
        text = item.json_text()
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() == text:
                    continue
        except FileNotFoundError:
            pass
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def relabel_rows(rows, field: dict, relabel: tuple) -> list[list[str]]:
    """Structure matrix, as scalar text, in the relabelled natural basis
    g_k = s_k e_perm[k]: g_k^2 = e_perm[k]^2, so row k is row perm[k]
    with its coordinates relabelled."""
    if not relabel:
        return [list(r) for r in rows]
    perm, signs = relabel
    return [
        [_negate(row[p], field) if s < 0 else row[p] for p, s in zip(perm, signs)]
        for row in (rows[k] for k in perm)
    ]


def _negate(text: str, field: dict) -> str:
    if field["kind"] == "Fp":
        return str(-int(text) % field["p"])
    if exact.parse(text, field) == 0:
        return text
    return text[1:] if text.startswith("-") else "-" + text


def op_sequence(pool: Pool, seed: int):
    """Endless stream of (pass number, op): every pass visits each op of
    the pool once, in an order drawn from ``seed``; each library op also
    gets a relabelling of the basis drawn from ``seed``."""
    rng = random.Random(seed)
    dims = {item.name: item.dim for item in pool.items}
    n = 0
    while True:
        order = list(pool.ops)
        rng.shuffle(order)
        for op in order:
            if op.kind == "codim1":
                dim = dims[op.item]
                perm = tuple(rng.sample(range(dim), dim))
                signs = tuple(rng.choice((1, -1)) for _ in range(dim))
                op = replace(op, relabel=(perm, signs))
            yield n, op
        n += 1
