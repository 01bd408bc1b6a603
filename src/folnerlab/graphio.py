"""Plain-text graph files.

Format, one record per line:

    vertices N
    edge U V
    ...
    basepoint LABEL V
    ...

A file is UTF-8 text.  Vertices are 0-indexed, and every integer is written
in ASCII digits with an optional sign.  `edge` lines are undirected and must
appear once per edge; `basepoint` lines are optional and attach labels to
vertices.  Blank lines and lines starting with '#' are ignored.

`parse_graph` only reads.  It rejects what the text gets wrong (the header,
a vertex count above a given budget, before reading on, a record's shape, a
non-integer vertex, a repeated basepoint label) and hands the rest to
`Graph.from_edges`, the one check of out-of-range, self-loop and duplicate
edges, basepoint range and connectivity.  So a file with several faults
reports its first text fault, else its first edge fault, else its first
basepoint fault, else that it is disconnected.

The text is split into lines in blocks of 64 KiB.  Inside a block, a run of
canonical edge lines, `edge U V` and a newline with U and V of 1 to 18 ASCII
digits, is found with one regular-expression search and read into int64
pairs in one call.  Every other line (the header, comments, blanks,
basepoints, other whitespace or line ends, signs, long integers, faults) is
read as a record of its own, and its edge vertices are read into integers a
chunk at a time; the pending chunk is checked before a later text fault is
raised.  The line of a fault is looked up once it is found.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, GraphFormatError
from .space import Graph

__all__ = ["load_graph", "dump_graph", "parse_graph"]

_SHAPES = {"edge": "edge U V", "basepoint": "basepoint LABEL V"}
# ASCII integers with an optional sign, joined by blanks: `int` reads also
# underscores and non-ASCII digits, so a token is read once it has matched.
_integers = re.compile(r"(?:[+-]?[0-9]+(?: [+-]?[0-9]+)*)?").fullmatch
_CHUNK = 4096  # edge fields read into integers at a time
_BLOCK = 1 << 16  # characters of text split into lines at a time
# Canonical edge lines: `edge U V` and a newline, U and V of 1 to 18 ASCII
# digits, so that each fits in int64.  A run of them is read in one go.
_run = re.compile(r"^(?:edge [0-9]{1,18} [0-9]{1,18}\n)+", re.MULTILINE).search


def _records(text: str) -> Iterator[tuple[int, str]]:
    """The number and stripped text of each line that is not blank or a
    comment.  Lines are split one at a time up to the first record (the
    header) and in blocks of `_BLOCK` characters or a little more after it,
    so a caller that stops at the header has not split the rest of the text
    and no caller holds every line at once.  Inside a block, a run of
    canonical edge lines comes as one item: the number of its first line
    and its text, the only item that ends with a newline."""
    lineno = pos = 0
    bulk = False
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK if bulk else pos) + 1 or len(text)
        while pos < end:
            # A run starts right after a newline, where splitting the text
            # in two splits no line end, and it ends with one.
            run = _run(text, pos, end) if bulk else None
            stop = run.start() if run else end
            for line in text[pos:stop].splitlines():
                lineno += 1
                line = line.strip()
                if line and not line.startswith("#"):
                    bulk = True
                    yield lineno, line
            if run:
                yield lineno + 1, run.group()
                lineno += run.group().count("\n")
            pos = run.end() if run else stop


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """The records of `_records`, a run's lines one by one."""
    for lineno, line in _records(text):
        if line.endswith("\n"):
            yield from enumerate(line.splitlines(), lineno)
        else:
            yield lineno, line


def parse_graph(text: str, vertex_budget: int | None = None) -> Graph:
    records = _records(text)
    lineno, header = next(records, (0, ""))
    if not header:
        raise GraphFormatError("empty graph file")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise GraphFormatError(f"line {lineno}: expected 'vertices N', got {header!r}")
    if not _integers(parts[1]):
        raise GraphFormatError(f"line {lineno}: vertex count {parts[1]!r} is not an integer")
    n = int(parts[1])
    if n < 1:
        raise GraphFormatError(f"line {lineno}: vertex count must be positive")
    if vertex_budget is not None and n > vertex_budget:
        raise BudgetExceededError(f"graph file header, line {lineno}", n, vertex_budget)

    chunks: list[np.ndarray] = []  # the edges read, as (k, 2) arrays
    fields: list[str] = []  # the vertices of the edge records after them
    read = 0  # the edges in `chunks`
    basepoints: dict[str, int] = {}
    for lineno, line in records:
        run = line.endswith("\n")  # a run of canonical edge lines
        if fields and (run or len(fields) >= _CHUNK):  # the pending fields first
            chunks.append(_vertices(text, fields, read))
            read, fields = read + len(chunks[-1]), []
        if run:
            pairs = np.fromstring(line.replace("edge", ""), dtype=np.int64, sep=" ")
            chunks.append(pairs.reshape(-1, 2))
            read += len(chunks[-1])
            continue
        kind, *rest = line.split()
        if kind == "edge" and len(rest) == 2:
            fields += rest
        elif kind == "basepoint" and len(rest) == 2 and _integers(rest[1]) and rest[0] not in basepoints:
            basepoints[rest[0]] = int(rest[1])
        else:
            _vertices(text, fields, read)  # an edge's fault before this one
            raise GraphFormatError(f"line {lineno}: " + (
                f"unknown record {kind!r}" if kind not in _SHAPES
                else f"expected {_SHAPES[kind]!r}" if len(rest) != 2
                else f"non-integer vertex in {line!r}" if not _integers(rest[1])
                else f"duplicate basepoint {rest[0]!r}"))
    chunks.append(_vertices(text, fields, read))
    try:
        return Graph.from_edges(n, np.concatenate(chunks), basepoints)
    except GraphFormatError as exc:
        if exc.where is None:
            raise
        raise GraphFormatError(f"line {_record(text, exc.where)[0]}: {exc}") from exc


def _vertices(text: str, fields: list[str], at: int) -> np.ndarray:
    """The vertices `fields` of edge records `at`, `at` + 1, ... as a (k, 2)
    array; GraphFormatError at the record of the first non-integer one."""
    if not _integers(" ".join(fields)):
        bad = next(i for i, f in enumerate(fields) if not _integers(f))
        lineno, line = _record(text, at + bad // 2)
        raise GraphFormatError(f"line {lineno}: non-integer vertex in {line!r}")
    try:
        return np.array(fields, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # a vertex past int64, which `from_edges` reports
        return np.array([int(f) for f in fields], dtype=object).reshape(-1, 2)


def _record(text: str, where: int | str) -> tuple[int, str]:
    """The number and text of edge record number `where` (from 0), or of the
    first basepoint record labelled `where`."""
    key = ["edge"] if isinstance(where, int) else ["basepoint", where]
    found = (record for record in _lines(text) if record[1].split()[: len(key)] == key)
    return next(islice(found, where if isinstance(where, int) else 0, None))


def load_graph(path: str | Path, vertex_budget: int | None = None) -> Graph:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The parser's line count: the lines of the text before the byte,
        # and one more if that text ends a line.
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise GraphFormatError(
            f"line {line}: byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8"
        ) from None
    return parse_graph(text, vertex_budget)


def dump_graph(graph: Graph) -> str:
    out = [f"vertices {graph.vertex_count}"]
    for u, nbrs in enumerate(graph.adjacency):
        out.extend(f"edge {u} {v}" for v in nbrs if u < v)
    out.extend(f"basepoint {label} {v}" for label, v in sorted(graph.basepoints.items()))
    return "\n".join(out) + "\n"
