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
edges, whose `validate` checks basepoint range and connectivity.  So a file
with several faults reports its first text fault, else its first edge fault,
else its first basepoint fault, else that it is disconnected.  The line of
an edge or basepoint fault is looked up only once the fault is found.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import BudgetExceededError, GraphFormatError
from .space import Graph

__all__ = ["load_graph", "dump_graph", "parse_graph"]

_SHAPES = {"edge": "edge U V", "basepoint": "basepoint LABEL V"}


def _integer(token: str) -> int:
    """`token` as an int if it is ASCII [+-]?[0-9]+.  `int` alone also reads
    underscores and non-ASCII digits; on a token without either, which holds
    no whitespace either, it reads exactly that form."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return int(token)


def _records(text: str) -> Iterator[tuple[int, str]]:
    """The number and stripped text of each line that is not blank or a
    comment.  Lines are split one at a time up to the first record (the
    header) and all at once after it, so a caller that stops at the header
    has not split the rest of the text."""
    lineno = pos = 0
    bulk = False
    while pos < len(text):
        end = len(text) if bulk else text.find("\n", pos) + 1 or len(text)
        for line in text[pos:end].splitlines():
            lineno += 1
            line = line.strip()
            if line and not line.startswith("#"):
                bulk = True
                yield lineno, line
        pos = end


def parse_graph(text: str, vertex_budget: int | None = None) -> Graph:
    records = _records(text)
    lineno, header = next(records, (0, ""))
    if not header:
        raise GraphFormatError("empty graph file")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise GraphFormatError(f"line {lineno}: expected 'vertices N', got {header!r}")
    try:
        n = _integer(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: vertex count {parts[1]!r} is not an integer")
    if n < 1:
        raise GraphFormatError(f"line {lineno}: vertex count must be positive")
    if vertex_budget is not None and n > vertex_budget:
        raise BudgetExceededError(f"graph file header, line {lineno}", n, vertex_budget)

    edges: list[tuple[int, int]] = []
    basepoints: dict[str, int] = {}
    for lineno, line in records:
        kind, *fields = line.split()
        if kind not in _SHAPES:
            raise GraphFormatError(f"line {lineno}: unknown record {kind!r}")
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected {_SHAPES[kind]!r}")
        try:  # an edge's first field is a vertex, a basepoint's its label
            first = _integer(fields[0]) if kind == "edge" else fields[0]
            v = _integer(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in {line!r}")
        if kind == "edge":
            edges.append((first, v))
        elif first in basepoints:
            raise GraphFormatError(f"line {lineno}: duplicate basepoint {first!r}")
        else:
            basepoints[first] = v
    try:
        return Graph.from_edges(n, edges, basepoints)
    except GraphFormatError as exc:
        if exc.where is None:
            raise
        raise GraphFormatError(f"line {_line_of(text, exc.where)}: {exc}") from exc


def _line_of(text: str, where: int | str) -> int:
    """The line of edge record number `where` (from 0), or of the basepoint
    record labelled `where`."""
    key = ["edge"] if isinstance(where, int) else ["basepoint", where]
    lines = [lineno for lineno, line in _records(text) if line.split()[: len(key)] == key]
    return lines[where if isinstance(where, int) else 0]


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
