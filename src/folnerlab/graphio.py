"""Plain-text graph files.

Format, one record per line:

    vertices N
    edge U V
    ...
    basepoint LABEL V
    ...

Vertices are 0-indexed.  `edge` lines are undirected and must appear once per
edge; `basepoint` lines are optional and attach labels to vertices.  Blank
lines and lines starting with '#' are ignored.  The loader rejects self-loops,
duplicate edges (in either orientation), out-of-range indices, duplicate
basepoint labels, and disconnected graphs.  Given a vertex budget, it
rejects a `vertices N` header with N above it before reading further.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import BudgetExceededError, GraphFormatError
from .space import Graph

__all__ = ["load_graph", "save_graph", "dump_graph", "parse_graph"]


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
        n = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: vertex count {parts[1]!r} is not an integer")
    if n < 1:
        raise GraphFormatError(f"line {lineno}: vertex count must be positive")
    if vertex_budget is not None and n > vertex_budget:
        raise BudgetExceededError(f"graph file header, line {lineno}", n, vertex_budget)

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    basepoints: dict[str, int] = {}
    for lineno, line in records:
        parts = line.split()
        if parts[0] == "edge":
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'edge U V'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex in {line!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: edge ({u}, {v}) out of range")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            seen.add(key)
            edges.append((u, v))
        elif parts[0] == "basepoint":
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'basepoint LABEL V'")
            label = parts[1]
            try:
                v = int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex in {line!r}")
            if not 0 <= v < n:
                raise GraphFormatError(f"line {lineno}: basepoint {label!r} -> {v} out of range")
            if label in basepoints:
                raise GraphFormatError(f"line {lineno}: duplicate basepoint {label!r}")
            basepoints[label] = v
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")

    try:
        return Graph.from_edges(n, edges, basepoints)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path: str | Path, vertex_budget: int | None = None) -> Graph:
    return parse_graph(Path(path).read_text(), vertex_budget)


def dump_graph(graph: Graph) -> str:
    out = [f"vertices {graph.vertex_count}"]
    for u, nbrs in enumerate(graph.adjacency):
        out.extend(f"edge {u} {v}" for v in nbrs if u < v)
    for label in sorted(graph.basepoints):
        out.append(f"basepoint {label} {graph.basepoints[label]}")
    return "\n".join(out) + "\n"


def save_graph(graph: Graph, path: str | Path) -> None:
    Path(path).write_text(dump_graph(graph))
