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

`parse_graph` only reads, and always within a vertex budget.  It rejects
what the text gets wrong (the header, a vertex count above the budget,
before reading on, a record's shape, a non-integer vertex, a repeated
basepoint label) at the line that holds it, and hands the rest to
`Graph.from_edges`, the one check of out-of-range, self-loop and duplicate
edges, basepoint range and connectivity.  So a file with several faults
reports its first text fault, else its first edge fault, else its first
basepoint fault, else that it is disconnected.

The text is split into lines, at every line break of `str.splitlines`, in
blocks of 64 KiB.  Inside a block, a run of edge lines is found with one
regular-expression search: lines that end in any of those breaks, have
vertices of at most 18 digits, and any blank that `str.split` splits at
between fields.  Every quantifier of that pattern is possessive (`*+`,
`++`, which `re` reads from Python 3.11 on): a blank starts no `edge`,
sign, digit or line break, so the spans are those of a backtracking
pattern, and the search time grows only with the text.  Every other line (a longer vertex, a last line without a
break) is a record of its own.  The vertex text of every edge goes into one
buffer, read into int64 pairs by `np.fromstring` each time it passes about
64 KiB and at the end; a vertex of over 18 characters is an exact `int`.
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
_BLOCK = 1 << 16  # characters of text split into lines at a time
# The blanks `str.split` splits a line at: the `isspace` characters that
# are not a `splitlines` break.
_BLANKS = "\t\x1f \xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u202f\u205f\u3000"
# The line breaks of `str.splitlines` but \r, which also starts \r\n.
_BREAKS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_break = re.compile(f"\r\n?|[{_BREAKS}]").search
# `np.fromstring` skips ASCII whitespace only, and not \x1c to \x1f, so a
# run's vertex text with any other blank or break is split and joined by spaces.
_UNSKIPPED = "\x1c\x1d\x1e\x1f"
# A run of edge lines from a line start; a vertex of 1 to 18 digits fits in int64.
# Possessive: giving a character back would never let a match go on.
_run = re.compile(
    r"(?:\A|(?<=[\r{1}]))(?:{0}*+edge{0}++[+-]?+[0-9]{{1,18}}+{0}++[+-]?+[0-9]{{1,18}}+{0}*+(?:\r\n?+|[{1}]))++"
    .format(f"[{_BLANKS}]", _BREAKS)
).search


def _records(text: str) -> Iterator[tuple[int, str]]:
    """The number and stripped text of each line that is not blank or a
    comment.  Lines are split one at a time up to the first record (the
    header) and in blocks of `_BLOCK` characters or a little more after it,
    so a caller that stops at the header has not split the rest of the text
    and no caller holds every line at once.  Inside a block, a run of edge
    lines comes as one item: the number of its first line and its text, the
    only item that ends with a line break."""
    lineno = pos = 0
    bulk = False
    while pos < len(text):
        found = _break(text, pos + _BLOCK if bulk else pos)
        end = found.end() if found else len(text)
        while pos < end:
            # A run starts right after a line break, where splitting the
            # text in two splits no line end, and it ends with one.
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
                lineno += run.group().count("edge")  # one per line
            pos = run.end() if run else stop


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """The records of `_records`, a run's lines one by one."""
    for lineno, line in _records(text):
        yield from enumerate(line.splitlines(), lineno)


def parse_graph(text: str, vertex_budget: int) -> Graph:
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
    if n > vertex_budget:
        raise BudgetExceededError(f"graph file header, line {lineno}", n, vertex_budget)

    chunks: list[np.ndarray] = []  # the edges read, as (k, 2) arrays
    pending, size = [], 0  # the vertex text of the edges after them, and its length
    basepoints: dict[str, int] = {}
    for lineno, line in records:
        if line[-1].isspace():  # a run of edge lines
            vertices = line.replace("edge", "")
            if not vertices.isascii() or any(c in vertices for c in _UNSKIPPED):
                vertices = " ".join(vertices.split())
        else:
            kind, *rest = line.split()
            vertices = " ".join(rest if kind == "edge" else rest[1:])
            if kind not in _SHAPES or len(rest) != 2 or not _integers(vertices) or (
                    kind == "basepoint" and rest[0] in basepoints):
                raise GraphFormatError(f"line {lineno}: " + (
                    f"unknown record {kind!r}" if kind not in _SHAPES
                    else f"expected {_SHAPES[kind]!r}" if len(rest) != 2
                    else f"non-integer vertex in {line!r}" if not _integers(vertices)
                    else f"duplicate basepoint {rest[0]!r}"))
            if kind == "basepoint":
                basepoints[rest[0]] = int(rest[1])
                continue
            if max(map(len, rest)) > 18:  # a vertex that may be past int64
                chunks += [_pairs(pending), np.array([[int(v) for v in rest]], dtype=object)]
                pending, size = [], 0
                continue
        pending.append(vertices)
        size += len(vertices)
        if size > _BLOCK:
            chunks.append(_pairs(pending))
            pending, size = [], 0
    chunks.append(_pairs(pending))
    try:
        return Graph.from_edges(n, np.concatenate(chunks), basepoints)
    except GraphFormatError as exc:
        if exc.where is None:
            raise
        raise GraphFormatError(f"line {_record(text, exc.where)}: {exc}") from exc


def _pairs(pending: list[str]) -> np.ndarray:
    """The vertex text `pending`, checked or from a run, as (k, 2) int64 pairs."""
    return np.fromstring(" ".join(pending), dtype=np.int64, sep=" ").reshape(-1, 2)


def _record(text: str, where: int | str) -> int:
    """The line of edge record `where` (from 0), or of basepoint `where`."""
    key = ["edge"] if isinstance(where, int) else ["basepoint", where]
    found = (lineno for lineno, line in _lines(text) if line.split()[: len(key)] == key)
    return next(islice(found, where if isinstance(where, int) else 0, None))


def load_graph(path: str | Path, vertex_budget: int) -> Graph:
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
    """The text of `graph`: its edges u < v in adjacency order, which is the
    order of its sorted keys u·n + v, then its basepoints by label."""
    src, dst = np.divmod(graph._keys, graph.vertex_count)
    upper = src < dst
    out = [f"vertices {graph.vertex_count}"]
    out.extend(f"edge {u} {v}" for u, v in zip(src[upper].tolist(), dst[upper].tolist()))
    out.extend(f"basepoint {label} {v}" for label, v in sorted(graph.basepoints.items()))
    return "\n".join(out) + "\n"
