"""
Tests for the plain-text graph format.

Core claims:
    - dump/parse round-trips graphs including basepoints
    - `dump_graph` writes from the graph's keys the bytes of the adjacency
      writer, kept below as the reference, on `generate` for every family
      and named set and on parsed shuffled files; `generate` builds no
      adjacency tuples
    - comments and blank lines are ignored
    - every malformed input is rejected with the offending line number
    - integers are ASCII digits with an optional sign: underscores and
      non-ASCII digits, which `int` would read, are rejected at their line
    - a file that is not UTF-8 is rejected naming the line and byte offset
    - a vertex count above the vertex budget is rejected at the header,
      before the rest of the text is split into lines
    - against the earlier parser, kept below as the reference, on seeded
      files with comments, blank lines and mixed line ends: a file with one
      fault gives the same error text, and a valid shuffled file the same
      adjacency and basepoints
    - a file with several faults reports them in the documented order: text
      faults, then edges in file order, then basepoints, then connectivity
    - the same against the reference on files of several thousand edges,
      with faults far into the file, several far apart, or a non-integer
      vertex in an edge record before a later text fault
    - a vertex past int64 is out of range, with its exact value and line
    - the same against the reference on files of canonical edge lines,
      which the parser reads a run at a time, broken by CRLF, tabs, double
      spaces, '+' signs, other line ends (\\x0b, \\x0c, \\x85, \\u2028),
      comments, blanks, basepoints and a last line without a newline, and
      with a fault right after a run or at the edge of a 64 KiB block
    - the same with any of the 19 blanks `str.split` splits a line at
      (white space that is not a line break) between and around fields,
      and every edge line still comes in a run
    - the same on a Z^2 ball file, in runs (also in no-break spaces) and in
      records of its own (bare \r line ends), with a fault past the first
      128 KiB of edge text, which is read by then
    - a 51,521-vertex Z^2 ball file parses within a 29 MiB tracemalloc peak,
      also with CRLF or bare CR line ends, or tabs or no-break spaces
      between fields
    - the possessive edge-run pattern finds the spans of the backtracking
      one, kept below as the reference, on seeded texts of `edge`, every
      blank and line break, CRLF, signs and vertices of 18 and 19 digits,
      from several start offsets, and on runs across a 64 KiB block edge
"""

import bisect
import functools
import itertools
import random
import re
import tracemalloc

import pytest
from click.testing import CliRunner

from folnerlab import graphio, space
from folnerlab.cli import main
from folnerlab.errors import BudgetExceededError, GraphFormatError
from folnerlab.generators import DEFAULT_VERTEX_BUDGET as BUDGET
from folnerlab.graphio import _BLOCK, dump_graph, load_graph, parse_graph
from folnerlab.registry import FAMILIES, parse_space
from folnerlab.space import Graph


def _triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], {"a": 0, "b": 2})


class TestRoundTrip:
    def test_dump_parse_identity(self):
        g = _triangle()
        h = parse_graph(dump_graph(g), BUDGET)
        assert h.adjacency == g.adjacency
        assert dict(h.basepoints) == dict(g.basepoints)

    def test_file_round_trip(self, tmp_path):
        g = _triangle()
        path = tmp_path / "t.graph"
        path.write_text(dump_graph(g))
        h = load_graph(path, BUDGET)
        assert h.adjacency == g.adjacency

    def test_dump_is_stable(self):
        g = _triangle()
        assert dump_graph(g) == dump_graph(parse_graph(dump_graph(g), BUDGET))

    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\nvertices 2\n  # indented comment\nedge 0 1\n"
        g = parse_graph(text, BUDGET)
        assert g.vertex_count == 2


def _reference_dump(graph):
    """The earlier writer: the neighbors v > u of each vertex u, read off
    the adjacency tuples, then the basepoints by label."""
    out = [f"vertices {graph.vertex_count}"]
    for u, nbrs in enumerate(graph.adjacency):
        out.extend(f"edge {u} {v}" for v in nbrs if u < v)
    out.extend(f"basepoint {label} {v}" for label, v in sorted(graph.basepoints.items()))
    return "\n".join(out) + "\n"


# The spaces of `generate`: every family, Z^d for d = 1, 2, 3 and every named set.
_GENERATED = [
    {"family": "lattice", "d": 1, "radius": 40},
    {"family": "lattice", "d": 2, "radius": 9},
    {"family": "lattice", "d": 2, "radius": 9, "generating_set": "diagonal"},
    {"family": "lattice", "d": 2, "radius": 9, "generating_set": "skew"},
    {"family": "lattice", "d": 3, "radius": 5},
    {"family": "heisenberg", "radius": 5},
    {"family": "tree-chain", "a": 3, "b": 2, "blocks": 4},
    {"family": "stairway", "levels": 6},
]


class TestDumpReference:
    @pytest.mark.parametrize("raw", _GENERATED, ids=lambda raw: "-".join(map(str, raw.values())))
    def test_generate_writes_the_reference_bytes_without_adjacency(self, raw, monkeypatch):
        def refuse(*args):
            raise AssertionError("adjacency tuples were built")

        options = [f"--{key.replace('_', '-')}={value}" for key, value in raw.items()]
        with monkeypatch.context() as patch:
            patch.setattr(space, "_adjacency", refuse)
            result = CliRunner().invoke(main, ["generate", *options])
        assert result.exit_code == 0, result.output
        graph = FAMILIES[raw["family"]].build(parse_space(raw), 10**6).graph()
        assert result.output == _reference_dump(graph)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_parsed_shuffled_file_dumps_the_reference_bytes(self, seed):
        graph = parse_graph(_render(random.Random(seed), _random_records(random.Random(seed))[1])[0], BUDGET)
        assert dump_graph(graph) == _reference_dump(graph)

    def test_a_parsed_shuffled_z2_ball_dumps_the_reference_bytes(self):
        graph = parse_graph(_z2_ball_text(30, 1), BUDGET)
        assert dump_graph(graph) == _reference_dump(graph)


class TestRejections:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty"),
            ("edges 3\nedge 0 1", "line 1: expected 'vertices N'"),
            ("vertices two", "line 1: vertex count 'two'"),
            ("vertices 0", "line 1: vertex count must be positive"),
            ("vertices 2\nedge 0", "line 2: expected 'edge U V'"),
            ("vertices 2\nedge 0 x", "line 2: non-integer vertex"),
            ("vertices 2\nedge 0 5", "line 2: edge \\(0, 5\\) out of range"),
            ("vertices 2\nedge 1 1", "line 2: self-loop"),
            ("vertices 2\nedge 0 1\nedge 1 0", "line 3: duplicate edge"),
            ("vertices 2\nedge 0 1\nbasepoint x", "line 3: expected 'basepoint"),
            ("vertices 2\nedge 0 1\nbasepoint x 9", "line 3: basepoint 'x'"),
            (
                "vertices 2\nedge 0 1\nbasepoint x 0\nbasepoint x 1",
                "line 4: duplicate basepoint",
            ),
            ("vertices 2\nedge 0 1\nvertex 1", "line 3: unknown record"),
            ("vertices 3\nedge 0 1", "not connected"),
            ("vertices 1_0", "line 1: vertex count '1_0' is not an integer"),
            ("vertices \u0662", "line 1: vertex count '\u0662' is not an integer"),
            ("vertices 2\nedge 0 1_0", "line 2: non-integer vertex in 'edge 0 1_0'"),
            ("vertices 2\nedge 0 \u0661", "line 2: non-integer vertex"),
            ("vertices 2\nedge \uff10 1", "line 2: non-integer vertex"),
            ("vertices 2\nedge 0 1\nbasepoint a_1 1_0", "line 3: non-integer vertex"),
            ("vertices 2\nedge 0 1\nbasepoint a \u0661", "line 3: non-integer vertex"),
            # Line numbers count every line break that str.splitlines knows.
            ("# c\r\n\nvertices 2\r\nedge 0 1\redge 0 5\n", "line 5: edge \\(0, 5\\) out of range"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text, BUDGET)


class TestIntegers:
    def test_signs_are_read(self):
        g = parse_graph("vertices +2\nedge -0 +1\nbasepoint a_1 +1\n", BUDGET)
        assert g.adjacency == ((1,), (0,))
        assert dict(g.basepoints) == {"a_1": 1}


class TestEncoding:
    @pytest.mark.parametrize("bad", [b"\xff", b"\xe9t", b"\xe2\x82"])
    def test_bytes_that_are_not_utf8(self, tmp_path, bad):
        data = b"vertices 2\r\nedge 0 1\n# caf" + bad + b"\nbasepoint a 0\n"
        offset = data.index(bad)
        path = tmp_path / "bad.graph"
        path.write_bytes(data)
        message = f"line 3: byte 0x{bad[0]:02x} at offset {offset} is not UTF-8"
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            load_graph(path, BUDGET)

    def test_utf8_labels_are_read(self, tmp_path):
        path = tmp_path / "label.graph"
        path.write_bytes("vertices 2\nedge 0 1\nbasepoint caf\u00e9 1\n".encode("utf-8"))
        assert dict(load_graph(path, BUDGET).basepoints) == {"caf\u00e9": 1}


class TestVertexBudget:
    def test_header_above_budget(self, tmp_path):
        text = "vertices 1000000\nbasepoint a 0\n"
        with pytest.raises(BudgetExceededError, match="line 1: size 1000000 exceeds budget 100"):
            parse_graph(text, 100)
        path = tmp_path / "huge.graph"
        path.write_text(text)
        with pytest.raises(BudgetExceededError, match="line 1"):
            load_graph(path, 100)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\u2028"], ids=["lf", "crlf", "cr", "ls"])
    def test_header_is_read_before_the_rest_is_split(self, end):
        text = f"vertices 1000000{end}" + "".join(f"edge {i} {i + 1}{end}" for i in range(300_000))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="line 1: size 1000000 exceeds budget 100"):
                parse_graph(text, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_is_inclusive(self):
        assert parse_graph(dump_graph(_triangle()), 3).vertex_count == 3


# -- Differential tests against the earlier parser ----------------------------


def _reference_records(text):
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


def _reference_parse(text):
    """The parser as it was when it checked every edge itself: returns
    (adjacency, basepoints) or raises GraphFormatError."""
    records = _reference_records(text)
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
    adjacency = [[] for _ in range(n)]
    seen = set()
    basepoints = {}
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
            adjacency[u].append(v)
            adjacency[v].append(u)
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
    reached, stack = {0}, [0]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if len(reached) != n:
        raise GraphFormatError("graph is not connected")
    return tuple(tuple(sorted(nbrs)) for nbrs in adjacency), basepoints


def _outcome(parse, text):
    try:
        adjacency, basepoints = parse(text)
    except GraphFormatError as exc:
        return "error", str(exc)
    return "graph", adjacency, dict(basepoints)


def _parsed(text):
    graph = parse_graph(text, BUDGET)
    return graph.adjacency, graph.basepoints


def _random_records(rng):
    """The header, edge and basepoint records of a seeded connected graph:
    a random spanning tree plus extra edges, shuffled in order and
    orientation, with basepoints among the edges."""
    n = rng.randint(2, 30)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    records = [f"edge {u} {v}" if rng.random() < 0.5 else f"edge {v} {u}" for u, v in sorted(edges)]
    for label in rng.sample(["origin", "a", "r_2", "leaf_1"], rng.randint(1, 3)):
        records.append(f"basepoint {label} {rng.randrange(n)}")
    rng.shuffle(records)
    return n, [f"vertices {n}", *records]


def _render(rng, records):
    """The records as a file with comments, blank lines, stray blanks and
    mixed line ends; returns the text and the line number of each record."""
    lines, at = [], []
    for record in records:
        while rng.random() < 0.3:
            lines.append(rng.choice(["", "   ", "# a comment", "  # indented comment"]))
        at.append(len(lines) + 1)
        lines.append(rng.choice(["", " ", "\t"]) + record + rng.choice(["", "  "]))
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines), at


def _insert_after(rng, records, index, record):
    """Insert `record` at a random place after position `index`; returns its position."""
    at = rng.randint(index + 1, len(records))
    records.insert(at, record)
    return at


# One fault of each kind that TestRejections names, as a change to the
# records of a valid file.
def _one_fault(rng, kind, n, records):
    if kind == "empty":
        return []
    if kind in ("header", "count", "zero"):
        records[0] = {"header": f"edges {n}", "count": "vertices two", "zero": "vertices 0"}[kind]
        return records
    if kind == "disconnected":
        records[0] = f"vertices {n + 1}"
        return records
    if kind == "duplicate edge":
        i = rng.choice([i for i, r in enumerate(records) if r.startswith("edge")])
        _, u, v = records[i].split()
        _insert_after(rng, records, i, rng.choice([f"edge {u} {v}", f"edge {v} {u}"]))
        return records
    if kind == "duplicate basepoint":
        i = rng.choice([i for i, r in enumerate(records) if r.startswith("basepoint")])
        _insert_after(rng, records, i, f"basepoint {records[i].split()[1]} {rng.randrange(n)}")
        return records
    v = rng.randrange(n)
    record = {
        "edge arity": f"edge {v}",
        "edge integer": f"edge {v} x",
        "edge range": f"edge {v} {n + rng.randint(0, 9)}" if rng.random() < 0.5 else f"edge -1 {v}",
        "self-loop": f"edge {v} {v}",
        "basepoint arity": "basepoint stray",
        "basepoint integer": "basepoint stray v",
        "basepoint range": f"basepoint stray {n + rng.randint(0, 9)}",
        "unknown": f"vertex {v}",
    }[kind]
    _insert_after(rng, records, 0, record)
    return records


FAULT_KINDS = [
    "empty", "header", "count", "zero", "edge arity", "edge integer", "edge range", "self-loop",
    "duplicate edge", "basepoint arity", "basepoint integer", "basepoint range",
    "duplicate basepoint", "unknown", "disconnected",
]


class TestAgainstReference:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_one_fault_gives_the_same_error(self, kind, seed):
        rng = random.Random(f"{kind}/{seed}")
        n, records = _random_records(rng)
        text, _ = _render(rng, _one_fault(rng, kind, n, records))
        expected = _outcome(_reference_parse, text)
        assert expected[0] == "error"
        assert _outcome(_parsed, text) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_files_give_the_same_graph(self, seed):
        rng = random.Random(seed)
        _, records = _random_records(rng)
        text, _ = _render(rng, records)
        expected = _outcome(_reference_parse, text)
        assert expected[0] == "graph"
        assert _outcome(_parsed, text) == expected


# Fault kinds for files with several, by their rank in the documented
# order: text, edge, basepoint, connectivity.
_RANKED = [
    ["edge arity", "edge integer", "unknown", "duplicate basepoint"],
    ["edge range", "self-loop", "duplicate edge"],
    ["basepoint range"],
    ["disconnected"],
]


def _several_faults(rng):
    """A file with up to four faults, and the error it must give."""
    n, records = _random_records(rng)
    items = [(record, None) for record in records]  # (record, (rank, text) or None)
    # The rank of the fault that must be reported is drawn first, so that
    # each rank is the one reported about equally often.
    lowest = rng.randrange(len(_RANKED))
    pool = [kind for kinds in _RANKED[lowest:] for kind in kinds]
    kinds = [rng.choice(_RANKED[lowest]), *rng.sample(pool, min(len(pool), rng.randint(1, 3)))]
    count = n + 1 if "disconnected" in kinds else n
    items[0] = (f"vertices {count}", None)
    for number, kind in enumerate(kinds):
        if kind == "disconnected":
            continue
        after = 0
        v, big = rng.randrange(n), count + rng.randint(0, 9)
        if kind in ("duplicate edge", "duplicate basepoint"):
            prefix = kind.split()[1]
            after = rng.choice([i for i, (r, fault) in enumerate(items[1:], 1)
                                if fault is None and r.startswith(prefix)])
            _, first, second = items[after][0].split()
        if kind == "duplicate edge":
            first, second = rng.choice([(first, second), (second, first)])
            record, fault = f"edge {first} {second}", (1, f"duplicate edge ({first}, {second})")
        elif kind == "duplicate basepoint":
            record, fault = f"basepoint {first} {v}", (0, f"duplicate basepoint {first!r}")
        else:
            record, fault = {
                "edge arity": (f"edge {v}", (0, "expected 'edge U V'")),
                "edge integer": (f"edge {v} x", (0, f"non-integer vertex in 'edge {v} x'")),
                "unknown": (f"vertex {v}", (0, "unknown record 'vertex'")),
                "edge range": (f"edge {v} {big}", (1, f"edge ({v}, {big}) out of range")),
                "self-loop": (f"edge {v} {v}", (1, f"self-loop at {v}")),
                "basepoint range": (
                    f"basepoint far{number} {big}", (2, f"basepoint 'far{number}' -> {big} out of range")
                ),
            }[kind]
        items.insert(rng.randint(after + 1, len(items)), (record, fault))
    text, at = _render(rng, [record for record, _ in items])
    located = [(fault[0], line, fault[1]) for (_, fault), line in zip(items, at) if fault]
    if not located:
        return text, "graph is not connected"
    rank, line, message = min(located)
    return text, f"line {line}: {message}"


class TestSeveralFaults:
    @pytest.mark.parametrize("seed", range(120))
    def test_faults_are_reported_in_the_documented_order(self, seed):
        text, message = _several_faults(random.Random(seed))
        with pytest.raises(GraphFormatError) as error:
            parse_graph(text, BUDGET)
        assert str(error.value) == message


# -- Files of several thousand edges ------------------------------------------

# Files of several thousand edges, with faults past the first few thousand
# edge records, several far apart, and a non-integer vertex before a later
# fault.
_TEXT_FAULTS = ["edge arity", "edge integer", "unknown", "basepoint arity", "basepoint integer",
                "duplicate basepoint"]
_EDGE_FAULTS = ["edge range", "self-loop", "duplicate edge"]
_FIRST_CHUNK = 2048  # edge records before the faults


def _large_records(rng):
    """The header, edge and basepoint records of a seeded connected graph of
    a few thousand edges, shuffled, with a basepoint about every 300 records."""
    n = rng.randint(2500, 4000)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    records = [f"edge {u} {v}" if rng.random() < 0.5 else f"edge {v} {u}" for u, v in sorted(edges)]
    rng.shuffle(records)
    for number in range(len(records) // 300):
        records.insert(rng.randint(0, len(records)), f"basepoint b{number} {rng.randrange(n)}")
    return n, [f"vertices {n}", *records]


def _fault_record(rng, kind, n, records):
    """A record with a fault of `kind`, made from the records of a file."""
    v = rng.randrange(n)
    if kind == "duplicate edge":
        _, u, w = rng.choice([r for r in records if r.startswith("edge")]).split()
        return rng.choice([f"edge {u} {w}", f"edge {w} {u}"])
    if kind == "duplicate basepoint":
        return f"basepoint {rng.choice([r for r in records if r.startswith('basepoint')]).split()[1]} {v}"
    big = rng.choice([n, n + 7, -1, 10**23, -(10**23), 2**63])
    return {
        "edge arity": f"edge {v}",
        "edge integer": f"edge {v} {rng.choice(['x', '1.5', '0x1', '--1', '+'])}",
        "unknown": f"vertex {v}",
        "basepoint arity": "basepoint stray",
        "basepoint integer": "basepoint stray v",
        "edge range": rng.choice([f"edge {v} {big}", f"edge {big} {v}"]),
        "self-loop": f"edge {v} {v}",
    }[kind]


def _past_first_chunk(records):
    """The position after the first `_FIRST_CHUNK` edge records."""
    edges = [i for i, r in enumerate(records) if r.startswith("edge")]
    return edges[_FIRST_CHUNK - 1] + 1


class TestAcrossChunks:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_files_give_the_same_graph(self, seed):
        rng = random.Random(f"large/{seed}")
        _, records = _large_records(rng)
        text, _ = _render(rng, records)
        expected = _outcome(_reference_parse, text)
        assert expected[0] == "graph"
        assert _outcome(_parsed, text) == expected

    @pytest.mark.parametrize("kind", _TEXT_FAULTS + _EDGE_FAULTS + ["basepoint range"])
    @pytest.mark.parametrize("seed", range(2))
    def test_one_fault_past_the_first_chunk(self, kind, seed):
        rng = random.Random(f"large/{kind}/{seed}")
        n, records = _large_records(rng)
        record = f"basepoint far {n + 3}" if kind == "basepoint range" else (
            _fault_record(rng, kind, n, records))
        records.insert(rng.randint(_past_first_chunk(records), len(records)), record)
        text, _ = _render(rng, records)
        expected = _outcome(_reference_parse, text)
        assert expected[0] == "error"
        assert _outcome(_parsed, text) == expected

    # Faults of one rank are reported in file order by both parsers; the
    # order across ranks is tested on small files in TestSeveralFaults.
    @pytest.mark.parametrize("kinds", [_TEXT_FAULTS, _EDGE_FAULTS])
    @pytest.mark.parametrize("seed", range(6))
    def test_several_faults_in_different_chunks(self, kinds, seed):
        rng = random.Random(f"large/{kinds[0]}/{seed}")
        n, records = _large_records(rng)
        start = _past_first_chunk(records)
        for kind in rng.choices(kinds, k=rng.randint(2, 4)):
            records.insert(rng.randint(start, len(records)), _fault_record(rng, kind, n, records))
        text, _ = _render(rng, records)
        expected = _outcome(_reference_parse, text)
        assert expected[0] == "error"
        assert _outcome(_parsed, text) == expected

    @pytest.mark.parametrize("later", ["edge 1", "vertex 1", "basepoint b0 1", "basepoint x y"])
    def test_bad_vertex_in_a_pending_chunk_comes_before_a_later_fault(self, later):
        rng = random.Random(f"large/pending/{later}")
        n, records = _large_records(rng)
        at = _past_first_chunk(records) + 5
        records[at:at] = [f"edge {n - 1} 1_0", "edge 0 1", later]
        text, lines = _render(rng, records)
        message = f"line {lines[at]}: non-integer vertex in 'edge {n - 1} 1_0'"
        with pytest.raises(GraphFormatError) as error:
            parse_graph(text, BUDGET)
        assert str(error.value) == message
        records[at] = f"edge {n - 1} x"  # one the reference parser rejects too
        text, _ = _render(random.Random(f"large/pending/{later}"), records)
        assert _outcome(_parsed, text) == _outcome(_reference_parse, text)


# -- Runs of canonical edge lines ---------------------------------------------

# Lines of `edge U V` and a newline are read a run at a time; each of these
# breaks a run, and the line it breaks is read one record at a time.
_BREAKS = {
    "crlf": lambda record: record + "\r\n",
    "tab": lambda record: "\t" + record + "\n",
    "double space": lambda record: record.replace(" ", "  ", 1) + "\n",
    "plus": lambda record: record.replace(" ", " +", 1) + "\n",
    "vt": lambda record: record + "\x0b",
    "ff": lambda record: record + "\x0c",
    "nel": lambda record: record + "\x85",
    "line separator": lambda record: record + "\u2028",
    "comment": lambda record: "# between runs\n" + record + "\n",
    "blank": lambda record: "\n" + record + "\n",
}


# The blanks `str.split` splits a line at: not a line break, but white space.
_INLINE_BLANKS = [c for c in map(chr, range(0x110000)) if c.isspace() and len(f"a{c}b".splitlines()) == 1]
# The line breaks of `str.splitlines`, \r\n among them.
_LINE_BREAKS = ["\r\n", *(c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2)]


def _render_runs(rng, records, breaks):
    """The records one to a line, canonical but for a break of a random kind
    at a share `breaks` of the lines, and sometimes no newline at the end."""
    text = "".join(
        rng.choice(list(_BREAKS.values()))(record) if rng.random() < breaks else record + "\n"
        for record in records
    )
    return text[:-1] if rng.random() < 0.3 else text


def _same_as_reference(text, outcome):
    expected = _outcome(_reference_parse, text)
    assert expected[0] == outcome
    assert _outcome(_parsed, text) == expected


class TestCanonicalRuns:
    @pytest.mark.parametrize("kind", list(_BREAKS))
    def test_every_break_gives_the_same_graph(self, kind):
        rng = random.Random(f"runs/{kind}")
        _, records = _large_records(rng)
        lines = [record + "\n" for record in records]
        for i in rng.sample(range(1, len(lines)), 40):
            lines[i] = _BREAKS[kind](records[i])
        _same_as_reference("".join(lines), "graph")
        _same_as_reference("".join(lines).rstrip("\n"), "graph")

    @pytest.mark.parametrize("seed", range(20))
    def test_valid_small_files_give_the_same_graph(self, seed):
        rng = random.Random(f"runs/{seed}")
        _, records = _random_records(rng)
        _same_as_reference(_render_runs(rng, records, 0.3), "graph")

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_one_fault_gives_the_same_error(self, kind, seed):
        rng = random.Random(f"runs/{kind}/{seed}")
        n, records = _random_records(rng)
        _same_as_reference(_render_runs(rng, _one_fault(rng, kind, n, records), 0.2), "error")

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_large_files_give_the_same_graph(self, seed):
        rng = random.Random(f"runs/large/{seed}")
        _, records = _large_records(rng)
        _same_as_reference(_render_runs(rng, records, 0.02), "graph")

    @pytest.mark.parametrize("kinds", [_TEXT_FAULTS, _EDGE_FAULTS])
    @pytest.mark.parametrize("seed", range(4))
    def test_several_faults_past_the_first_chunk(self, kinds, seed):
        rng = random.Random(f"runs/large/{kinds[0]}/{seed}")
        n, records = _large_records(rng)
        start = _past_first_chunk(records)
        for kind in rng.choices(kinds, k=rng.randint(1, 3)):
            records.insert(rng.randint(start, len(records)), _fault_record(rng, kind, n, records))
        _same_as_reference(_render_runs(rng, records, 0.02), "error")

    @pytest.mark.parametrize("kind", _TEXT_FAULTS + _EDGE_FAULTS)
    def test_fault_on_the_first_line_after_a_run(self, kind):
        rng = random.Random(f"runs/after/{kind}")
        n, records = _large_records(rng)
        at = rng.randint(_past_first_chunk(records), len(records))
        records.insert(at, _fault_record(rng, kind, n, records))
        _same_as_reference("".join(record + "\n" for record in records), "error")

    @pytest.mark.parametrize("kind", _TEXT_FAULTS + _EDGE_FAULTS)
    def test_fault_at_a_block_edge(self, kind):
        rng = random.Random(f"runs/edge/{kind}")
        n, records = _large_records(rng)
        # A long comment after the header puts the first block edge, _BLOCK
        # characters past the header line, among the edge records.
        records.insert(1, "# " + "x" * (_BLOCK // 2))
        starts = list(itertools.accumulate((len(r) + 1 for r in records), initial=0))
        edge = bisect.bisect_right(starts, starts[1] + _BLOCK) - 1  # the line across the edge
        assert 2 < edge < len(records) - 3
        fault = _fault_record(rng, kind, n, records)
        for at in range(edge - 2, edge + 3):
            lines = [*records[:at], fault, *records[at:]]
            _same_as_reference("".join(line + "\n" for line in lines), "error")

    @pytest.mark.parametrize("kind", _TEXT_FAULTS + _EDGE_FAULTS)
    @pytest.mark.parametrize("blank,end", [(" ", "\n"), ("\xa0", "\n"), (" ", "\r")],
                             ids=["space", "nbsp", "cr"])
    def test_fault_after_the_edge_text_is_read(self, kind, blank, end):
        # Edge lines in no-break spaces come in runs too, and so do lines
        # that end in a bare \r.
        rng = random.Random(f"runs/read/{kind}/{blank}" + ("" if end == "\n" else "/cr"))
        records = _z2_ball_text(70, 1).splitlines()
        n = int(records[0].split()[1])
        # The edge text before each record, less `edge` and a blank per line:
        # no more than the parser has taken into its buffer by then.
        held = list(itertools.accumulate(len(r) - 5 if r.startswith("edge") else 0 for r in records))
        at = rng.randint(bisect.bisect_right(held, 2 * _BLOCK) + 1, len(records) - 1)
        assert held[at - 1] > 2 * _BLOCK  # the buffer is read once or more before the fault
        records.insert(at, _fault_record(rng, kind, n, records))
        _same_as_reference("".join(r.replace(" ", blank) + end for r in records), "error")

    @pytest.mark.parametrize("blank", _INLINE_BLANKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_every_blank_gives_the_same_graph_in_runs(self, blank):
        rng = random.Random(f"runs/blank/{ord(blank)}")
        _, records = _large_records(rng)
        lines = [record + "\n" for record in records]
        for i in rng.sample(range(1, len(lines)), 40):
            lines[i] = blank + records[i].replace(" ", 2 * blank) + blank + "\n"
        text = "".join(lines)
        _same_as_reference(text, "graph")
        assert all(line.endswith("\n") for _, line in graphio._records(text) if line.startswith("edge"))

    @pytest.mark.parametrize("end", _LINE_BREAKS, ids=lambda end: "+".join(f"U+{ord(c):04X}" for c in end))
    def test_every_line_break_ends_a_run(self, end):
        rng = random.Random(f"runs/end/{end!r}")
        _, records = _large_records(rng)
        text = "".join(record + end for record in records)
        _same_as_reference(text, "graph")
        assert all(line.endswith(end) for _, line in graphio._records(text) if line.startswith("edge"))


class TestLargeVertices:
    @pytest.mark.parametrize("big", ["99999999999999999999999", "-99999999999999999999999",
                                     "100000000000000000000000", "9223372036854775808"])
    def test_out_of_range_past_int64(self, big):
        text = f"vertices 2\nedge 0 1\nedge 0 {big}\n"
        with pytest.raises(GraphFormatError) as error:
            parse_graph(text, BUDGET)
        assert str(error.value) == f"line 3: edge (0, {int(big)}) out of range"
        assert type(error.value.__cause__.where) is int

    def test_out_of_range_past_int64_in_a_later_chunk(self):
        rng = random.Random("large/int64")
        n, records = _large_records(rng)
        at = _past_first_chunk(records) + 100
        records.insert(at, f"edge {2**63} 0")
        text, lines = _render(rng, records)
        with pytest.raises(GraphFormatError) as error:
            parse_graph(text, BUDGET)
        assert str(error.value) == f"line {lines[at]}: edge ({2**63}, 0) out of range"


@functools.cache
def _z2_ball_text(radius, seed):
    """The grid graph on the l1 ball of `radius` in Z^2 as a graph file with
    shuffled vertex ids, edges in shuffled order and orientation, and the
    basepoint `origin` at (0, 0)."""
    rng = random.Random(seed)
    points = [(x, y) for x in range(-radius, radius + 1)
              for y in range(abs(x) - radius, radius - abs(x) + 1)]
    rng.shuffle(points)
    index = {p: v for v, p in enumerate(points)}
    edges = []
    for v, (x, y) in enumerate(points):
        for q in ((x + 1, y), (x, y + 1)):
            u = index.get(q)
            if u is not None:
                edges.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(edges)
    lines = [f"vertices {len(points)}", *(f"edge {u} {v}" for u, v in edges)]
    lines.append(f"basepoint origin {index[(0, 0)]}")
    return "\n".join(lines) + "\n"


class TestParseMemory:
    def test_z2_ball_parses_within_bound(self):
        _parses_within_bound(_z2_ball_text(160, 0))

    @pytest.mark.parametrize("old,new", [("\n", "\r\n"), (" ", "\t"), (" ", "\xa0"), ("\n", "\r")],
                             ids=["crlf", "tab", "nbsp", "cr"])
    def test_other_forms_parse_within_bound(self, old, new):
        _parses_within_bound(_z2_ball_text(160, 0).replace(old, new))


def _parses_within_bound(text):
    """Parse the radius-160 Z^2 ball file under tracemalloc."""
    tracemalloc.start()
    try:
        graph = parse_graph(text, BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.vertex_count == 51_521
    assert graph.edge_count == 102_400
    assert peak < 29 * 2**20


# The edge-run pattern before its quantifiers were possessive.
_reference_run = re.compile(
    r"(?:\A|(?<=[\r{1}]))(?:{0}*edge{0}+[+-]?[0-9]{{1,18}}{0}+[+-]?[0-9]{{1,18}}{0}*(?:\r\n?|[{1}]))+"
    .format(f"[{graphio._BLANKS}]", graphio._BREAKS)
).search
_RUN_BREAKS = [*graphio._BREAKS, "\r", "\r\n"]


def _span(search, text, pos, end):
    found = search(text, pos, end)
    return found.span() if found else None


def _fuzz_vertex(rng):
    return rng.choice(["", "", "+", "-"]) + str(rng.randrange(10 ** rng.choice([1, 3, 18, 19])))


def _fuzz_line(rng):
    """An edge line of random blanks, signs and vertex lengths and a random
    break, now and then with a token dropped, doubled or thrown in."""
    blanks = lambda low: "".join(rng.choice(graphio._BLANKS) for _ in range(rng.randint(low, 2)))
    tokens = [blanks(0), "edge", blanks(1), _fuzz_vertex(rng), blanks(1), _fuzz_vertex(rng),
              blanks(0), rng.choice(_RUN_BREAKS)]
    if rng.random() < 0.3:
        i = rng.randrange(len(tokens))
        tokens[i : i + 1] = rng.choice([[], [tokens[i]] * 2, [tokens[i], rng.choice(
            ["edge", "+", "-", "\r", "\r\n", "9" * 19, *graphio._BLANKS, *graphio._BREAKS])]])
    return "".join(tokens)


def _fuzz_spans(seed):
    """The spans the possessive edge-run pattern finds in a seeded fuzz text
    from several start offsets (any position, or right after a break) to
    the end or a random end, each checked against the reference pattern's."""
    rng = random.Random(f"run/{seed}")
    text = "".join(_fuzz_line(rng) for _ in range(rng.randint(1, 60)))
    breaks = [m.end() for m in re.finditer(f"\r\n?|[{graphio._BREAKS}]", text)]
    starts = {0, len(text), *rng.sample(range(len(text) + 1), min(10, len(text) + 1)),
              *rng.sample(breaks, min(10, len(breaks)))}
    spans = []
    for pos in sorted(starts):
        for end in (len(text), rng.randint(pos, len(text))):
            span = _span(graphio._run, text, pos, end)
            assert span == _span(_reference_run, text, pos, end), (pos, end)
            spans.append(span)
    return spans


class TestPossessiveRun:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_spans_as_the_backtracking_pattern(self, seed):
        _fuzz_spans(seed)

    def test_fuzz_texts_hold_runs_and_misses(self):
        spans = [span for seed in range(40) for span in _fuzz_spans(seed)]
        assert sum(span is None for span in spans) > 100
        assert sum(span is not None and span[1] - span[0] > 60 for span in spans) > 100  # several lines

    def test_runs_across_a_block_edge(self):
        rng = random.Random("run/block")
        lines = [f"edge {rng.randrange(10**6)} {rng.randrange(10**6)}" + rng.choice(_RUN_BREAKS)
                 for _ in range(7000)]
        lines[rng.randrange(len(lines))] = _fuzz_line(rng)  # may end a run
        text = "".join(lines)
        assert len(text) > 2 * _BLOCK
        ends = list(itertools.accumulate(map(len, lines)))
        crossed = 0
        for pos in [0, *rng.sample(ends[: bisect.bisect(ends, _BLOCK)], 8)]:
            end = ends[bisect.bisect(ends, pos + _BLOCK)]  # the first break past pos + _BLOCK
            span = _span(graphio._run, text, pos, end)
            assert span == _span(_reference_run, text, pos, end)
            crossed += span is not None and span[0] < _BLOCK < span[1]
        assert crossed
