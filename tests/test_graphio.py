"""
Tests for the plain-text graph format.

Core claims:
    - dump/parse round-trips graphs including basepoints
    - comments and blank lines are ignored
    - every malformed input is rejected with the offending line number
    - a vertex count above the vertex budget is rejected at the header,
      before the rest of the text is split into lines
"""

import tracemalloc

import pytest

from folnerlab.errors import BudgetExceededError, GraphFormatError
from folnerlab.graphio import dump_graph, load_graph, parse_graph, save_graph
from folnerlab.space import Graph


def _triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], {"a": 0, "b": 2})


class TestRoundTrip:
    def test_dump_parse_identity(self):
        g = _triangle()
        h = parse_graph(dump_graph(g))
        assert h.adjacency == g.adjacency
        assert dict(h.basepoints) == dict(g.basepoints)

    def test_file_round_trip(self, tmp_path):
        g = _triangle()
        path = tmp_path / "t.graph"
        save_graph(g, path)
        h = load_graph(path)
        assert h.adjacency == g.adjacency

    def test_dump_is_stable(self):
        g = _triangle()
        assert dump_graph(g) == dump_graph(parse_graph(dump_graph(g)))

    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\nvertices 2\n  # indented comment\nedge 0 1\n"
        g = parse_graph(text)
        assert g.vertex_count == 2


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
            # Line numbers count every line break that str.splitlines knows.
            ("# c\r\n\nvertices 2\r\nedge 0 1\redge 0 5\n", "line 5: edge \\(0, 5\\) out of range"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)


class TestVertexBudget:
    def test_header_above_budget(self, tmp_path):
        text = "vertices 1000000\nbasepoint a 0\n"
        with pytest.raises(BudgetExceededError, match="line 1: size 1000000 exceeds budget 100"):
            parse_graph(text, 100)
        path = tmp_path / "huge.graph"
        path.write_text(text)
        with pytest.raises(BudgetExceededError, match="line 1"):
            load_graph(path, 100)

    def test_header_is_read_before_the_rest_is_split(self):
        text = "vertices 1000000\n" + "".join(f"edge {i} {i + 1}\n" for i in range(300_000))
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
