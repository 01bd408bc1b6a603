"""
Runner behavior that the recipes alone do not pin down.

Core claims:
    - group spaces profile the origin from the word ball's birth layers, and
      that profile equals the BFS profile on the built graph for every named
      generating set, also when the depth exceeds the radius
    - an origin-only run on a group space never builds a graph, nor does a
      sample that holds only the origin, while sampled centers past the
      origin do and agree with the graph-free origin profile
    - a stairway run builds no adjacency tuples: its edge count comes from
      the edge keys and equals the count of the tuples' neighbors
    - every family's space record, and a graph file's, agrees with its own
      graph: counts, basepoints and, in the graph metric, the BFS profile
      at the basepoints and at sampled vertices; the stairway profiles its
      origin in the ambient norm and refuses any other center
    - the ergodic analysis expands the configured generating set
    - each distinct center vertex is profiled once: the counterexample-tree
      recipe's 24 basepoint labels sit on 17 vertices and take 17 calls of
      the record's `profile`, labels on one vertex hold the identical
      profile, and every label keeps its rows in the tables and its pairs
      in `pairs_tested`
    - an empty center list is a config error naming `centers`; an unknown
      basepoint label is one naming `centers.basepoints`, with a sample or
      without, and a sample holds the listed basepoints, not every one
    - a CSV cell, looked up by exact type, is the same text as the
      `isinstance` chain it replaced gives, for subclasses too
"""

import csv
import enum
from fractions import Fraction

import numpy as np
import pytest

from folnerlab import runner
from folnerlab.analysis import shell_pair_count
from folnerlab.config import validate_config
from folnerlab.errors import ConfigError
from folnerlab.ergodic import GOLDEN_ANGLES, ergodic_trace
from folnerlab.generators import norm_profile, stairway_strip, stretched_tree_chain
from folnerlab.graphio import dump_graph
from folnerlab.groups import zd_model
from folnerlab.products import product_powers
from folnerlab.recipes import recipe_document
from folnerlab.registry import FAMILIES, cell
from folnerlab.runner import build_space, run_analyses, run_experiment
from folnerlab import space
from folnerlab.space import Graph, sample_centers, volume_profile

NAMED_SETS = [
    ({"family": "lattice", "d": 1}, "standard"),
    ({"family": "lattice", "d": 2}, "standard"),
    ({"family": "lattice", "d": 2}, "diagonal"),
    ({"family": "lattice", "d": 2}, "skew"),
    ({"family": "lattice", "d": 3}, "standard"),
    ({"family": "heisenberg"}, "standard"),
]


def _config(space, generating_set, radius, depth, **extra):
    raw = {
        "space": dict(space, radius=radius, generating_set=generating_set),
        "depth": depth,
        "analyses": {"annulus": {}},
    }
    raw.update(extra)
    return validate_config(raw)


def _profile_rows(path):
    lines = path.read_text().splitlines()[1:]
    return [row for row in csv.DictReader(lines)]


@pytest.mark.parametrize("space,generating_set", NAMED_SETS)
@pytest.mark.parametrize("depth", [3, 5, 9])
def test_origin_profile_matches_bfs(space, generating_set, depth):
    built = build_space(_config(space, generating_set, 5, depth))
    graph = built.graph()
    assert built.profile(0, depth) == volume_profile(graph, 0, depth)
    assert (built.vertex_count, built.edge_count) == (
        graph.vertex_count,
        graph.edge_count,
    )
    assert dict(built.basepoints) == dict(graph.basepoints)


# One small space per family; the record tests add a graph file.
SMALL_SPACES = {
    "lattice": {"family": "lattice", "d": 2, "radius": 4, "generating_set": "diagonal"},
    "heisenberg": {"family": "heisenberg", "radius": 3},
    "tree-chain": {"family": "tree-chain", "a": 2, "b": 3, "blocks": 3},
    "stairway": {"family": "stairway", "levels": 4},
}


def _space_config(tmp_path, name, depth, **extra):
    if name == "graph_file":  # a tree chain written to disk
        path = tmp_path / "space.graph"
        path.write_text(dump_graph(stretched_tree_chain(2, 3, 3)))
        space = {"graph_file": str(path)}
    else:
        space = SMALL_SPACES[name]
    return validate_config({"space": space, "depth": depth, "analyses": {"annulus": {}}, **extra})


@pytest.mark.parametrize("name", [*FAMILIES, "graph_file"])
def test_space_record_agrees_with_its_graph(tmp_path, name):
    depth = 7
    built = build_space(_space_config(tmp_path, name, depth))
    graph = built.graph()
    assert built.graph() is graph
    assert (built.vertex_count, built.edge_count) == (graph.vertex_count, graph.edge_count)
    assert dict(built.basepoints) == dict(graph.basepoints)
    if name == "stairway":
        strip = stairway_strip(SMALL_SPACES["stairway"]["levels"])
        assert built.profile(built.basepoints["origin"], depth) == norm_profile(strip, depth)
        return
    for v in [*built.basepoints.values(), *sample_centers(built.vertex_count, built.basepoints, 2, 5)]:
        assert built.profile(v, depth) == volume_profile(graph, v, depth)


def test_stairway_refuses_sampled_centers(tmp_path):
    config = _space_config(tmp_path, "stairway", 7, centers={"sample": 4}, seed=0)
    with pytest.raises(ConfigError, match="^centers: the stairway is profiled from its origin only"):
        run_experiment(config, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_origin_only_run_builds_no_graph(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
    config = _config({"family": "heisenberg"}, "standard", 6, 8)
    result = run_experiment(config, tmp_path)
    # Counts of the radius-6 ball from the pure-Python reference loop.
    assert (result.summary["vertices"], result.summary["edges"]) == (593, 816)


def test_origin_only_sample_builds_no_graph(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
    config = _config({"family": "heisenberg"}, "standard", 6, 8, centers={"sample": 1}, seed=0)
    run_experiment(config, tmp_path)
    rows = _profile_rows(tmp_path / "profile.csv")
    assert {row["center"] for row in rows} == {"origin"}


def test_stairway_run_builds_no_adjacency(tmp_path, monkeypatch):
    config = validate_config({"space": {"family": "stairway", "levels": 6}, "depth": 65,
                              "analyses": {"fit": {"dyadic_radii": True, "min_points": 2}}})
    edges = sum(len(nbrs) for nbrs in stairway_strip(6).graph.adjacency) // 2

    def refuse(*args, **kwargs):
        raise AssertionError("adjacency tuples were built")

    monkeypatch.setattr(space, "_adjacency", refuse)
    result = run_experiment(config, tmp_path)
    assert result.summary["edges"] == edges
    with pytest.raises(AssertionError, match="adjacency tuples were built"):
        stairway_strip(6).graph.adjacency  # the patch is the step the run would take


def test_sampled_centers_use_the_graph(tmp_path):
    config = _config(
        {"family": "lattice", "d": 2},
        "diagonal",
        6,
        8,
        centers={"sample": 4},
        seed=3,
    )
    run_experiment(config, tmp_path)
    rows = _profile_rows(tmp_path / "profile.csv")
    assert len({row["center"] for row in rows}) == 4
    graph = build_space(config).graph()
    origin = [int(row["ball"]) for row in rows if row["center"] == "origin"]
    assert tuple(origin) == volume_profile(graph, 0, 8).ball


@pytest.mark.parametrize("generating_set", ["standard", "diagonal"])
def test_ergodic_uses_the_configured_generating_set(tmp_path, generating_set):
    opts = {"observable": "cos_x", "start": [0.1, 0.2], "n_max": 12}
    config = _config(
        {"family": "lattice", "d": 2},
        generating_set,
        4,
        4,
        analyses={"ergodic": opts},
    )
    result = run_experiment(config, tmp_path)
    sequence = product_powers(zd_model(2), generating_set, 12, ordered=True)
    trace = ergodic_trace(GOLDEN_ANGLES, sequence, "cos_x", (0.1, 0.2))
    assert result.summary["ergodic"]["final_error"] == trace.final_error
    lines = (tmp_path / "ergodic.csv").read_text().splitlines()[2:]
    assert [float(line.split(",")[1]) for line in lines] == list(trace.averages)


def test_empty_center_list_names_centers(tmp_path):
    config = _config(NAMED_SETS[1][0], "standard", 3, 3, centers={"basepoints": []})
    with pytest.raises(ConfigError, match="^centers: no centers to profile"):
        run_experiment(config, tmp_path)


_CHAIN = {"family": "tree-chain", "a": 2, "b": 2, "blocks": 2}


@pytest.mark.parametrize("sample", [0, 3])
def test_an_unknown_label_fails_with_or_without_a_sample(tmp_path, sample):
    config = validate_config({"space": _CHAIN, "depth": 4, "analyses": {"annulus": {}},
                              "centers": {"basepoints": ["nope"], "sample": sample}, "seed": 0})
    with pytest.raises(ConfigError, match="^centers.basepoints: unknown basepoint label 'nope'$"):
        run_experiment(config, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_sample_holds_the_listed_basepoints_only(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a center was drawn")

    monkeypatch.setattr(space.random.Random, "randrange", refuse)
    config = validate_config({"space": _CHAIN, "depth": 4, "analyses": {"annulus": {}},
                              "centers": {"basepoints": ["r_1"], "sample": 1}, "seed": 0})
    run_experiment(config, tmp_path)
    rows = _profile_rows(tmp_path / "profile.csv")
    assert {row["center"] for row in rows} == {"r_1"}


def _profiled(monkeypatch):
    """The vertices the space record profiles, in call order, and the
    (label, profile) pairs the profile table is made of."""
    calls, labeled = [], []
    build, table = runner.build_space, runner.profile_table

    def counting_build(config):
        built = build(config)

        def profile(v, depth):
            calls.append(v)
            return built.profile(v, depth)

        return built._replace(profile=profile)

    def keeping_table(given):
        labeled.extend(given)
        return table(given)

    monkeypatch.setattr(runner, "build_space", counting_build)
    monkeypatch.setattr(runner, "profile_table", keeping_table)
    return calls, labeled


def test_each_distinct_center_is_profiled_once(monkeypatch):
    calls, labeled = _profiled(monkeypatch)
    config = validate_config(recipe_document("counterexample-tree"))
    summary, tables = run_analyses(config)
    basepoints = build_space(config).basepoints
    assert len(basepoints) == 24 and len(set(basepoints.values())) == 17
    assert calls == list(dict.fromkeys(basepoints[label] for label in sorted(basepoints)))
    assert [label for label, _ in labeled] == sorted(basepoints)
    by_vertex = {}
    for label, p in labeled:
        assert p.center == basepoints[label]
        assert by_vertex.setdefault(p.center, p) is p
    assert dict(labeled)["rp_1"] is dict(labeled)["r_2"]
    rows = 24 * (config.depth + 1)
    assert len(tables["profile"][1][0]) == rows
    assert set(tables["annulus"][1][0]) == set(basepoints)


def test_labels_on_one_vertex_share_a_profile_and_keep_their_rows(tmp_path, monkeypatch):
    calls, labeled = _profiled(monkeypatch)
    basepoints = stretched_tree_chain(2, 2, 2).basepoints
    assert basepoints["rp_1"] == basepoints["r_2"] != basepoints["r_1"]
    labels = ["r_2", "r_1", "rp_1"]
    config = validate_config({"space": _CHAIN, "depth": 8,
                              "centers": {"basepoints": labels},
                              "analyses": {"shell": {"k_min": 1}, "annulus": {}}})
    result = run_experiment(config, tmp_path)
    assert calls == [basepoints["r_2"], basepoints["r_1"]]
    assert [label for label, _ in labeled] == labels
    assert labeled[0][1] is labeled[2][1]
    assert result.summary["shell"]["pairs_tested"] == 3 * shell_pair_count(1, 4, 8)
    graph = stretched_tree_chain(2, 2, 2)
    rows = _profile_rows(tmp_path / "profile.csv")
    for label in labels:
        ball = tuple(int(row["ball"]) for row in rows if row["center"] == label)
        assert ball == volume_profile(graph, basepoints[label], 8).ball
    annulus = [row.split(",")[0] for row in (tmp_path / "annulus.csv").read_text().splitlines()[2:]]
    assert annulus == [label for label in labels for _ in range(3)]  # r = 2, 4, 8


def _reference_cell(value):
    """The CSV cell formatter before the exact-type lookup."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Half(Fraction):
    pass


class _Size(enum.IntEnum):
    ONE = 1


class _Label(str):
    pass


@pytest.mark.parametrize("value", [
    True, False, 0, -7, 2**70, Fraction(3, 4), Fraction(-5), 0.1, -0.0, float("inf"), 1e300,
    "", "origin", None, _Half(1, 2), _Size.ONE, _Label("x"), np.int64(9), np.float64(0.25),
    np.bool_(True), (1, 2),
])
def test_cell_matches_the_isinstance_chain(value):
    assert cell(value) == _reference_cell(value)
