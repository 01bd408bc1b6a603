"""
Budgets fire before the work they bound is done.

Each case runs in-process at a small budget and checks the error text; the
two constructions also check, under tracemalloc, that the error comes
before the memory is spent.

Core claims:
    - stairway_strip counts its cells as each curve point adds them, so 12
      levels at a vertex budget of 1,000 fail at the first cell past it;
      it reads the curve in chunks that grow with the count, so 40 levels
      fail the same way without rasterizing a half-circle of radius 2^40
    - stretched_tree_chain counts each level's ids before building it, so
      a stretch of 10^6 fails at the first level past the budget
    - product_powers builds nothing per step before a layer, so 10^5 steps
      at an element budget of 1,000 fail at layer 22 in constant memory
    - a step count enters an expansion only as the sum of its runs' counts,
      so 10^18 steps of Z^1 and a Z^2 word ball of radius 10^9 fail at the
      budget's layer at once; from the command line, `powers --n-max 10^18`
      and a lattice config of radius 10^9, 10^12 or 10^18 exit 1 with one
      error line, well inside a timeout
    - the key box is sized for no more steps than the budget lets a run
      take: a Z^2 word ball of radius 10^12 fails at the budget's layer,
      not on the box, while 10^9 steps in H3 fail on the int64 key box at
      the default budget's 5,000,000 steps, naming the exact cell count
      that `reach` gives (as does a Z^27 ball of radius 2); empty layers
      (an identity-only run) count no step against that cap, so a run of
      more of them than the budget, then a generating run, gives the
      reference layers up to the budget error
    - an expansion keeps a seen map of its key box only when the box has at
      most 8 cells per key of the budget: the Z^8 radius-3 ball (833
      elements in 9^8 cells) at a budget of 1,000 allocates none, and a run
      with a map peaks at the map's cells plus a few bytes per key
    - a word ball's graph is built with at most 128 traced bytes per edge
      (H3 radius 16, Z^3 radius 20): `WordBall.edges` holds no more than
      about one image array beyond the peak of `Graph.from_edges`
    - the profile table, one row per center and radius, is counted against
      the element budget before any center is profiled, and before any is
      drawn: a sample of 10^9 centers fails at once
"""

import json
import math
import subprocess
import sys
import tracemalloc

import pytest

import folnerlab.registry
import folnerlab.runner
from folnerlab.config import validate_config
from folnerlab.errors import BudgetExceededError
from folnerlab.generators import stairway_strip, stretched_tree_chain, word_ball
from folnerlab.groups import expand, heisenberg_model, zd_model
from folnerlab.products import product_powers
from folnerlab.runner import run_analyses
from tuple_law import reference_layers


def _refused(build):
    """The budget error of `build()` and the traced peak before it."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as error:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(error.value), peak


def _traced(build):
    """The result of `build()` and the traced peak while it ran."""
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _cells(sequence):
    return math.prod(sequence.layers[0].box.widths)


def test_stairway_stops_at_the_first_cell_past_the_budget():
    message, peak = _refused(lambda: stairway_strip(12, vertex_budget=1000))
    assert message == "stairway_strip: size 1001 exceeds budget 1000"
    assert peak < 2**20


def test_stairway_reads_no_curve_past_the_budget():
    message, peak = _refused(lambda: stairway_strip(40, vertex_budget=1000))
    assert message == "stairway_strip: size 1001 exceeds budget 1000"
    assert peak < 2**20


def test_tree_chain_counts_a_level_before_building_it():
    message, peak = _refused(lambda: stretched_tree_chain(10**6, 2, 2))
    assert message == "stretched_tree_chain: size 2000001 exceeds budget 2000000"
    assert peak < 2**20


def test_powers_build_nothing_per_step_before_a_layer():
    message, peak = _refused(lambda: product_powers(zd_model(2), "standard", 10**5, 1000))
    assert message == "product expansion: size 1013 exceeds budget 1000 at layer 22"
    assert peak < 2**20


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(
            lambda: product_powers(zd_model(1), [(1,), (-1,)], 10**18, 1000),
            "product expansion: size 1001 exceeds budget 1000 at layer 500",
            id="Z1-powers-n1e18",
        ),
        pytest.param(
            lambda: word_ball(zd_model(2), "standard", 10**9, 1000),
            "cayley_ball: size 1013 exceeds budget 1000 at layer 22",
            id="Z2-ball-r1e9",
        ),
        pytest.param(
            lambda: word_ball(zd_model(2), "standard", 10**12, 1000),
            "cayley_ball: size 1013 exceeds budget 1000 at layer 22",
            id="Z2-ball-r1e12",
        ),
    ],
)
def test_a_step_count_far_past_the_budget_costs_nothing(build, message):
    got, peak = _refused(build)
    assert got == message
    assert peak < 2**20


def test_a_step_count_past_the_key_box_fails_before_a_layer():
    message = "product expansion: the bounding box of 5000000 steps has [0-9]+ cells, too many for int64 keys"
    with pytest.raises(ValueError, match=f"^{message}$"):
        product_powers(heisenberg_model(), "standard", 10**9)


@pytest.mark.parametrize("build,message", [
    pytest.param(
        lambda: product_powers(heisenberg_model(), "standard", 10**9),
        "product expansion: the bounding box of 5000000 steps has 2500000000000025000015000001 cells, "
        "too many for int64 keys",
        id="H3-powers-1e9",
    ),
    pytest.param(
        lambda: word_ball(zd_model(27), "standard", 2),
        "cayley_ball: the bounding box of 3 steps has 65712362363534280139543 cells, too many for int64 keys",
        id="Z27-ball-r2",
    ),
])
def test_the_key_box_refusal_counts_the_reach_of_its_steps(build, message):
    # (2 * 5000000 + 1)^2 * (2 * C(5000000, 2) + 1) cells in H3, 7^27 in Z^27.
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_empty_layers_take_no_step_of_the_key_box():
    # 200 identity-only steps leave 200 empty layers, more than the budget
    # of 60; the generating run after them still reaches the budget error.
    model = zd_model(2)
    unit = model.generating_set("standard")
    factors = [[model.identity]] * 200 + [unit] * 100
    expected, got = [], []
    with pytest.raises(BudgetExceededError) as reference:
        expected.extend(reference_layers(model, [model.identity], factors, 60, "test"))
    with pytest.raises(BudgetExceededError) as error:
        runs = [([model.identity], 200), (unit, 100)]
        got.extend(layer.elements() for layer in expand(model, [model.identity], runs, 60, "test", ordered=True))
    assert str(error.value) == str(reference.value) == "test: size 61 exceeds budget 60 at layer 205"
    assert got == expected and len(got) == 205


def _cli(tmp_path, child_env, *args):
    return subprocess.run(
        [sys.executable, "-m", "folnerlab", "--out", str(tmp_path / "out"), *args],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )


def test_powers_of_10_18_steps_exit_1_at_the_budget(tmp_path, child_env):
    result = _cli(
        tmp_path, child_env, "--budget-elements", "1000", "powers", "--group", "zd", "--d", "1",
        "--set", "[[1],[-1]]", "--n-max", str(10**18),
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "Error: product expansion: size 1001 exceeds budget 1000 at layer 500\n"


@pytest.mark.parametrize(
    "d,radius,size,layer", [(2, 10**9, 1013, 22), (2, 10**12, 1013, 22), (1, 10**18, 1001, 500)]
)
def test_a_lattice_radius_far_past_the_budget_exits_1(tmp_path, child_env, d, radius, size, layer):
    config = tmp_path / "far.json"
    config.write_text(json.dumps({
        "space": {"family": "lattice", "d": d, "radius": radius}, "depth": 2,
        "analyses": {"annulus": {}}, "budgets": {"vertices": 1000},
    }))
    result = _cli(tmp_path, child_env, "reproduce", "--config", str(config))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"Error: cayley_ball: size {size} exceeds budget 1000 at layer {layer}\n"
    assert not (tmp_path / "out").exists()


def test_a_box_past_eight_cells_per_key_gets_no_map():
    ball, peak = _traced(lambda: word_ball(zd_model(8), "standard", 3, vertex_budget=1000))
    assert ball.sizes[-1] == 833
    assert _cells(ball) == 9**8 > 8 * 1000
    assert peak < 2**20 < _cells(ball)


ONE_SIDED_H3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: word_ball(heisenberg_model(), "standard", 16), id="H3-ball-r16"),
        pytest.param(lambda: product_powers(heisenberg_model(), ONE_SIDED_H3, 20, ordered=True), id="H3-one-sided-n20-ordered"),
        pytest.param(lambda: product_powers(zd_model(2), "skew", 150, ordered=True), id="Z2-skew-n150-ordered"),
    ],
)
def test_a_map_costs_its_cells_and_a_few_bytes_per_key(build):
    sequence, peak = _traced(build)
    assert _cells(sequence) <= peak <= _cells(sequence) + 6 * 8 * sequence.sizes[-1]


@pytest.mark.parametrize(
    "model,radius", [(heisenberg_model(), 16), (zd_model(3), 20)], ids=["H3-r16", "Z3-r20"]
)
def test_a_word_ball_graph_costs_at_most_128_bytes_per_edge(model, radius):
    ball = word_ball(model, "standard", radius)
    graph, peak = _traced(lambda: ball.graph)
    assert peak <= 128 * graph.edge_count


def test_profile_table_is_counted_before_any_profile(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a center was profiled")

    monkeypatch.setattr(folnerlab.registry, "volume_profile", refuse)
    config = validate_config({
        "space": {"family": "tree-chain", "a": 3, "b": 2, "blocks": 7},
        "depth": 1460,
        "centers": {"sample": 1000},
        "analyses": {"doubling": {"r_max": 729}},
        "seed": 0,
        "budgets": {"elements": 10_000},
    })
    with pytest.raises(BudgetExceededError) as error:
        run_analyses(config)
    assert str(error.value) == "centers: size 1461000 exceeds budget 10000"


def test_sampled_centers_are_counted_before_any_is_drawn(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a center was drawn")

    monkeypatch.setattr(folnerlab.runner, "sample_centers", refuse)
    config = validate_config({
        "space": {"family": "lattice", "d": 2, "radius": 300},
        "depth": 30,
        "centers": {"sample": 10**9},
        "analyses": {"annulus": {}},
        "seed": 0,
    })
    with pytest.raises(BudgetExceededError) as error:
        run_analyses(config)
    assert str(error.value) == "centers: size 5598631 exceeds budget 5000000"
