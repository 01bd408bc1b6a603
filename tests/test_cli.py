"""
Command-line behavior: file formats, exit codes, reproducibility.

The reproducibility tests run the entry point in subprocesses with different
PYTHONHASHSEED values, because hash randomization is the usual way set or
dict iteration order leaks into output.  Everything written to disk must be
byte-identical across runs.
"""

import dataclasses
import json
import subprocess
import sys
import tracemalloc

import pytest
from click.testing import CliRunner

import folnerlab.cli
import folnerlab.runner
from folnerlab.cli import main
from folnerlab.config import validate_config
from folnerlab.errors import BudgetExceededError, ConfigError
from folnerlab.groups import heisenberg_model
from folnerlab.recipes import RECIPES, recipe_document
from folnerlab.registry import ANALYSES, Context
from folnerlab.space import VolumeProfile
from folnerlab.runner import run_experiment
from tuple_law import multiply


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def z2_graph(tmp_path, runner):
    path = tmp_path / "z2.graph"
    result = runner.invoke(main, ["--out", str(path), "generate", "--family", "lattice", "--d", "2", "--radius", "12"])
    assert result.exit_code == 0, result.output
    return path


def _lines(path):
    return path.read_text().splitlines()


class TestGenerate:
    def test_lattice_vertex_count(self, tmp_path, runner):
        path = tmp_path / "g.graph"
        result = runner.invoke(main, ["--out", str(path), "generate", "--family", "lattice", "--radius", "2"])
        assert result.exit_code == 0
        assert _lines(path)[0] == "vertices 13"

    def test_tree_chain_to_stdout(self, runner):
        result = runner.invoke(main, ["generate", "--family", "tree-chain", "--blocks", "1"])
        assert result.exit_code == 0
        assert result.output.startswith("vertices 5")
        assert "basepoint r_1" in result.output

    def test_budget_flag_is_honored(self, runner):
        result = runner.invoke(main, ["--budget-vertices", "10", "generate", "--family", "lattice", "--radius", "8"])
        assert result.exit_code != 0
        assert "budget" in result.output

    @pytest.mark.parametrize("args,space,field", [
        (["--family", "lattice", "--radius", "0"], {"family": "lattice", "d": 2, "radius": 0}, "space.radius"),
        (["--family", "heisenberg", "--radius", "0"], {"family": "heisenberg", "radius": 0}, "space.radius"),
        (["--family", "lattice", "--d", "0"], {"family": "lattice", "d": 0, "radius": 8}, "space.d"),
        (["--family", "tree-chain", "--b", "1"], {"family": "tree-chain", "a": 2, "b": 1, "blocks": 6}, "space.b"),
        (["--family", "stairway", "--levels", "1"], {"family": "stairway", "levels": 1}, "space.levels"),
    ])
    def test_family_minima_match_the_config(self, runner, args, space, field):
        result = runner.invoke(main, ["generate"] + args)
        assert result.exit_code == 1
        assert f"{field}: must be at least" in result.output
        with pytest.raises(ConfigError, match=f"{field}: must be at least"):
            validate_config({"space": space, "depth": 2, "analyses": {"annulus": {}}})


class TestProfile:
    def test_csv_shape_and_values(self, tmp_path, runner, z2_graph):
        out = tmp_path / "p.csv"
        result = runner.invoke(main, ["--out", str(out), "profile", "--graph", str(z2_graph), "--depth", "8"])
        assert result.exit_code == 0
        lines = _lines(out)
        assert lines[0].startswith("# config ")
        assert lines[1] == "center,r,ball,sphere"
        for r in range(8):
            label, rr, ball, sphere = lines[2 + r].split(",")
            assert (label, int(rr)) == ("origin", r)
            assert int(ball) == 2 * r * r + 2 * r + 1
            assert int(sphere) == 4 * (r + 1)
        assert lines[10].endswith(",")  # sphere unknown at the final radius

    def test_runs_no_analysis(self, runner, z2_graph, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an analysis ran")

        for name, entry in ANALYSES.items():
            monkeypatch.setitem(ANALYSES, name, entry._replace(run=refuse))
        result = runner.invoke(main, ["profile", "--graph", str(z2_graph), "--depth", "8"])
        assert result.exit_code == 0, result.output

    def test_unknown_center_label(self, runner, z2_graph):
        result = runner.invoke(main, ["profile", "--graph", str(z2_graph), "--depth", "4", "--center", "nope"])
        assert result.exit_code != 0
        assert "unknown basepoint label 'nope'" in result.output

    def test_depth_is_bounded_by_the_vertex_budget(self, runner, z2_graph, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the graph was loaded")

        # The budget is the graph's vertex count (313), which the header
        # check admits, so only the depth can be refused.
        args = ["--budget-vertices", "313", "profile", "--graph", str(z2_graph), "--depth"]
        with monkeypatch.context() as patched:
            patched.setattr(folnerlab.runner, "load_graph", refuse)
            result = runner.invoke(main, args + ["314"])
        assert result.exit_code == 1
        assert "config.depth: must be at most the vertex budget 313" in result.output
        assert runner.invoke(main, args + ["313"]).exit_code == 0

    @pytest.mark.parametrize("command", ["profile", "shell-report", "verify", "dyadic", "fit"])
    def test_graph_without_basepoints_names_centers(self, tmp_path, runner, command):
        path = tmp_path / "path3.graph"
        path.write_text("vertices 3\nedge 0 1\nedge 1 2\n")
        result = runner.invoke(main, [command, "--graph", str(path), "--depth", "16"])
        assert result.exit_code == 1
        assert "Error: centers: no centers to profile" in result.output

    def test_malformed_graph_file(self, tmp_path, runner):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertices 2\nedge 0 5\n")
        result = runner.invoke(main, ["profile", "--graph", str(bad), "--depth", "2"])
        assert result.exit_code != 0
        assert "line 2" in result.output

    def test_graph_header_above_the_vertex_budget(self, tmp_path, runner):
        # Fails at the header, before any per-vertex allocation.
        path = tmp_path / "huge.graph"
        path.write_text("vertices 1000000\nbasepoint a 0\n")
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["--budget-vertices", "100", "profile", "--graph", str(path), "--depth", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 1
        assert "Error: graph file header, line 1: size 1000000 exceeds budget 100" in result.output
        assert peak < 2**20


class TestPowers:
    def test_csv_matches_closed_form(self, runner):
        result = runner.invoke(main, ["powers", "--n-max", "5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1] == "n,size,delta_size,folner_ratio"
        rows = [line.split(",") for line in lines[2:]]
        sizes = [2 * n * n + 2 * n + 1 for n in range(6)]
        for n, row in enumerate(rows):
            assert int(row[1]) == sizes[n]
        assert rows[0][2] == "1"
        assert rows[3][2] == str(sizes[3] - sizes[2])
        assert rows[0][3] == "4/1"
        assert rows[5][3] == ""

    def test_heisenberg_powers(self, runner):
        result = runner.invoke(main, ["powers", "--group", "heisenberg", "--n-max", "2"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.splitlines()[2:]]
        assert [int(r[1]) for r in rows] == [1, 5, 17]

    def test_negative_n_max_fails(self, runner):
        result = runner.invoke(main, ["powers", "--n-max", "-2"])
        assert result.exit_code == 1
        assert "n_max must be nonnegative, got -2" in result.output

    def test_set_whose_inverses_need_many_factors(self, runner):
        # Generates Z^2 as a semigroup, though -(1, 0) needs 12 factors.
        result = runner.invoke(main, ["powers", "--n-max", "3", "--set", "[[1,0],[0,1],[-5,-7]]"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in result.output.splitlines()[2:]]
        assert [int(r[1]) for r in rows] == [1, 4, 10, 20]

    @pytest.mark.parametrize("elements", [
        # Both generate H3 as semigroups, as their (x, y) projections
        # generate Z^2, though some inverses need many factors.
        [[-1, -2, -1], [-1, 1, -1], [1, 0, -1]],
        [[1, 0, 0], [0, 1, 0], [-1, -1, 5]],
    ])
    def test_one_sided_heisenberg_sets(self, runner, elements):
        result = runner.invoke(main, ["powers", "--group", "heisenberg", "--n-max", "3",
                                      "--set", json.dumps(elements)])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in result.output.splitlines()[2:]]
        model = heisenberg_model()
        steps = [model.identity] + [tuple(g) for g in elements]
        ball, sizes = {model.identity}, [1]
        for _ in range(3):
            ball = {multiply(model, g, s) for g in ball for s in steps}
            sizes.append(len(ball))
        assert [int(r[1]) for r in rows] == sizes

    @pytest.mark.parametrize("elements,message", [
        ("[[1.5,0],[0,1],[-1,-1]]", "--set: coordinates must be integers, got 1.5"),
        ("[[true,0],[0,1],[-1,-1]]", "--set: coordinates must be integers, got True"),
        ("[1,2]", "--set: expected a JSON array of integer arrays"),
    ])
    def test_set_needs_integer_coordinates(self, runner, elements, message):
        result = runner.invoke(main, ["powers", "--n-max", "3", "--set", elements])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"

    def test_non_generating_set_fails(self, runner):
        result = runner.invoke(main, ["powers", "--n-max", "3", "--set", "[[2,0],[-2,0],[0,2],[0,-2]]"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("command", [
        ["powers", "--n-max", "1"],
        ["nprod", "--factors", "[]", "--inner", "[]", "--outer", "[]"],
    ])
    def test_rank_above_the_cap_fails_in_one_line(self, runner, command):
        result = runner.invoke(main, [*command, "--d", "1000"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: dimension must be at most 27, the largest whose radius-1 word ball "
            "has int64 keys, got 1000\n"
        )


class TestNprod:
    def test_sandwich_run(self, runner):
        std = "[[1,0],[-1,0],[0,1],[0,-1]]"
        outer = "[[1,0],[-1,0],[0,1],[0,-1],[1,1],[0,0]]"
        factors = f"[{std},{outer[:-1]}]]".replace("]]]]", "]]]")
        result = runner.invoke(main, ["nprod", "--factors", f"[{std},{std}]", "--inner", std, "--outer", outer])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[1] == "n,size,delta_size,folner_ratio"
        assert len(lines) == 5

    def test_violation_is_reported(self, runner):
        std = "[[1,0],[-1,0],[0,1],[0,-1]]"
        bad = "[[1,0],[-1,0],[0,1]]"
        result = runner.invoke(main, ["nprod", "--factors", f"[{bad}]", "--inner", std, "--outer", std])
        assert result.exit_code != 0
        assert "factor 0 is missing" in result.output

    def test_the_identity_need_not_be_written(self, runner):
        # The products adjoin the identity, so a factor without it still
        # holds the standard certificate, which lists it.
        units = "[[1,0],[-1,0],[0,1],[0,-1]]"
        results = [
            runner.invoke(main, ["nprod", "--factors", f"[{factor}]", "--inner", "standard", "--outer", "standard"])
            for factor in (units, "[[0,0]," + units[1:])
        ]
        assert [r.exit_code for r in results] == [0, 0], results[0].output
        assert results[0].output.splitlines()[1:] == results[1].output.splitlines()[1:]
        assert results[0].output.splitlines()[1:] == ["n,size,delta_size,folner_ratio", "0,1,1,4/1", "1,5,4,"]

    @pytest.mark.parametrize("factors,message", [
        ("[[[1.5,0],[-1,0],[0,1],[0,-1]]]", "--factors: coordinates must be integers, got 1.5"),
        ("[1]", "--factors: expected a JSON array of integer arrays"),
    ])
    def test_factors_need_integer_coordinates(self, runner, factors, message):
        std = "[[1,0],[-1,0],[0,1],[0,-1]]"
        result = runner.invoke(main, ["nprod", "--factors", factors, "--inner", std, "--outer", std])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"

    @pytest.mark.parametrize("factors,outer", [
        ("[[[1],[-1],[2,0]]]", "[[1],[-1],[2,0]]"),
        ("[[[1],[-1]],[[1],[-1],[2,0]]]", "[[1],[-1],[2]]"),
        ("[[[1],[-1]]]", "[[1],[-1],[2,0]]"),
    ])
    def test_an_element_of_the_wrong_arity_fails_in_one_line(self, runner, factors, outer):
        result = runner.invoke(main, ["nprod", "--group", "zd", "--d", "1", "--factors", factors,
                                      "--inner", "[[1],[-1]]", "--outer", outer])
        assert result.exit_code == 1
        assert result.output == "Error: Z^1: element (2, 0) has wrong arity\n"


class TestShellReport:
    def test_json_summary_line(self, runner, z2_graph):
        result = runner.invoke(main, ["shell-report", "--graph", str(z2_graph), "--depth", "12", "--k-min", "3", "--n-max", "6"])
        assert result.exit_code == 0
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["alpha"] == "7/19"
        assert summary["pass"] is True
        assert set(summary) == {"alpha", "delta", "fitted_C", "pass"}

    def test_record_all_expands_csv(self, tmp_path, runner, z2_graph):
        out = tmp_path / "shells.csv"
        result = runner.invoke(main, ["--out", str(out), "shell-report", "--graph", str(z2_graph), "--depth", "12", "--k-min", "3", "--n-max", "6", "--record-all"])
        assert result.exit_code == 0
        lines = _lines(out)
        assert lines[1] == "center,n,k,c_lo,c_hi,ratio"
        assert len(lines) > 4


class TestVerify:
    def test_self_consistent_delta_passes(self, runner, z2_graph):
        result = runner.invoke(main, ["verify", "--graph", str(z2_graph), "--depth", "12", "--k-min", "3", "--n-max", "6"])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["pass"] is True
        assert summary["trend_slope"] < 0

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_a_tolerance_that_is_not_finite_fails_in_one_line(self, runner, z2_graph, tolerance):
        result = runner.invoke(main, ["verify", "--graph", str(z2_graph), "--depth", "12", "--slope-tol", tolerance])
        assert result.exit_code == 1
        assert result.output == f"Error: analyses.verify.slope_tolerance: expected a finite number, got {tolerance}\n"


class TestDyadic:
    def test_certificates(self, runner, z2_graph):
        result = runner.invoke(main, ["dyadic", "--graph", str(z2_graph), "--depth", "12", "--i-max", "2"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1] == "center,i,radius,sphere,ball,bound,certified"
        assert all(line.endswith("true") for line in lines[2:5])
        assert json.loads(lines[-1])["pass"] is True


class TestFit:
    def test_quadratic_exponent(self, tmp_path, runner):
        path = tmp_path / "z2big.graph"
        assert runner.invoke(main, ["--out", str(path), "generate", "--family", "lattice", "--radius", "40"]).exit_code == 0
        result = runner.invoke(main, ["fit", "--graph", str(path), "--depth", "40"])
        assert result.exit_code == 0
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["origin"]["exponent"] == pytest.approx(2.0, abs=0.05)


class TestErgodicCommand:
    def test_csv_and_summary(self, tmp_path, runner):
        out = tmp_path / "erg.csv"
        result = runner.invoke(main, ["--out", str(out), "ergodic", "--n-max", "30"])
        assert result.exit_code == 0
        lines = _lines(out)
        assert lines[1] == "n,average,error"
        assert len(lines) == 33
        summary = json.loads(result.output.splitlines()[-1])
        assert summary["final_error"] < 0.01

    def test_bad_start(self, runner):
        result = runner.invoke(main, ["ergodic", "--start", "0.1", "--n-max", "5"])
        assert result.exit_code != 0


class TestReproduce:
    def test_list_names_every_recipe(self, runner):
        result = runner.invoke(main, ["reproduce", "--list"])
        assert result.exit_code == 0
        names = [line.split(":")[0] for line in result.output.splitlines()]
        assert names == sorted(names)
        assert "theorem-zd" in names
        assert "counterexample-stairway" in names
        assert len(names) == 9

    def test_requires_a_target(self, runner):
        result = runner.invoke(main, ["reproduce"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "target",
        [
            ["theorem-heisenberg", "--config", "{config}"],
            ["no-such-recipe", "--list"],
            ["--config", "{config}", "--list"],
            ["theorem-heisenberg", "--config", "{config}", "--list"],
        ],
        ids=["name-config", "name-list", "config-list", "all-three"],
    )
    def test_refuses_more_than_one_target(self, tmp_path, runner, target):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"space": {"family": "lattice", "d": 2, "radius": 1}, "depth": 2}))
        out = tmp_path / "run"
        args = [arg.format(config=config) for arg in target]
        result = runner.invoke(main, ["--out", str(out), "reproduce", *args])
        assert result.exit_code == 1
        assert result.output == "Error: give a recipe name, --config FILE, or --list\n"
        assert not out.exists()

    def test_config_file_run(self, tmp_path, runner):
        cfg = {
            "space": {"family": "lattice", "d": 2, "radius": 12},
            "depth": 12,
            "analyses": {"shell": {"k_min": 3, "n_max": 6}},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        result = runner.invoke(main, ["--out", str(out), "reproduce", "--config", str(path)])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["alpha"] == "7/19"
        digest = summary["config"]
        for csv_name in ("profile.csv", "shell.csv"):
            first = (out / csv_name).read_text().splitlines()[0]
            assert first == f"# config {digest}"

    def test_unknown_recipe_name(self, runner):
        result = runner.invoke(main, ["reproduce", "no-such-recipe"])
        assert result.exit_code != 0
        assert "known" in result.output


class TestLatticeRank:
    """A lattice rank above the cap fails at validation, in one line; a rank
    below it runs."""

    def _reproduce(self, tmp_path, child_env, d):
        config = tmp_path / f"d{d}.json"
        config.write_text(json.dumps({
            "space": {"family": "lattice", "d": d, "radius": 1}, "depth": 2,
            "analyses": {"annulus": {}},
        }))
        return subprocess.run(
            [sys.executable, "-m", "folnerlab", "--out", str(tmp_path / f"out{d}"),
             "reproduce", "--config", str(config)],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )

    def test_rank_1000_exits_1_without_a_traceback(self, tmp_path, child_env):
        result = self._reproduce(tmp_path, child_env, 1000)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "Error: space.d: must be at most 27 (the largest rank whose radius-1 word ball "
            "has int64 keys), got 1000\n"
        )

    def test_rank_7_runs(self, tmp_path, child_env):
        result = self._reproduce(tmp_path, child_env, 7)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["vertices"] == 15


class TestFilesThatAreNotUtf8:
    """A config or graph file with a byte that is not UTF-8 exits 1 with one
    error line naming where the byte is, and no traceback."""

    def _run(self, tmp_path, child_env, *args):
        return subprocess.run(
            [sys.executable, "-m", "folnerlab", "--out", str(tmp_path / "out"), *args],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )

    def test_config_file(self, tmp_path, child_env):
        data = b'{"space": {"family": "lattice", "d": 2, "radius": 1}, "depth": 2, "output_dir": "\xff"}'
        config = tmp_path / "bad.json"
        config.write_bytes(data)
        result = self._run(tmp_path, child_env, "reproduce", "--config", str(config))
        assert result.returncode == 1
        assert result.stdout == ""
        offset = data.index(b"\xff")
        assert result.stderr == f"Error: config: byte 0xff at offset {offset} is not UTF-8\n"

    def test_graph_file(self, tmp_path, child_env):
        data = b"vertices 2\nedge 0 1\nbasepoint caf\xe9 1\n"
        graph = tmp_path / "bad.graph"
        graph.write_bytes(data)
        result = self._run(tmp_path, child_env, "profile", "--graph", str(graph), "--depth", "2")
        assert result.returncode == 1
        assert result.stdout == ""
        offset = data.index(b"\xe9")
        assert result.stderr == f"Error: line 3: byte 0xe9 at offset {offset} is not UTF-8\n"


class TestNonAsciiLabels:
    """A UTF-8 basepoint label reaches every CSV it names, written as UTF-8,
    and two runs write the same bytes."""

    @pytest.fixture()
    def graph(self, tmp_path):
        path = tmp_path / "labels.graph"
        path.write_text("vertices 3\nedge 0 1\nedge 1 2\nbasepoint café 0\n", encoding="utf-8")
        return path

    def test_reproduce_config(self, tmp_path, runner, graph):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"space": {"graph_file": str(graph)}, "depth": 3,
                                      "analyses": {"doubling": {"r_max": 1}}}))
        artifacts = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = runner.invoke(main, ["--out", str(out), "reproduce", "--config", str(config)])
            assert result.exit_code == 0, result.output
            artifacts.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        assert artifacts[0] == artifacts[1]
        profile = (tmp_path / "a" / "profile.csv").read_text(encoding="utf-8").splitlines()
        assert profile[2:] == ["café,0,1,1", "café,1,2,1", "café,2,3,0", "café,3,3,"]

    def test_profile_out_file(self, tmp_path, runner, graph):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.csv"
            result = runner.invoke(main, ["--out", str(out), "profile", "--graph", str(graph), "--depth", "2"])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].decode("utf-8").splitlines()[2:] == ["café,0,1,1", "café,1,2,1", "café,2,3,"]


class TestJsonOptions:
    @pytest.mark.parametrize("option", ["--set", "--factors", "--inner", "--outer"])
    def test_invalid_json_names_its_option(self, runner, option):
        args = {"--factors": "[[[1,0],[0,1]]]", "--inner": "standard", "--outer": "standard"}
        args[option] = "[[1,0],"
        if option == "--set":
            command = ["powers", "--set", args.pop("--set"), "--n-max", "2"]
        else:
            command = ["nprod", *(word for pair in args.items() for word in pair)]
        result = runner.invoke(main, command)
        assert result.exit_code == 1
        assert result.output == f"Error: {option}: invalid JSON (Expecting value: line 1 column 8 (char 7))\n"


class TestShellRecordAllBudget:
    """`analyses.shell.record_all` builds one row per center and admitted
    pair; a table above the element budget is refused before any is built."""

    REMARK_AB_ROWS = 21 * 242_556  # 21 centers, depth 1460, n_max 700

    def _context(self, centers, depth, budget):
        labeled = [(str(c), VolumeProfile(c, tuple(range(1, depth + 2)))) for c in range(centers)]
        return Context({}, budget, depth, labeled)

    def test_refused_before_any_record(self):
        ctx = self._context(21, 1460, 5_000_000)
        opts = {"k_min": 5, "n_max": 700, "record_all": True}
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as caught:
                ANALYSES["shell"].run(ctx, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (
            f"analyses.shell.record_all: size {self.REMARK_AB_ROWS} exceeds budget 5000000"
        )
        assert peak < 2**20

    def test_a_table_at_the_budget_runs(self):
        opts = {"k_min": 2, "n_max": 6, "record_all": True}
        rows = 3 * sum(min(n, 12 - n) - 1 for n in range(2, 7))
        outcome = ANALYSES["shell"].run(self._context(3, 12, rows), opts)
        assert len(outcome.table[1][0]) == rows  # the center column: one cell per row
        with pytest.raises(BudgetExceededError, match=f"size {rows} exceeds budget {rows - 1}"):
            ANALYSES["shell"].run(self._context(3, 12, rows - 1), opts)

    def test_remark_ab_with_every_record_exits_1_in_one_line(self, tmp_path, child_env):
        raw = json.loads(json.dumps(RECIPES["counterexample-remark-ab"].raw))
        raw["analyses"]["shell"]["record_all"] = True
        config = tmp_path / "remark-ab-all.json"
        config.write_text(json.dumps(raw))
        result = subprocess.run(
            [sys.executable, "-m", "folnerlab", "--out", str(tmp_path / "out"),
             "reproduce", "--config", str(config)],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: analyses.shell.record_all: size {self.REMARK_AB_ROWS} exceeds budget 5000000\n"
        )


def _body(text):
    """A CSV without its first line, the `# config` stamp."""
    first, rest = text.split("\n", 1)
    assert first.startswith("# config ")
    return rest


G = ["--graph", "<graph>"]
PARITY = [
    # (CLI arguments, the equivalent config fields, the runner's artifact)
    (["profile", *G, "--depth", "8"], {"depth": 8, "analyses": {"annulus": {}}}, "profile.csv"),
    (
        ["--seed", "9", "profile", *G, "--depth", "6", "--sample", "4"],
        {"depth": 6, "centers": {"sample": 4}, "seed": 9, "analyses": {"annulus": {}}},
        "profile.csv",
    ),
    (
        ["shell-report", *G, "--depth", "12", "--k-min", "3", "--n-max", "6"],
        {"depth": 12, "analyses": {"shell": {"k_min": 3, "n_max": 6}}},
        "shell.csv",
    ),
    (
        ["shell-report", *G, "--depth", "12", "--k-min", "3", "--n-max", "6", "--record-all"],
        {"depth": 12, "analyses": {"shell": {"k_min": 3, "n_max": 6, "record_all": True}}},
        "shell.csv",
    ),
    (
        ["verify", *G, "--depth", "12", "--k-min", "3", "--n-max", "6"],
        {"depth": 12, "analyses": {"shell": {"k_min": 3, "n_max": 6}, "verify": {}}},
        "verify.csv",
    ),
    (
        ["dyadic", *G, "--depth", "12", "--i-max", "2"],
        {"depth": 12, "analyses": {"dyadic": {"i_max": 2}}},
        "dyadic.csv",
    ),
]


class TestRunnerParity:
    """The analysis commands and `run_experiment` share one code path: on the
    same graph, centers and options they write the same CSV body."""

    @pytest.mark.parametrize("cli_args,fields,artifact", PARITY)
    def test_csv_body_matches_the_runner(self, tmp_path, runner, z2_graph, cli_args, fields, artifact):
        argv = [str(z2_graph) if a == "<graph>" else a for a in cli_args]
        result = runner.invoke(main, ["--out", str(tmp_path / "cli.csv")] + argv)
        assert result.exit_code == 0, result.output
        config = validate_config({"space": {"graph_file": str(z2_graph)}, **fields})
        run_experiment(config, tmp_path / "run")
        cli_body = _body((tmp_path / "cli.csv").read_text())
        assert cli_body == _body((tmp_path / "run" / artifact).read_text())
        assert len(cli_body.splitlines()) > 1

    def test_fit_summary_matches_the_runner(self, tmp_path, runner, z2_graph):
        result = runner.invoke(main, ["fit", "--graph", str(z2_graph), "--depth", "12", "--min-points", "4"])
        assert result.exit_code == 0, result.output
        config = validate_config({
            "space": {"graph_file": str(z2_graph)},
            "depth": 12,
            "analyses": {"fit": {"min_points": 4}},
        })
        summary = run_experiment(config, tmp_path).summary
        assert json.loads(result.output) == summary["fit"]

    def test_ergodic_csv_body_matches_the_runner(self, tmp_path, runner):
        out = tmp_path / "cli.csv"
        args = ["ergodic", "--n-max", "30", "--start", "0.3,0.7", "--observable", "cos_y"]
        assert runner.invoke(main, ["--out", str(out)] + args).exit_code == 0
        config = validate_config({
            "space": {"family": "lattice", "d": 2, "radius": 2},
            "depth": 2,
            "analyses": {"ergodic": {"n_max": 30, "start": [0.3, 0.7], "observable": "cos_y"}},
        })
        run_experiment(config, tmp_path / "run")
        assert _body(out.read_text()) == _body((tmp_path / "run" / "ergodic.csv").read_text())


Z2_R1 = {"family": "lattice", "d": 2, "radius": 1}
INVALID = [
    # (CLI arguments, the equivalent config fields); the space is the graph
    # file unless the fields name one
    (["profile", *G, "--depth", "0"], {"depth": 0, "analyses": {"annulus": {}}}),
    (["profile", *G, "--depth", "4", "--sample", "-2"], {"depth": 4, "centers": {"sample": -2}, "analyses": {"annulus": {}}}),
    (["fit", *G, "--depth", "12", "--min-points", "1"], {"depth": 12, "analyses": {"fit": {"min_points": 1}}}),
    (["shell-report", *G, "--depth", "12", "--k-min", "0"], {"depth": 12, "analyses": {"shell": {"k_min": 0}}}),
    (["dyadic", *G, "--depth", "12", "--i-max", "-1"], {"depth": 12, "analyses": {"dyadic": {"i_max": -1}}}),
    (
        ["verify", *G, "--depth", "3", "--k-min", "1"],
        {"depth": 3, "analyses": {"shell": {"k_min": 1}, "verify": {}}},
    ),
    (["ergodic", "--n-max", "0"], {"space": Z2_R1, "depth": 2, "analyses": {"ergodic": {"n_max": 0}}}),
    (
        ["ergodic", "--start", "nan,0.2"],
        {"space": Z2_R1, "depth": 2, "analyses": {"ergodic": {"start": [float("nan"), 0.2]}}},
    ),
    (
        ["ergodic", "--start", "a,b"],
        {"space": Z2_R1, "depth": 2, "analyses": {"ergodic": {"start": ["a", "b"]}}},
    ),
    (
        ["ergodic", "--observable", "bogus"],
        {"space": Z2_R1, "depth": 2, "analyses": {"ergodic": {"observable": "bogus"}}},
    ),
    # limits that depend on the depth
    (["shell-report", *G, "--depth", "12", "--k-min", "10"], {"depth": 12, "analyses": {"shell": {"k_min": 10}}}),
    (
        ["verify", *G, "--depth", "12", "--k-min", "10"],
        {"depth": 12, "analyses": {"shell": {"k_min": 10}, "verify": {}}},
    ),
    (["dyadic", *G, "--depth", "2"], {"depth": 2, "analyses": {"dyadic": {}}}),
    (["fit", *G, "--depth", "12"], {"depth": 12, "analyses": {"fit": {}}}),
    (
        ["fit", *G, "--depth", "15", "--dyadic-radii", "--min-points", "2"],
        {"depth": 15, "analyses": {"fit": {"dyadic_radii": True, "min_points": 2}}},
    ),
]


class TestOptionsAreValidatedAsConfigs:
    """An analysis command's options go through config validation: a bad
    option fails with the error its config would give, naming the field."""

    @pytest.mark.parametrize("cli_args,fields", INVALID)
    def test_invalid_option_fails_as_its_config(self, runner, z2_graph, cli_args, fields):
        with pytest.raises(ConfigError) as error:
            validate_config({"space": {"graph_file": str(z2_graph)}, **fields})
        argv = [str(z2_graph) if a == "<graph>" else a for a in cli_args]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert result.output == f"Error: {error.value}\n"


BUDGETED_COMMANDS = {
    "generate": ["generate", "--family", "lattice", "--radius", "1"],
    "powers": ["powers", "--n-max", "0"],
    "nprod": ["nprod", "--factors", "[]", "--inner", "standard", "--outer", "standard"],
}


class TestBudgetOptionsAreValidatedAsConfigs:
    """--budget-vertices and --budget-elements obey the rule of the config's
    `budgets` section for every command, and fail with its error text."""

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("option,key", [("--budget-vertices", "vertices"), ("--budget-elements", "elements")])
    @pytest.mark.parametrize("command", sorted(BUDGETED_COMMANDS))
    def test_a_budget_below_one_is_refused(self, runner, command, option, key, value):
        with pytest.raises(ConfigError) as error:
            validate_config({"space": {"family": "lattice", "d": 2, "radius": 1}, "depth": 2,
                             "analyses": {"annulus": {}}, "budgets": {key: value}})
        result = runner.invoke(main, [option, str(value), *BUDGETED_COMMANDS[command]])
        assert result.exit_code == 1
        assert result.output == f"Error: {error.value}\n"

    def test_profile_keeps_its_text(self, runner, z2_graph):
        result = runner.invoke(main, ["--budget-elements", "0", "profile", "--graph", str(z2_graph), "--depth", "3"])
        assert result.exit_code == 1
        assert result.output == "Error: budgets.elements: must be at least 1, got 0\n"


class TestReproduceTakesTheGlobalOptions:
    """--seed, --budget-vertices and --budget-elements, given on the command
    line, set their fields of the recipe's or config file's document before
    its one validation, so the file's own value of such a field is never
    read; not given, they leave it as it is.  A run that fails writes
    nothing."""

    def test_a_vertex_budget_below_the_depth_is_refused_before_any_output(self, tmp_path, runner):
        out = tmp_path / "D"
        result = runner.invoke(main, ["--budget-vertices", "10", "--out", str(out), "reproduce", "theorem-zd"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: config.depth: must be at most the vertex budget 10 (budgets.vertices, --budget-vertices), got 128\n"
        )
        assert not out.exists()

    def test_an_element_budget_stops_the_expansion(self, tmp_path, runner):
        result = runner.invoke(main, ["--budget-elements", "50", "--out", str(tmp_path / "run"), "reproduce", "claims-5-3"])
        assert result.exit_code == 1
        assert result.output == "Error: product expansion: size 61 exceeds budget 50 at layer 5\n"

    SAMPLED = {
        "space": {"family": "lattice", "d": 2, "radius": 12},
        "depth": 6,
        "centers": {"sample": 4},
        "seed": 3,
        "analyses": {"annulus": {}},
    }

    def _reproduce(self, tmp_path, runner, name, raw, *options):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / name
        result = runner.invoke(main, [*options, "--out", str(out), "reproduce", "--config", str(path)])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_seed_is_the_config_seed(self, tmp_path, runner):
        given = self._reproduce(tmp_path, runner, "given", self.SAMPLED, "--seed", "9")
        assert given == self._reproduce(tmp_path, runner, "written", {**self.SAMPLED, "seed": 9})
        own = self._reproduce(tmp_path, runner, "own", self.SAMPLED)
        assert _body(given["profile.csv"].decode()) != _body(own["profile.csv"].decode())

    def test_a_seed_given_completes_a_file_that_has_none(self, tmp_path, runner):
        raw = {key: value for key, value in self.SAMPLED.items() if key != "seed"}
        given = self._reproduce(tmp_path, runner, "given", raw, "--seed", "9")
        assert given == self._reproduce(tmp_path, runner, "written", {**raw, "seed": 9})

    def test_a_field_given_as_an_option_is_read_from_the_option(self, tmp_path, runner):
        raw = {**self.SAMPLED, "seed": "x"}
        given = self._reproduce(tmp_path, runner, "given", raw, "--seed", "9")
        assert given == self._reproduce(tmp_path, runner, "written", {**raw, "seed": 9})
        path = tmp_path / "own.json"
        path.write_text(json.dumps(raw))
        result = runner.invoke(main, ["--out", str(tmp_path / "own"), "reproduce", "--config", str(path)])
        assert result.exit_code == 1
        assert result.output == "Error: config.seed: expected an integer, got 'x'\n"

    # global options, recipe name or config document, and the run-time error
    FAILED_RUNS = {
        "expansion": (["--budget-elements", "50"], "claims-5-3",
                      "product expansion: size 61 exceeds budget 50 at layer 5"),
        "centers": ([], {**SAMPLED, "budgets": {"elements": 20}}, "centers: size 28 exceeds budget 20"),
        "shell-records": ([], {"space": {"family": "lattice", "d": 2, "radius": 12}, "depth": 12,
                               "analyses": {"shell": {"k_min": 1, "n_max": 6, "record_all": True}},
                               "budgets": {"elements": 20}},
                          "analyses.shell.record_all: size 21 exceeds budget 20"),
    }

    @pytest.mark.parametrize("options,target,error", FAILED_RUNS.values(), ids=FAILED_RUNS)
    def test_a_run_that_fails_leaves_no_output_directory(self, tmp_path, runner, options, target, error):
        if isinstance(target, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(target))
            target = ["--config", str(path)]
        else:
            target = [target]
        out = tmp_path / "run"
        result = runner.invoke(main, [*options, "--out", str(out), "reproduce", *target])
        assert result.exit_code == 1
        assert result.output == f"Error: {error}\n"
        assert not out.exists()

    def test_a_budget_given_keeps_the_other_budget_of_the_file(self, tmp_path, runner):
        raw = {**self.SAMPLED, "budgets": {"vertices": 500, "elements": 1000}}
        artifacts = self._reproduce(tmp_path, runner, "run", raw, "--budget-vertices", "400")
        expected = validate_config({**raw, "budgets": {"vertices": 400, "elements": 1000}})
        assert json.loads(artifacts["summary.json"])["config"] == expected.digest

    def test_ergodic_takes_no_preset_option(self, runner):
        result = runner.invoke(main, ["ergodic", "--preset", "golden"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_a_config_with_a_preset_is_refused(self, tmp_path, runner):
        path = tmp_path / "erg.json"
        raw = {"space": {"family": "lattice", "d": 2, "radius": 1}, "depth": 2,
               "analyses": {"ergodic": {"preset": "golden"}}}
        path.write_text(json.dumps(raw))
        result = runner.invoke(main, ["--out", str(tmp_path / "run"), "reproduce", "--config", str(path)])
        assert result.exit_code == 1
        assert result.output == "Error: analyses.ergodic: unknown key 'preset'\n"

    @pytest.mark.parametrize("name", sorted(RECIPES))
    def test_a_validated_config_reads_back_as_itself(self, name):
        # A normalized config is a fixed point of the validation.
        config = validate_config(recipe_document(name))
        again = validate_config(dataclasses.asdict(config))
        assert again == config
        assert again.digest == config.digest


class TestAnOutThatCannotBeWritten:
    """An --out that cannot be written exits 1 with one error line that
    names it, and no traceback."""

    @pytest.mark.parametrize("out,command", [
        ("afile", ["reproduce", "abelian"]),
        ("nodir/x.csv", ["powers", "--n-max", "3"]),
    ], ids=["a-file-as-the-directory", "a-missing-directory"])
    def test_one_error_line(self, tmp_path, child_env, out, command):
        (tmp_path / "afile").write_text("")
        result = subprocess.run(
            [sys.executable, "-m", "folnerlab", "--out", out, *command],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        (line,) = result.stderr.splitlines()
        assert line.startswith("Error: ")
        assert repr(out) in line


# (command line, the config fields it sets but for the defaulted options);
# the space is the graph file unless the fields name one
DEFAULTED = [
    (["shell-report", *G, "--depth", "14"], {"depth": 14, "analyses": {"shell": {}}}),
    (["verify", *G, "--depth", "14"], {"depth": 14, "analyses": {"shell": {}, "verify": {}}}),
    (["dyadic", *G, "--depth", "14"], {"depth": 14, "analyses": {"dyadic": {}}}),
    (["fit", *G, "--depth", "14"], {"depth": 14, "analyses": {"fit": {}}}),
    (["ergodic"], {"space": Z2_R1, "depth": 2, "analyses": {"ergodic": {}}}),
]


class TestOptionDefaultsAreTheConfigDefaults:
    """An option left out gives the config the table's default: every
    analysis option, --sample and the budget flags, read as the CLI parses
    its default."""

    @pytest.mark.parametrize("cli_args,fields", DEFAULTED)
    def test_an_option_left_out_is_the_table_default(self, runner, z2_graph, monkeypatch, cli_args, fields):
        run = folnerlab.cli.run_analyses
        configs = []
        monkeypatch.setattr(folnerlab.cli, "run_analyses", lambda config: configs.append(config) or run(config))
        argv = [str(z2_graph) if a == "<graph>" else a for a in cli_args]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        expected = validate_config({"space": {"graph_file": str(z2_graph)}, **fields})
        (config,) = configs
        assert config.analyses == expected.analyses
        assert config.centers == expected.centers
        assert config.budgets == expected.budgets


def _run_cli(args, env, cwd):
    return subprocess.run(
        [sys.executable, "-m", "folnerlab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestReproducibility:
    def test_identical_bytes_across_hash_seeds(self, tmp_path, z2_graph, child_env):
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"prof{hash_seed}.csv"
            proc = _run_cli(
                ["--seed", "9", "--out", str(out), "profile", "--graph", str(z2_graph), "--depth", "6", "--sample", "4"],
                child_env(PYTHONHASHSEED=hash_seed),
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_recipe_artifacts_are_stable(self, tmp_path, child_env):
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            proc = _run_cli(
                ["--out", str(out), "reproduce", "claims-5-3"],
                child_env(PYTHONHASHSEED=run == "a" and "11" or "22"),
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(
                tuple(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
            )
        assert digests[0] == digests[1]
