"""Schema tests for experiment configs and the bundled recipes."""

import dataclasses
import json

import pytest

from folnerlab.config import ExperimentConfig, load_config, validate_config, validate_sections
from folnerlab.errors import ConfigError
from folnerlab.recipes import RECIPES, recipe, recipe_config
from folnerlab.runner import run_analyses


def _base(**overrides):
    raw = {
        "space": {"family": "lattice", "d": 2, "radius": 16},
        "depth": 16,
        "analyses": {"doubling": {"r_max": 4}},
    }
    raw.update(overrides)
    return raw


class TestTopLevel:
    def test_minimal_config_fills_defaults(self):
        cfg = validate_config(_base())
        assert cfg.output_dir == "out"
        assert cfg.seed is None
        assert cfg.vertex_budget == 2_000_000
        assert cfg.element_budget == 5_000_000
        assert cfg.centers == {"basepoints": "all", "sample": 0}

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key 'colour'"):
            validate_config(_base(colour="red"))

    def test_missing_space(self):
        raw = _base()
        del raw["space"]
        with pytest.raises(ConfigError, match="missing required key 'space'"):
            validate_config(raw)

    def test_missing_depth(self):
        raw = _base()
        del raw["depth"]
        with pytest.raises(ConfigError, match="'depth'"):
            validate_config(raw)

    def test_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate_config([1, 2, 3])

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="depth: expected an integer"):
            validate_config(_base(depth=True))

    def test_seed_type(self):
        with pytest.raises(ConfigError, match="seed: expected an integer"):
            validate_config(_base(seed="7"))

    def test_seed_required_with_sampling(self):
        raw = _base(centers={"basepoints": "all", "sample": 3})
        with pytest.raises(ConfigError, match="seed: required"):
            validate_config(raw)
        raw["seed"] = 11
        assert validate_config(raw).seed == 11

    def test_budget_override_and_unknown_budget_key(self):
        cfg = validate_config(_base(budgets={"vertices": 500}))
        assert cfg.vertex_budget == 500
        assert cfg.element_budget == 5_000_000
        with pytest.raises(ConfigError, match="budgets: unknown key"):
            validate_config(_base(budgets={"edges": 5}))

    def test_depth_is_bounded_by_the_vertex_budget(self):
        assert validate_config(_base(depth=500, budgets={"vertices": 500})).depth == 500
        with pytest.raises(ConfigError, match="config.depth: must be at most"):
            validate_config(_base(depth=501, budgets={"vertices": 500}))

    def test_output_dir_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="output_dir"):
            validate_config(_base(output_dir=""))


class TestSpace:
    def test_unknown_family(self):
        raw = _base(space={"family": "torus", "radius": 4})
        with pytest.raises(ConfigError, match="unknown family 'torus'"):
            validate_config(raw)

    def test_lattice_requires_dimension(self):
        raw = _base(space={"family": "lattice", "radius": 4})
        with pytest.raises(ConfigError, match="space: missing required key 'd'"):
            validate_config(raw)

    def test_lattice_rank_is_capped(self):
        assert validate_config(_base(space={"family": "lattice", "d": 27, "radius": 1})).space["d"] == 27
        with pytest.raises(ConfigError) as error:
            validate_config(_base(space={"family": "lattice", "d": 28, "radius": 1}))
        assert str(error.value) == (
            "space.d: must be at most 27 (the largest rank whose radius-1 word ball "
            "has int64 keys), got 28"
        )

    def test_generating_set_default(self):
        cfg = validate_config(_base())
        assert cfg.space["generating_set"] == "standard"

    def test_tree_chain_fields(self):
        raw = _base(
            space={"family": "tree-chain", "a": 2, "b": 3, "blocks": 4},
            depth=30,
            analyses={"doubling": {"r_max": 8}},
        )
        cfg = validate_config(raw)
        assert cfg.space["blocks"] == 4

    def test_tree_chain_bounds(self):
        raw = _base(space={"family": "tree-chain", "a": 1, "b": 3, "blocks": 4})
        with pytest.raises(ConfigError, match="space.a"):
            validate_config(raw)

    def test_stairway_fields(self):
        raw = _base(space={"family": "stairway", "levels": 5}, depth=33)
        assert validate_config(raw).space["levels"] == 5

    def test_generating_set_is_checked_against_the_model(self):
        space = {"family": "lattice", "d": 2, "radius": 16, "generating_set": "diagonal"}
        assert validate_config(_base(space=space)).space == space
        raw = _base(space={**space, "d": 3})
        with pytest.raises(ConfigError) as error:
            validate_config(raw)
        assert str(error.value) == "space.generating_set: unknown generating set 'diagonal'; known: standard"

    def test_unknown_space_key(self):
        raw = _base(space={"family": "lattice", "d": 2, "radius": 4, "q": 1})
        with pytest.raises(ConfigError, match="space: unknown key 'q'"):
            validate_config(raw)


class TestCenters:
    def test_explicit_labels(self):
        cfg = validate_config(_base(centers={"basepoints": ["origin"]}))
        assert cfg.centers["basepoints"] == ["origin"]

    def test_bad_basepoints(self):
        with pytest.raises(ConfigError, match="'all' or a list of labels"):
            validate_config(_base(centers={"basepoints": [3]}))

    def test_negative_sample(self):
        with pytest.raises(ConfigError, match="centers.sample"):
            validate_config(_base(centers={"sample": -1}, seed=1))

    def test_unknown_center_key(self):
        with pytest.raises(ConfigError, match="centers: unknown key"):
            validate_config(_base(centers={"radius": 3}))


class TestAnalyses:
    def test_at_least_one(self):
        with pytest.raises(ConfigError, match="at least one analysis"):
            validate_config(_base(analyses={}))
        # The sections alone admit a run that only profiles.
        assert validate_sections(_base(analyses={})).analyses == {}

    def test_unknown_analysis(self):
        with pytest.raises(ConfigError, match="analyses: unknown key 'spectral'"):
            validate_config(_base(analyses={"spectral": {}}))

    def test_shell_defaults(self):
        cfg = validate_config(_base(analyses={"shell": {}}))
        shell = cfg.analyses["shell"]
        assert shell == {"k_min": 5, "n_max": 8, "record_all": False}

    def test_shell_record_all_type(self):
        with pytest.raises(ConfigError, match="record_all: expected a boolean"):
            validate_config(_base(analyses={"shell": {"record_all": 1}}))

    def test_verify_requires_shell(self):
        with pytest.raises(ConfigError, match="verify: requires analyses.shell"):
            validate_config(_base(analyses={"verify": {}}))
        cfg = validate_config(_base(analyses={"shell": {}, "verify": {}}))
        assert cfg.analyses["verify"]["slope_tolerance"] == 0.05

    def test_ergodic_needs_plane_lattice(self):
        raw = _base(
            space={"family": "heisenberg", "radius": 6},
            depth=6,
            analyses={"ergodic": {}},
        )
        with pytest.raises(ConfigError, match="ergodic: requires a lattice"):
            validate_config(raw)

    def test_ergodic_defaults(self):
        cfg = validate_config(_base(analyses={"ergodic": {}}))
        erg = cfg.analyses["ergodic"]
        assert erg["observable"] == "cos_x"
        assert erg["start"] == [0.1, 0.2]
        assert erg["n_max"] == 200
        assert sorted(erg) == ["n_max", "observable", "start"]

    def test_verify_needs_two_radii(self):
        # The shell sweep's default n_max is depth // 2 = 1: one radius.
        raw = _base(depth=3, analyses={"shell": {"k_min": 1}, "verify": {}})
        with pytest.raises(ConfigError, match=r"^analyses\.verify: requires analyses\.shell\.n_max of at least 2"):
            validate_config(raw)
        raw["depth"] = 4
        assert validate_config(raw).analyses["shell"]["n_max"] == 2

    @pytest.mark.parametrize("start", [[float("nan"), 0.2], [0.1, float("inf")], [0.1], [0.1, 0.2, 0.3], [True, 0.2]])
    def test_ergodic_start_is_a_finite_point_on_the_torus(self, start):
        with pytest.raises(ConfigError, match=r"^analyses\.ergodic\.start: expected a list of two finite numbers"):
            validate_config(_base(analyses={"ergodic": {"start": start}}))

    def test_ergodic_start_from_json_nan(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(_base(analyses={"ergodic": {"start": [float("nan"), 0.2]}})))
        assert "NaN" in path.read_text()
        with pytest.raises(ConfigError, match="start: expected a list of two finite numbers"):
            load_config(path)

    @pytest.mark.parametrize("observable", ["bogus", ["cos_x"], 3])
    def test_ergodic_unknown_observable(self, observable):
        with pytest.raises(
            ConfigError,
            match=r"^analyses\.ergodic\.observable: unknown observable .*; "
            r"known: box, cos_mix, cos_x, cos_y, one$",
        ):
            validate_config(_base(analyses={"ergodic": {"observable": observable}}))

    def test_ergodic_unknown_preset(self):
        # No `preset` key: even "golden", once its only value, is refused.
        with pytest.raises(ConfigError, match=r"^analyses\.ergodic: unknown key 'preset'$"):
            validate_config(_base(analyses={"ergodic": {"preset": "golden"}}))

    def test_claims_needs_group_model(self):
        raw = _base(
            space={"family": "tree-chain", "a": 2, "b": 3, "blocks": 2},
            analyses={"claims": {}},
        )
        with pytest.raises(ConfigError, match="claims: requires"):
            validate_config(raw)

    def test_claims_width_validation(self):
        with pytest.raises(ConfigError, match="widths"):
            validate_config(_base(analyses={"claims": {"widths": [4, 3]}}))

    @pytest.mark.parametrize("widths", [[6], [4, 10], [0], [-4]])
    def test_claims_widths_are_multiples_of_four(self, widths):
        with pytest.raises(ConfigError, match=r"^analyses\.claims\.widths: expected a list of positive multiples of 4"):
            validate_config(_base(analyses={"claims": {"widths": widths}}))

    @pytest.mark.parametrize("claims", [{"widths": []}, {"widths": [8, 12], "n_max": 7}])
    def test_claims_that_test_no_pair_are_rejected(self, claims):
        with pytest.raises(ConfigError, match=r"^analyses\.claims\.widths: no width is at most n_max"):
            validate_config(_base(analyses={"claims": claims}))

    def test_claims_default_widths_are_not_shared(self):
        raw = _base(analyses={"claims": {}})
        validate_config(raw).analyses["claims"]["widths"].append(16)
        assert validate_config(raw).analyses["claims"]["widths"] == [4, 8, 12]

    def test_claims_width_equal_to_n_max_tests_a_pair(self):
        cfg = validate_config(_base(analyses={"claims": {"widths": [8, 12], "n_max": 8}}))
        assert cfg.analyses["claims"]["widths"] == [8, 12]

    def test_fit_flag_type(self):
        with pytest.raises(ConfigError, match="dyadic_radii: expected a boolean"):
            validate_config(_base(analyses={"fit": {"dyadic_radii": "yes"}}))

    @pytest.mark.parametrize(
        "depth,analyses,message",
        [
            (7, {"doubling": {"r_max": 4}}, "analyses.doubling.r_max: must be at most half of config.depth 7, got 4"),
            (16, {"doubling": {}}, None),  # r_max defaults to depth // 2
            (
                12,
                {"shell": {"k_min": 10}},
                "analyses.shell.n_max: n_max + k_min must be at most config.depth 12, got 6 + 10",
            ),
            (8, {"shell": {}}, "analyses.shell.n_max: n_max + k_min must be at most config.depth 8, got 4 + 5"),
            (
                2,
                {"dyadic": {"i_max": 0}},
                "analyses.dyadic: requires config.depth of at least 3 (the first dyadic window needs "
                "the sphere at radius 2), got 2",
            ),
            (
                12,
                {"fit": {}},
                "analyses.fit.min_points: must be at most the number of radii fitted at config.depth 12, got 8",
            ),
            (
                15,
                {"fit": {"dyadic_radii": True, "min_points": 2}},
                "analyses.fit.min_points: must be at most the number of radii fitted at config.depth 15, got 2",
            ),
        ],
    )
    def test_depth_limits(self, depth, analyses, message):
        raw = _base(depth=depth, analyses=analyses)
        if message is None:
            validate_config(raw)
            return
        with pytest.raises(ConfigError) as error:
            validate_config(raw)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "name,options,limit",
        [
            ("doubling", {"r_max": 4}, 8),
            ("shell", {"k_min": 5, "n_max": 6}, 11),
            ("dyadic", {}, 3),
            ("fit", {"min_points": 8}, 13),
            ("fit", {"dyadic_radii": True, "min_points": 2}, 16),
        ],
    )
    def test_depth_limits_are_the_run_time_limits(self, name, options, limit):
        # At its limit the analysis validates and runs; one below, validation
        # refuses it, naming the analysis, and the run-time check that
        # library callers meet refuses it too.
        raw = _base(depth=limit, analyses={name: options})
        config = validate_config(raw)
        run_analyses(config)
        with pytest.raises(ConfigError, match=rf"^analyses\.{name}"):
            validate_config({**raw, "depth": limit - 1})
        with pytest.raises(ValueError) as error:
            run_analyses(dataclasses.replace(config, depth=limit - 1))
        assert not isinstance(error.value, ConfigError)


class TestDigest:
    def test_key_order_does_not_matter(self):
        a = validate_config(_base())
        raw = _base()
        raw["analyses"] = dict(reversed(list(raw["analyses"].items())))
        reordered = {k: raw[k] for k in reversed(list(raw))}
        b = validate_config(reordered)
        assert a.digest == b.digest

    def test_value_changes_move_digest(self):
        a = validate_config(_base())
        b = validate_config(_base(depth=17, space={"family": "lattice", "d": 2, "radius": 17}))
        assert a.digest != b.digest

    def test_digest_shape(self):
        d = validate_config(_base()).digest
        assert len(d) == 16
        assert all(c in "0123456789abcdef" for c in d)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_base()))
        cfg = load_config(path)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.depth == 16

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestRecipes:
    def test_known_names(self):
        assert set(RECIPES) == {
            "theorem-zd",
            "theorem-heisenberg",
            "counterexample-tree",
            "counterexample-remark-ab",
            "counterexample-stairway",
            "dyadic",
            "abelian",
            "ergodic",
            "claims-5-3",
        }

    def test_every_recipe_validates(self):
        for name in RECIPES:
            cfg = recipe_config(name)
            assert cfg.depth >= 1

    def test_unknown_recipe(self):
        with pytest.raises(KeyError, match="known"):
            recipe("theorem-z")

    def test_claims_are_nonempty(self):
        for name in RECIPES:
            assert recipe(name).claim.strip()
