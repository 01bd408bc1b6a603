"""
Byte pins of the exact artifacts of every bundled recipe.

Each recipe runs in-process and the SHA-256 of each of its exact CSVs is
compared with the value committed below.  Exact CSVs hold only integers,
`Fraction`s and booleans (profile, shell, dyadic, annulus, abelian,
claims), so their bytes cannot depend on the platform's libm; the float
artifacts (verify, ergodic) are left out for that reason.  Of each
`summary.json` the exact part is pinned: its sorted-key JSON with every
float leaf removed, which keeps the vertex and edge counts, `alpha`,
`doubling`, `pass`, the config digest and the shell counters.
A refactor that changes a single count or ratio fails here.  The bytes
that `generate` writes for each family at its default size are pinned too,
so a rebuilt adjacency cannot silently change graph files, and so are the
CSVs of the `powers` and `nprod` commands, which hold only integers and
`Fraction`s: the powers of a one-sided six-element set in H3 and of the
standard set of Z^3, and one product of varying factors in Z^2.  Rewrite a pin
only for an intended change of output, and say so where the change is
described.  Each recipe runs once per module (`reproduced`), and both its
artifact pins and its summary pin are read from that one run.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from folnerlab.cli import main
from folnerlab.recipes import RECIPES
from folnerlab.runner import reproduce

EXACT = ("profile", "shell", "dyadic", "annulus", "abelian", "claims")

PINS = {
    "abelian": {
        "profile.csv": "8fd78d2f573aef670fff2a32097fdbfa14c4587a05954cb170983c3cc9ec9dd2",
        "abelian.csv": "aaa865d811dd559df28d1f19b885a19195cf39d5c8efa2a378c0714b6d672abd",
    },
    "claims-5-3": {
        "profile.csv": "080aa2f06b910b8acc61c7a68ac1dda1a796054599ebec18bcd4f0958b554c2d",
        "claims.csv": "93b16016af40689b9ce6a96b3215d54c8c9b10121325026e54805f85da16b4aa",
    },
    "counterexample-remark-ab": {
        "profile.csv": "cf9fb3530b6650d55466520cdda52802ad7c553b258e4b284ae33e64c7a147e1",
        "shell.csv": "dd3cc55a1d7ea9ea425d162426b7b370ded053b62c15c879fb5c239470cf59e1",
    },
    "counterexample-stairway": {
        "profile.csv": "0402f5445ec70098dcc2fd34a08d023c97c07acf8373c9fd2376791c6a99ed89",
    },
    "counterexample-tree": {
        "profile.csv": "83bfdfb7247abbd45bfaa0690cf8749f22fd4a145d8879e63e7bad1b018bddcc",
        "annulus.csv": "5439e319fd96783e75b5850ccf9d89fb92f4b9e5110456e36266e11aa2d7f9ed",
    },
    "dyadic": {
        "profile.csv": "f1b09629e65fe89ecd46322a68065630667a28ad2930b908360b6e6d7bba1166",
        "dyadic.csv": "b6f2d7ed9a931d0cc8ec008a4423b61d91456f1b5feffc0983b0f61a4344f63b",
    },
    "ergodic": {
        "profile.csv": "0cb8c7f8085c3ca5dba0391d37fed7b81091ad6fbfd08a76d319a94bde4c31db",
    },
    "theorem-heisenberg": {
        "profile.csv": "4c1d1e12f678dadef9e9ebd4ce2c29e4f61f44796059d96163b63052f4ce8b38",
        "shell.csv": "cc59e535ca84818ee63f794f134c2af844df2ee2e04e7da8ac3fb3b7c481f77e",
    },
    "theorem-zd": {
        "profile.csv": "f2f3dc8b1abf1ca4e035f6956fc86f5ab477b24ec71e6151fa166cc0a271a96e",
        "shell.csv": "2317bee035f510621d8285bf9d178e2099bd1334c6f11c2448fa43e4ac65c538",
        "dyadic.csv": "575b65177095e9d36129b2b0e0cf99207e18402038e9401d10844f93c85e9010",
    },
}


def test_every_recipe_is_pinned():
    assert sorted(PINS) == sorted(RECIPES)


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """name -> (result, artifact directory) of the recipe, each run once,
    on first use, into a directory of its own."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            runs[name] = (reproduce(name, out_dir=out), out)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(PINS))
def test_exact_artifacts_match_their_pins(reproduced, name):
    result, _ = reproduced(name)
    exact = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in result.artifacts
        if path.stem in EXACT
    }
    assert exact == PINS[name]


SUMMARY_PINS = {
    "abelian": "67833dd82c4c10fa180fc5f9ce900e2e96a19c6ec6969a3d141c6b9616f884c1",
    "claims-5-3": "099d3c3315d3bb017e90ae13526a221150d5e5db0d9fcaecc997c54429b9cc4a",
    "counterexample-remark-ab": "d59723939237182296fd052be122a21cff5125f67029c37ed9be9f29080c8dd9",
    "counterexample-stairway": "304b20ee34f9d9fdc406c12b487423367835d6e9490bc130dbfdd23cc2eda2ed",
    "counterexample-tree": "439ac5c71146f1bf8ffd6c25b8dac20bd27aae385b53e925314fb3796a661796",
    "dyadic": "52ad2a8f7e30fc056c73d5441452611edf7524a8acfa2d12bdb6ef9e0fdc1863",
    "ergodic": "d358e94c37f6d0f9eb8f56aff4faa3befbb2bdc47bdd7bd678d6428558aa20a1",
    "theorem-heisenberg": "9160721dd0c54989d69f9a2b697db07f9a708fa771bcbbd89ec22a8373651431",
    "theorem-zd": "b6c1db8ab120f627d424a5179c0a6dffb115b0970f7233ba33e6aa938e686d15",
}


def _exact_part(value):
    """`value` without its float leaves, at any depth."""
    if isinstance(value, dict):
        return {key: _exact_part(v) for key, v in value.items() if not isinstance(v, float)}
    if isinstance(value, list):
        return [_exact_part(v) for v in value if not isinstance(v, float)]
    return value


@pytest.mark.parametrize("name", sorted(SUMMARY_PINS))
def test_exact_part_of_the_summary_matches_its_pin(reproduced, name):
    assert sorted(SUMMARY_PINS) == sorted(RECIPES)
    _, out = reproduced(name)
    summary = json.loads((out / "summary.json").read_text(encoding="ascii"))
    text = json.dumps(_exact_part(summary), sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == SUMMARY_PINS[name]


# The symmetrized skew set of Z^2 is the diagonal set, so their graph files
# coincide.
GENERATE_PINS = {
    ("lattice", "standard"): "c0c9b1bf7d806c6494f91893b083766252f14be2f47813722cfd0d181fdb07a0",
    ("lattice", "diagonal"): "a6032a023912a81be9aeb82c61699ef0e7c23c3909e215860f5ba7aeb3367654",
    ("lattice", "skew"): "a6032a023912a81be9aeb82c61699ef0e7c23c3909e215860f5ba7aeb3367654",
    ("heisenberg", "standard"): "57b55d4f4d4da2d4ea453b215ee6f7bf7f294004591bc90983f2536f8e48e6f2",
    ("tree-chain", None): "a2bfee94e87b868b198976666d093b3ee4dfa583b5b4029a21f83b6cabd24c98",
    ("stairway", None): "dad98f452489d20e6d2451d6e4c2ec4e10c6a8429a41b6500b59f7ed425099d7",
}


@pytest.mark.parametrize("family,generating_set", sorted(GENERATE_PINS, key=str))
def test_generate_output_matches_its_pin(family, generating_set):
    args = ["generate", "--family", family]
    if generating_set is not None:
        args += ["--generating-set", generating_set]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(result.output.encode("ascii")).hexdigest()
    assert digest == GENERATE_PINS[family, generating_set]


# Word balls of other ranks and radii: Z^1, Z^3 and a larger H3 ball.
GENERATE_ARGS_PINS = {
    ("--family", "lattice", "--d", "1"): "54ba25ff902ac2920bfa486d90051e47ae6643aafa77975806a4c520c159c390",
    ("--family", "lattice", "--d", "3", "--radius", "6"): "add261e8d50f250e0769fd2a60f6e1587935c1f92a98906293461f1ccfaf7e88",
    ("--family", "heisenberg", "--radius", "12"): "b56e3987b7474210ea923159b69d4b6fab603c03e1a13b82a7815a26f6316874",
}


@pytest.mark.parametrize("args", sorted(GENERATE_ARGS_PINS))
def test_generate_word_ball_matches_its_pin(args):
    result = CliRunner().invoke(main, ["generate", *args])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode("ascii")).hexdigest() == GENERATE_ARGS_PINS[args]


_H3_ONE_SIDED = [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 1, 0]]
_INNER = [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]]
_OUTER = _INNER + [[1, 1], [-1, -1], [1, -1], [-1, 1]]

COMMAND_PINS = {
    "powers-h3-one-sided": (
        ["powers", "--group", "heisenberg", "--set", json.dumps(_H3_ONE_SIDED), "--n-max", "16"],
        "947d7c13689d7ccfc5db1b428db334e69dc1b844b94aa714f480a517d9b32cdf",
    ),
    "powers-z3-standard": (
        ["powers", "--group", "zd", "--d", "3", "--n-max", "20"],
        "db73f449b2c99a60849957d8f9e9eaa320eb33424fcdb83dce7abad86dd1e19b",
    ),
    "nprod-z2": (
        [
            "nprod", "--group", "zd", "--d", "2",
            "--factors", json.dumps([_INNER if n % 3 else _OUTER for n in range(12)]),
            "--inner", json.dumps(_INNER), "--outer", json.dumps(_OUTER),
        ],
        "ee1e17f0c421b30a9319160bfe737703675f2b1915e6992129b1bfd92ce92296",
    ),
}


@pytest.mark.parametrize("name", sorted(COMMAND_PINS))
def test_command_csv_matches_its_pin(name):
    args, pin = COMMAND_PINS[name]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode("ascii")).hexdigest() == pin
