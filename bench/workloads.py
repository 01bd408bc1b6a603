"""Seeded inputs of the benchmark workloads.

A workload is a batch of experiment jobs that one client runs one after
another (a closed loop).  A job is either a config for
`run_experiment(validate_config(config), out_dir)` or an argument list for
the in-process `folnerlab.cli.main(argv, standalone_mode=False)`; the
program receives nothing else, apart from the graph files written here by
the benchmark's own writer.  Every job carries the output checks that
`checks.py` applies to its artifacts.

The seed changes the inputs, not the amount of work: it picks centers,
start points, observables, the order of widths and of set elements, vertex
numberings, and generating sets from one orbit of the automorphisms of H3, so
that sizes and costs stay the same across seeds and a run-to-run spread is
the program's and the host's, not the generator's.

Sizes are chosen so that one batch lasts about three seconds on a 2-CPU
host: a run then repeats the batch about ten times and reports medians.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path

WORKLOADS = ("group-balls", "explicit-graphs", "product-sets")
DEFAULT_SEED = 0

# Why each workload exists, and the layers it is meant to load.
WHY = {
    "group-balls": (
        "origin-only word balls in H3 and Z^2: almost all time is group "
        "expansion plus graph assembly and validation, the target of a "
        "graph-free expansion kernel"
    ),
    "explicit-graphs": (
        "tree chains, the stairway and a shuffled Z^2 graph file from many "
        "centers: time goes to BFS profiles, shell sweeps, sphere-bound "
        "verification and graph parsing; no group expansion"
    ),
    "product-sets": (
        "many small one-sided product sets that share work (claims, powers, "
        "ergodic averages) and no large graph: time goes to the products "
        "layer"
    ),
}

H3_STANDARD = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
Z3_STANDARD = [(0, 0, 0)] + [
    tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)
]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"folnerlab-bench/{workload}/{seed}")


# -- graph files ------------------------------------------------------------


def z2_ball_points(radius: int) -> list[tuple[int, int]]:
    """Points of the l1 ball of `radius` in Z^2, sorted."""
    return [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-(radius - abs(x)), radius - abs(x) + 1)
    ]


def shuffled_z2_ball(radius: int, key: str) -> list[tuple[int, int]]:
    """The l1 ball with seeded vertex ids: entry v is the point of vertex v."""
    points = z2_ball_points(radius)
    random.Random(f"z2-ball/{radius}/{key}").shuffle(points)
    return points


def z2_ball_graph_text(radius: int, key: str) -> str:
    """The grid graph on the l1 ball, in the plain graph format.

    Vertex ids are shuffled, edges are listed in shuffled order and with
    shuffled orientation; the basepoint `origin` is (0, 0).
    """
    by_id = shuffled_z2_ball(radius, key)
    index = {p: v for v, p in enumerate(by_id)}
    rng = random.Random(f"z2-edges/{radius}/{key}")
    edges = []
    for v, (x, y) in enumerate(by_id):
        for q in ((x + 1, y), (x, y + 1)):
            u = index.get(q)
            if u is not None:
                edges.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(edges)
    lines = [f"vertices {len(by_id)}"]
    lines.extend(f"edge {u} {v}" for u, v in edges)
    lines.append(f"basepoint origin {index[(0, 0)]}")
    return "\n".join(lines) + "\n"


# -- generating sets --------------------------------------------------------


def h3_automorphism(rng: random.Random):
    """A random element of the 8 automorphisms of H3 generated by the sign
    flips (x, y, z) -> (-x, y, -z), (x, -y, -z) and the swap
    (x, y, z) -> (y, x, xy - z); each maps the standard set to itself."""
    flip_x, flip_y, swap = rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5

    def apply(g):
        x, y, z = g
        if flip_x:
            x, z = -x, -z
        if flip_y:
            y, z = -y, -z
        if swap:
            x, y, z = y, x, x * y - z
        return (x, y, z)

    return apply


def _set_arg(elements, rng: random.Random) -> str:
    elements = [list(g) for g in elements]
    rng.shuffle(elements)
    return json.dumps(elements, separators=(",", ":"))


# -- jobs -------------------------------------------------------------------


def experiment(name: str, config: dict, checks: list) -> dict:
    return {"name": name, "kind": "experiment", "config": config, "checks": checks}


def cli_job(name: str, argv: list[str], out: str, checks: list) -> dict:
    """A CLI job; the runner puts `--out <dir>/<out>` before `argv`."""
    return {"name": name, "kind": "cli", "argv": argv, "out": out, "checks": checks}


def heisenberg_theorem(radius: int, k_min: int) -> dict:
    """The theorem-heisenberg recipe at `radius`: doubling, shell, verify."""
    config = {
        "space": {"family": "heisenberg", "radius": radius},
        "depth": radius,
        "analyses": {
            "doubling": {"r_max": radius // 4},
            "shell": {"k_min": k_min, "n_max": radius // 2},
            "verify": {},
        },
    }
    return experiment(
        "heisenberg-theorem",
        config,
        [
            ["origin_ball", {"form": "h3", "upto": min(radius, 12)}],
            ["vertices_from_profile", {}],
            ["doubling_value", {}],
            ["shell_worst", {}],
            ["verify_table", {}],
        ],
    )


def lattice_dyadic(radius: int, generating_set: str) -> dict:
    """The dyadic recipe plus `abelian` on a Z^2 word ball."""
    config = {
        "space": {
            "family": "lattice",
            "d": 2,
            "radius": radius,
            "generating_set": generating_set,
        },
        "depth": radius,
        "analyses": {
            "doubling": {"r_max": radius // 2},
            "dyadic": {"i_max": 7},
            "abelian": {"n_max": 128},
        },
    }
    form = "z2" if generating_set == "standard" else "hex"
    return experiment(
        "lattice-dyadic",
        config,
        [
            ["origin_ball", {"form": form, "upto": radius}],
            ["vertices_from_profile", {}],
            ["doubling_value", {}],
            ["dyadic_table", {}],
            ["abelian_table", {}],
        ],
    )


def tree_chain_sampled(a: int, b: int, blocks: int, depth: int, sample: int,
                       n_max: int, seed: int) -> dict:
    config = {
        "space": {"family": "tree-chain", "a": a, "b": b, "blocks": blocks},
        "depth": depth,
        "centers": {"sample": sample},
        "seed": seed,
        "analyses": {"shell": {"n_max": n_max}, "verify": {}},
    }
    return experiment(
        "tree-chain-sampled",
        config,
        [
            ["tree_vertices", {}],
            ["center_count", {"count": sample}],
            ["shell_worst", {}],
            ["verify_table", {}],
        ],
    )


def tree_chain_annulus(a: int, b: int, blocks: int, depth: int) -> dict:
    """The counterexample-tree recipe: annulus ratios and doubling at the roots."""
    config = {
        "space": {"family": "tree-chain", "a": a, "b": b, "blocks": blocks},
        "depth": depth,
        "analyses": {"annulus": {}, "doubling": {"r_max": depth // 2 - 2}},
    }
    return experiment(
        "tree-chain-annulus",
        config,
        [["tree_vertices", {}], ["annulus_table", {}], ["doubling_value", {}]],
    )


def stairway(levels: int, depth: int, dyadic_radii: bool, min_points: int) -> dict:
    """The counterexample-stairway recipe: ambient-norm profile and growth fit."""
    config = {
        "space": {"family": "stairway", "levels": levels},
        "depth": depth,
        "analyses": {"fit": {"dyadic_radii": dyadic_radii, "min_points": min_points}},
    }
    return experiment("stairway", config, [["norm_profile", {}], ["fit_values", {}]])


def graph_file_job(name: str, graph_file: str, radius: int, key: str, depth: int,
                   sample: int, seed: int, k_min: int, dyadic_i_max: int) -> dict:
    """Shell, verify and dyadic from sampled centers of a Z^2 ball graph file."""
    config = {
        "space": {"graph_file": graph_file},
        "depth": depth,
        "centers": {"sample": sample},
        "seed": seed,
        "analyses": {
            "shell": {"k_min": k_min, "n_max": depth // 2},
            "verify": {},
            "dyadic": {"i_max": dyadic_i_max},
        },
    }
    return experiment(
        name,
        config,
        [
            ["l1_profiles", {"radius": radius, "key": key}],
            ["shell_worst", {}],
            ["verify_table", {}],
            ["dyadic_table", {}],
        ],
    )


def claims(name: str, family: str, radius: int, n_max: int, widths: list[int]) -> dict:
    space = {"family": family, "radius": radius}
    if family == "lattice":
        space["d"] = 2
    config = {
        "space": space,
        "depth": radius,
        "analyses": {"claims": {"n_max": n_max, "widths": widths}},
    }
    form = "z2" if family == "lattice" else "h3"
    return experiment(
        name,
        config,
        [["origin_ball", {"form": form, "upto": radius}], ["claims_table", {}]],
    )


def ergodic_job(name: str, n_max: int, observable: str, start: str) -> dict:
    argv = ["ergodic", "--observable", observable, "--start", start,
            "--n-max", str(n_max)]
    return cli_job(name, argv, "ergodic.csv", [["ergodic_table", {}]])


def powers_job(name: str, group: str, d: int, elements, n_max: int,
               rng: random.Random, reference: dict) -> dict:
    argv = ["powers", "--group", group, "--d", str(d),
            "--set", _set_arg(elements, rng), "--n-max", str(n_max)]
    return cli_job(name, argv, "powers.csv", [["powers_table", reference]])


def smoke_jobs(rng: random.Random, toy_graph: tuple[int, str]) -> list[dict]:
    """Toy jobs, milliseconds in all, that every workload ends with.

    They run each traced layer at least once, so that no per-layer metric
    is a constant zero on any workload and a fixed per-call cost added to a
    layer shows even where the layer does little work.
    """
    return [
        tree_chain_annulus(2, 2, 2, 8) | {"name": "smoke-tree"},
        stairway(2, 8, False, 2) | {"name": "smoke-stairway"},
        graph_file_job("smoke-graph-file", "toy.graph", *toy_graph, 8, 3,
                       rng.randrange(2**31), 2, 1),
        claims("smoke-claims", "lattice", 4, 4, [4]),
        ergodic_job("smoke-ergodic", 2, "cos_x", "0.1,0.2"),
    ]


# Graph files, by name: (radius of the Z^2 ball, key of its shuffle).
def _graph_files(workload: str, seed: int) -> dict[str, tuple[int, str]]:
    files = {"toy.graph": (6, f"toy/{seed}")}
    if workload == "explicit-graphs":
        files["z2-ball.graph"] = (160, f"{workload}/{seed}")
    return files


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one workload batch for `seed`, as JSON-ready dicts."""
    rng = rng_for(workload, seed)
    files = _graph_files(workload, seed)
    if workload == "group-balls":
        # H3 stays at one radius: a ball one step larger costs 17% more.
        # The Z^2 radius moves within +-1%; the hexagonal sets get 2/3 of
        # it, which gives the same edge count and so the same cost.
        radius = rng.randint(178, 182)
        generating_set = rng.choice(["standard", "diagonal", "skew"])
        if generating_set != "standard":
            radius = round(2 * radius / 3)
        jobs = [
            heisenberg_theorem(24, rng.choice([4, 5, 6])),
            lattice_dyadic(radius, generating_set),
        ]
    elif workload == "explicit-graphs":
        jobs = [
            tree_chain_sampled(3, 2, 7, 1460, 20, 700, rng.randrange(2**31)),
            tree_chain_annulus(2, 3, 8, 260),
            stairway(10, 1025, True, 8),
            graph_file_job("lattice-file", "z2-ball.graph", *files["z2-ball.graph"],
                           64, 12, rng.randrange(2**31), 5, 5),
        ]
    elif workload == "product-sets":
        h3 = h3_automorphism(rng)
        h3_set = [h3(g) for g in H3_STANDARD + [(1, 1, 0)]]
        start = f"{rng.randint(1, 999) / 1000},{rng.randint(1, 999) / 1000}"
        jobs = [
            claims("claims-z2", "lattice", 8, 20, rng.sample([4, 8, 12], 3)),
            claims("claims-h3", "heisenberg", 4, 9, rng.sample([4, 8], 2)),
            ergodic_job("ergodic", 200, rng.choice(["cos_x", "cos_y", "cos_mix"]), start),
            powers_job("powers-h3", "heisenberg", 3, h3_set, 20, rng,
                       {"group": "heisenberg", "prefix": 8}),
            powers_job("powers-z3", "zd", 3, Z3_STANDARD, 30, rng,
                       {"group": "zd", "form": "octahedral"}),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs.extend(smoke_jobs(rng, files["toy.graph"]))
    return jobs


def write_inputs(workload: str, seed: int, directory: Path) -> Path:
    """Write the jobs and graph files of (workload, seed) under `directory`.

    The inputs are cached: an existing complete directory is reused, and a
    new one appears only once fully written.
    """
    # Keyed by this file's digest, so that edited generators never reuse
    # inputs written by older ones.
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    target = directory / version / workload / f"seed-{seed}"
    if (target / "jobs.json").is_file():
        return target
    partial = target.with_name(f"{target.name}.partial-{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    for name, (radius, key) in _graph_files(workload, seed).items():
        (partial / name).write_text(z2_ball_graph_text(radius, key), encoding="ascii")
    jobs = build_jobs(workload, seed)
    (partial / "jobs.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "jobs": jobs}, indent=1) + "\n",
        encoding="ascii",
    )
    partial.rename(target)
    return target
