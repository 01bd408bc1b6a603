"""Bundled experiment configs, one per headline claim.

Each recipe is an `ExperimentConfig` document, less its `output_dir`
(`out/NAME`, filled in by `recipe_document`), plus a statement of the claim
the run demonstrates.  `folnerlab reproduce NAME` runs one; the
`claim` text is what `folnerlab reproduce --list` prints.  All of them fit
in a few minutes and well under 4 GiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["Recipe", "RECIPES", "recipe", "recipe_document"]


@dataclass(frozen=True)
class Recipe:
    name: str
    claim: str
    raw: Mapping[str, Any]


_RECIPE_LIST = [
    Recipe(
        name="theorem-zd",
        claim=(
            "On the rank-2 lattice the shell constant alpha is positive, so "
            "spheres decay polynomially: mu(S(x,n)) <= C n^(-delta) mu(B(x,n)) "
            "with delta = log2(1 + alpha).  Measures alpha, fits C, and checks "
            "the fitted constant has no upward trend."
        ),
        raw={
            "space": {"family": "lattice", "d": 2, "radius": 128},
            "depth": 128,
            "analyses": {
                "doubling": {"r_max": 32},
                "shell": {"n_max": 64},
                "verify": {},
                "dyadic": {"i_max": 5},
            },
        },
    ),
    Recipe(
        name="theorem-heisenberg",
        claim=(
            "The same sphere-decay pipeline on the discrete Heisenberg group "
            "(growth exponent 4): alpha > 0 and the fitted decay constant "
            "stays flat, so the bound is not an abelian accident."
        ),
        raw={
            "space": {"family": "heisenberg", "radius": 32},
            "depth": 32,
            "analyses": {
                "doubling": {"r_max": 8},
                "shell": {"n_max": 16},
                "verify": {},
            },
        },
    ),
    Recipe(
        name="counterexample-tree",
        claim=(
            "Chained doubled trees with stretch 2 and valence 3: balls at the "
            "block roots satisfy mu(B(x, 2^k)) <= 8 * 3^k, yet the annulus "
            "between radii 2^(k-1) and 2^k keeps at least 1/8 of the ball's "
            "measure.  Shortest paths are monotone geodesics (step 1), but the "
            "graph is not doubling: the doubling ratio over the basepoints at "
            "r <= 128 is 21103/385, about 55, and grows about 1.5-fold per "
            "block.  Monotone geodesics without doubling put no polynomial "
            "decay on spheres."
        ),
        raw={
            "space": {"family": "tree-chain", "a": 2, "b": 3, "blocks": 8},
            "depth": 260,
            "analyses": {"annulus": {}, "doubling": {"r_max": 128}},
        },
    ),
    Recipe(
        name="counterexample-remark-ab",
        claim=(
            "Stretch 3, valence 2 trees: growth is near linear and the "
            "doubling constant stays bounded, but centers placed just outside "
            "a block have 1-spheres of size 2^n at radius 3^n.  The measured "
            "decay exponent delta stays below 1 - log 2 / log 3 + 0.1, "
            "showing that exponent cannot be improved."
        ),
        raw={
            "space": {"family": "tree-chain", "a": 3, "b": 2, "blocks": 7},
            "depth": 1460,
            "analyses": {
                "doubling": {"r_max": 729},
                "shell": {"n_max": 700},
            },
        },
    ),
    Recipe(
        name="counterexample-stairway",
        claim=(
            "A planar strip following half-circles of radius 2^k joined by "
            "axis runs: counting measure grows linearly in the Euclidean "
            "norm, but the ring (2^k, 2^k + 1] swallows a whole half-circle, "
            "so spheres spike and no decay bound holds.  The ambient "
            "restriction is not doubling-with-monotone-geodesics."
        ),
        raw={
            "space": {"family": "stairway", "levels": 10},
            "depth": 1025,
            "analyses": {"fit": {"dyadic_radii": True}},
        },
    ),
    Recipe(
        name="dyadic",
        claim=(
            "Pigeonhole selection without shell comparison: in every window "
            "(2^i, 2^(i+1)] some radius r_i has "
            "mu(S(x, r_i)) <= 2 C_D mu(B(x, r_i)) / 2^i.  Certifies the "
            "selected radii on the rank-2 lattice up to i = 7."
        ),
        raw={
            "space": {"family": "lattice", "d": 2, "radius": 260},
            "depth": 260,
            "analyses": {"doubling": {"r_max": 130}, "dyadic": {"i_max": 7}},
        },
    ),
    Recipe(
        name="abelian",
        claim=(
            "On the integer lattice the sphere-to-ball ratio decays like 1/n: "
            "max over n of n * mu(S(0, n)) / mu(B(0, n)) stays bounded "
            "(limit 2 in rank 2)."
        ),
        raw={
            "space": {"family": "lattice", "d": 2, "radius": 130},
            "depth": 130,
            "analyses": {"abelian": {"n_max": 128}},
        },
    ),
    Recipe(
        name="ergodic",
        claim=(
            "Ball averages of cos(2 pi x) under the golden-ratio rotation of "
            "the 2-torus converge to the space mean along the full sequence "
            "of word balls, at the rate the sphere-decay bound predicts."
        ),
        raw={
            "space": {"family": "lattice", "d": 2, "radius": 8},
            "depth": 8,
            "analyses": {
                "ergodic": {
                    "observable": "cos_x",
                    "start": [0.1, 0.2],
                    "n_max": 200,
                }
            },
        },
    ),
    Recipe(
        name="claims-5-3",
        claim=(
            "Word shells factor through a thin middle shell: with "
            "h = n - k/2, the shell C_{n,n+k} lies inside C_{h,h+1} U^(2k) "
            "and C_{h,h+1} U^(k/4) lies inside C_{n-k,n}.  Checked exactly "
            "on the rank-2 lattice for widths 4, 8, 12."
        ),
        raw={
            "space": {"family": "lattice", "d": 2, "radius": 8},
            "depth": 8,
            "analyses": {"claims": {"n_max": 20, "widths": [4, 8, 12]}},
        },
    ),
]

RECIPES: dict[str, Recipe] = {r.name: r for r in _RECIPE_LIST}


def recipe(name: str) -> Recipe:
    """Look up a bundled recipe by name."""
    try:
        return RECIPES[name]
    except KeyError:
        known = ", ".join(sorted(RECIPES))
        raise KeyError(f"unknown recipe {name!r}; known: {known}") from None


def recipe_document(name: str) -> dict[str, Any]:
    """The config document of a bundled recipe, written under out/NAME."""
    return {**recipe(name).raw, "output_dir": f"out/{name}"}
