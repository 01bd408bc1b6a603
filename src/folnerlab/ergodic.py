"""Ball averages of torus rotations along growing generating-set powers.

A lattice Z^d acts on the d-torus by coordinatewise irrational rotation:
element g moves the point p to p + (g_1 t_1, ..., g_d t_d) mod 1.  Averaging
an observable over the exact word balls U^n of a finite generating set gives
a mean-ergodic sequence; because the ball sizes here satisfy polynomial
sphere decay, consecutive averages A_n and A_(n+1) differ by O(n^-delta)
times the sup norm, so the whole sequence converges rather than just a
subsequence.

`ergodic_trace` rotates by the tuple (t_1, ..., t_d), `GOLDEN_ANGLES` in
the analysis, and computes the averages incrementally from a
`ProductSequence`'s birth layers, one per step, touching each element once:
each layer is moved as one int64 array, in discovery order, by numpy float
arithmetic, which rounds like Python's and follows its sign rule for `%`.
An observable gives a layer's values at once, each the float of its
per-point formula (`math.cos`, not `np.cos`, whose last bit may differ).
`ergodic_trace` keeps the sum order: it adds the values one at a time, in
that order, not by `sum` (compensated from Python 3.12), `math.fsum` or
`np.sum` (pairwise).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping

import numpy as np

from .products import ProductSequence

__all__ = [
    "GOLDEN_ANGLES",
    "OBSERVABLES",
    "observable",
    "ErgodicTrace",
    "ergodic_trace",
]

Point = tuple[float, ...]

# Rotation numbers with well-behaved continued fractions, so the empirical
# averages settle at a visible rate: (sqrt(5)-1)/2 and sqrt(2)-1.
GOLDEN_ANGLES: Point = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


def _cos(t: np.ndarray) -> list[float]:
    """cos(2 pi t) for each entry of `t`, by `math.cos`."""
    return list(map(math.cos, ((2.0 * math.pi) * t).tolist()))


# name -> (observable on points of the 2-torus, the rows of an array, giving
# the list of their values; its integral against Lebesgue measure)
OBSERVABLES: Mapping[str, tuple[Callable[[np.ndarray], list[float]], float]] = {
    "one": (lambda p: [1.0] * len(p), 1.0),
    "cos_x": (lambda p: _cos(p[:, 0]), 0.0),
    "cos_y": (lambda p: _cos(p[:, 1]), 0.0),
    "cos_mix": (lambda p: list(map(operator.mul, _cos(p[:, 0]), _cos(p[:, 1]))), 0.0),
    "box": (lambda p: ((p[:, 0] < 0.25) & (p[:, 1] < 0.25)).astype(float).tolist(), 1.0 / 16.0),
}


def observable(name: str) -> tuple[Callable[[np.ndarray], list[float]], float]:
    """Look up a named observable and its exact space mean."""
    try:
        return OBSERVABLES[name]
    except KeyError:
        known = ", ".join(sorted(OBSERVABLES))
        raise KeyError(f"unknown observable {name!r}; known: {known}") from None


@dataclass(frozen=True)
class ErgodicTrace:
    """Averages A_n = (1/|U^n|) sum over g in U^n of f(g . p), for n = 0..N."""

    space_mean: float
    averages: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.averages) - 1

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(abs(a - self.space_mean) for a in self.averages)

    @property
    def final_error(self) -> float:
        return self.errors[-1]

    @property
    def envelope(self) -> float:
        """Worst deviation from the space mean over the last 10 averages."""
        return max(self.errors[-10:])


def ergodic_trace(
    angles: Point, sequence: ProductSequence, name: str, start: Point
) -> ErgodicTrace:
    """Average a named observable over the element sets of a product
    sequence, one average per step it expanded, along the orbit of `start`
    under the rotation of the torus by `angles`.

    The sequence's birth layers are replayed in order, each in discovery
    order, so the total work is one observable value per distinct group
    element; the values are added one at a time, in that order.
    """
    f, mean = observable(name)
    if sequence.layers[0].order is None:
        raise ValueError("the sequence's layers carry no discovery order; build it with ordered=True")
    if sequence.model.rank != len(angles) or len(start) != len(angles):
        raise ValueError("element and point must match the action dimension")
    running = 0.0
    averages: list[float] = []
    for layer, count in zip(sequence.layers, sequence.sizes):
        rows = layer.box.decode(layer.order)
        points = (np.asarray(start) + rows * np.asarray(angles)) % 1.0
        running = reduce(operator.add, f(points), running)
        averages.append(running / count)
    return ErgodicTrace(space_mean=mean, averages=tuple(averages))
