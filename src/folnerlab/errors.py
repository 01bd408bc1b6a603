"""Shared exception types."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """A broken graph invariant: an edge's (range, loop, repeat) or the
    graph's (basepoint range, connectivity) from `Graph.from_edges`, which
    `Graph.validate` checks again, or a file's text from
    `graphio.parse_graph`.  `where` is the edge's list index or the
    basepoint's label, if one record shows it."""

    def __init__(self, message: str, where: int | str | None = None):
        super().__init__(message)
        self.where = where


class BudgetExceededError(RuntimeError):
    """Raised when a construction would exceed a size budget.

    Carries enough context to tell the user which stage blew up and how far
    it got before the guard fired: `layer`, when given, is the index of the
    layer whose addition crossed the budget.
    """

    def __init__(self, stage: str, reached: int, budget: int, layer: int | None = None):
        self.stage = stage
        self.reached = reached
        self.budget = budget
        self.layer = layer
        where = "" if layer is None else f" at layer {layer}"
        super().__init__(
            f"{stage}: size {reached} exceeds budget {budget}{where}"
        )


class NotGeneratingError(ValueError):
    """Raised when a purported generating set fails the generation checks."""


class ConfigError(ValueError):
    """Raised when an experiment config is malformed; names the bad field."""
