"""
Byte identity of the CSV writer, which formats each column once, against
the per-cell writer it replaced.

The reference kept here is the earlier path: the profile table built as one
tuple per row, every cell formatted by its own exact-type lookup, and the
rows handed to `csv.writer`.

Core claims:
    - every table of the 9 recipes, profile tables included, gives the
      reference's bytes, and so does every CSV file `run_experiment` writes
    - a hand-made table gives the reference's bytes: basepoint labels that
      need quoting (`a,b`, `"q"`, a line break), `Fraction`s, floats, bools,
      `""` and `None` cells, ints above 2^63, numpy scalars, subclasses of
      the formatted types, columns of one type and of mixed types, and
      tables without rows
    - columns whose cells are all exactly `int` or `str` go to `csv.writer`
      as they are and never reach `registry._column`; a column with a
      `bool`, `IntEnum`, numpy integer, `str` subclass, `Fraction`, `float`
      or `None` cell still does
"""

import csv
import enum
import io
from fractions import Fraction

import numpy as np
import pytest

from folnerlab import registry, runner
from folnerlab.config import validate_config
from folnerlab.recipes import RECIPES, recipe_document
from folnerlab.registry import profile_table, write_csv
from folnerlab.runner import run_analyses
from folnerlab.space import VolumeProfile

_REFERENCE_CELLS = {
    bool: lambda v: "true" if v else "false",
    Fraction: lambda v: f"{v.numerator}/{v.denominator}",
    float: repr,
    int: str,
    str: str,
}


def _reference_cell(value):
    fmt = _REFERENCE_CELLS.get(type(value))
    if fmt is None:
        fmt = next((f for t, f in _REFERENCE_CELLS.items() if isinstance(value, t)), str)
    return fmt(value)


def _reference_csv(digest, header, rows):
    fh = io.StringIO()
    fh.write(f"# config {digest}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_reference_cell(v) for v in row] for row in rows)
    return fh.getvalue()


def _reference_profile_rows(labeled):
    rows = []
    for label, p in labeled:
        for r in range(p.depth + 1):
            rows.append((label, r, p.ball[r], p.sphere[r] if r < p.depth else ""))
    return rows


def _written(digest, header, columns):
    fh = io.StringIO()
    write_csv(fh, digest, header, columns)
    return fh.getvalue()


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_recipe_tables_match_the_reference(name, tmp_path, monkeypatch):
    labeled, ran = [], []

    def profile(given):
        labeled.append(given)
        return profile_table(given)

    def analyses(config):
        ran.append(run_analyses(config))
        return ran[-1]

    monkeypatch.setattr(runner, "profile_table", profile)
    monkeypatch.setattr(runner, "run_analyses", analyses)
    result = runner.run_experiment(validate_config(recipe_document(name)), tmp_path)
    [(summary, tables)] = ran
    digest = summary["config"]
    for table, (header, columns) in tables.items():
        rows = _reference_profile_rows(labeled[0]) if table == "profile" else list(zip(*columns))
        expected = _reference_csv(digest, header, rows)
        assert _written(digest, header, columns) == expected
        assert (tmp_path / f"{table}.csv").read_text(encoding="utf-8") == expected
    assert len(result.artifacts) == len(tables) + 1


class _Half(Fraction):
    pass


class _Size(enum.IntEnum):
    ONE = 1


class _Label(str):
    pass


_HAND_MADE = {
    "label": ["a,b", '"q"', "plain", "x\ny", "", _Label("s,t"), "c d", "ok"],
    "int": [0, -7, 2**63, 2**70, -(2**64), 1, 12, 3],
    "fraction": [Fraction(3, 4), Fraction(-5), Fraction(2**70, 3), "", _Half(1, 2),
                 Fraction(0), Fraction(1, 7), ""],
    "float": [0.1, -0.0, float("inf"), 1e300, 2.5e-8, float("nan"), 3.0, np.float64(0.25)],
    "bool": [True, False, True, True, False, np.bool_(True), False, True],
    "blank": ["", None, "", None, "", "", None, ""],
    "mixed": [1, "", Fraction(1, 2), None, True, 2**70, 1.5, _Size.ONE],
    "sphere": [4, 8, 12, 16, 0, np.int64(9), 2, ""],
}


@pytest.mark.parametrize("rows", [8, 3, 1, 0])
def test_hand_made_table_matches_the_reference(rows):
    header = tuple(_HAND_MADE)
    columns = [values[:rows] for values in _HAND_MADE.values()]
    expected = _reference_csv("abc", header, list(zip(*columns)))
    assert _written("abc", header, columns) == expected


def test_each_column_alone_matches_the_reference():
    for name, values in _HAND_MADE.items():
        expected = _reference_csv("abc", (name,), [(v,) for v in values])
        assert _written("abc", (name,), [values]) == expected


def test_table_without_columns_writes_its_header():
    assert _written("abc", ("n", "k"), []) == _reference_csv("abc", ("n", "k"), [])


def _spied(monkeypatch, header, columns):
    """The bytes `write_csv` writes, and the columns it handed to `_column`."""
    seen = []
    column = registry._column

    def spy(values):
        seen.append(list(values))
        return column(values)

    monkeypatch.setattr(registry, "_column", spy)
    return _written("abc", header, columns), seen


def test_exact_int_and_str_columns_skip_the_formatter(monkeypatch):
    plain = {
        "int": [0, -7, 2**70, 3],
        "str": ["a,b", '"q"', "", "x\ny"],
        "sphere": [4, 8, 2**64, ""],
    }
    formatted = {
        "bool": [1, True, 2, 3],
        "enum": [_Size.ONE, 1, 2, 3],
        "numpy": [np.int64(9), 1, 2, 3],
        "label": ["a", _Label("s,t"), "b", "c"],
        "fraction": [Fraction(1, 2), 1, 2, 3],
        "float": [1, 2, 0.5, 3],
        "none": ["", None, "", ""],
    }
    header = (*plain, *formatted)
    columns = [*plain.values(), *formatted.values()]
    written, seen = _spied(monkeypatch, header, columns)
    assert written == _reference_csv("abc", header, list(zip(*columns)))
    assert seen == list(formatted.values())


def test_profile_columns_skip_the_formatter(monkeypatch):
    labeled = [("r_1", VolumeProfile(center=0, ball=(1, 3, 7, 7))),
               ("x,y", VolumeProfile(center=5, ball=(1,)))]
    header, columns = profile_table(labeled)
    written, seen = _spied(monkeypatch, header, columns)
    assert written == _reference_csv("abc", header, _reference_profile_rows(labeled))
    assert seen == []
