"""Regression guard: point sets, the two-tree build and verify run on the
integer grid.

Plain decimal strings are read straight onto the grid, so building a
`PointSet` from them constructs no `Fraction` at all.  Coordinates are held
exactly as scaled integers, and every length decision compares grid
integers, so a build plus a verify constructs only a handful of `Fraction`
objects (the exact squared lengths kept in the reports), whatever n is.  A
per-point or per-edge Fraction creeping back in shows up here as a count
that grows with n.
"""

import cProfile
import json
import pstats
import random
from pathlib import Path

import pytest

from plane_layers.centralized import build_two_disjoint_trees
from plane_layers.cli import main
from plane_layers.geometry import PointSet
from plane_layers.verify import gen_line_instance, verify_layers

from conftest import random_point_set

BUDGET = 100


def fraction_constructions(call) -> int:
    """Fractions constructed while `call` runs, counted by cProfile."""
    prof = cProfile.Profile()
    prof.runcall(call)
    return sum(
        calls
        for (file, _, name), (_, calls, *_) in pstats.Stats(prof).stats.items()
        if Path(file).name == "fractions.py" and name in ("__new__", "_from_coprime_ints")
    )


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_point_set_from_decimal_strings(n):
    rng = random.Random(n)
    pts = [(f"{rng.uniform(-1000, 1000):.6f}", f"{rng.uniform(0, 1000):.{i % 7}f}")
           for i in range(n)]
    sets = []
    assert fraction_constructions(lambda: sets.append(PointSet(pts))) == 0
    assert len(sets[0]) == n


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_line_instance_one_fraction_per_coordinate(n):
    """The near-line generator computes each y from integer residues, one
    Fraction per point; `PointSet` reads each (int, Fraction) pair through
    Fraction, two more."""
    sets = []
    assert fraction_constructions(lambda: sets.append(gen_line_instance(n, "0.001"))) <= 3 * n + 1
    assert len(sets[0]) == n


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_library_build_and_verify(n):
    ps = random_point_set(random.Random(n), n)
    trees = []

    def build_and_verify():
        trees.append(build_two_disjoint_trees(ps))
        assert verify_layers(trees[0].layers(), ps).all_plane

    assert fraction_constructions(build_and_verify) < BUDGET
    assert trees[0].bound == 2  # uniform points take the flat branch


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_cli_build_and_verify_on_line_instances(tmp_path, n):
    pts, out = tmp_path / "line.txt", tmp_path / "trees.json"
    assert main(["gen", "--kind", "line", "--n", str(n), "--out", str(pts)]) == 0

    def build_and_verify():
        assert main(["build", str(pts), "--out", str(out)]) == 0
        assert main(["verify", str(pts), str(out)]) == 0

    assert fraction_constructions(build_and_verify) < BUDGET
    assert json.loads(out.read_text())["bound"] == 3  # the pointed branch
