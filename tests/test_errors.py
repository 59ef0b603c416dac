import json
import os
import tempfile
from fractions import Fraction

import pytest

from plane_layers.centralized import select_P
from plane_layers.distributed import (
    build_k_layers,
    center_point,
    grid_cell_side,
    grid_partition,
    layers_in_box,
)
from plane_layers.errors import (
    DUMP_DIR_ENV,
    InternalAssertionError,
    PreconditionError,
    UsageError,
    write_dump,
)
from plane_layers.geometry import PointSet, convex_hull
from plane_layers.render import render_svg
from plane_layers.verify import counting_lower_bound


def test_write_dump_honors_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(DUMP_DIR_ENV, str(tmp_path))
    err = InternalAssertionError("unit", "boom", {"points": "0 0 0\n", "extra": [1, 2]})
    path = write_dump(err)
    assert path.startswith(str(tmp_path))
    data = json.loads(open(path).read())
    assert data["stage"] == "unit"
    assert data["message"] == "boom"
    assert data["points"] == "0 0 0\n"


def test_write_dump_defaults_to_tempdir(monkeypatch, tmp_path):
    monkeypatch.delenv(DUMP_DIR_ENV, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    err = InternalAssertionError("unit", "boom")
    path = write_dump(err)
    assert path.endswith(".json")
    assert os.path.dirname(os.path.dirname(path)) == str(tmp_path)
    assert os.path.basename(os.path.dirname(path)).startswith("plane-layers-dump-")


def _two_cells():
    """Nine points in cell (0, 0) of the grid at k = 1 and beta = 1, whose
    side is 6, and one point in the cell (1, 0) beside it."""
    return PointSet([(x, y) for x in (1, 2, 3) for y in (1, 2, 3)] + [(7, 1)])


@pytest.mark.parametrize("call, exc_type, message", [
    (lambda: build_k_layers(PointSet([(0, 0)]), 1), PreconditionError,
     "beta default needs a point set with n >= 2"),
    (lambda: grid_partition(_two_cells(), 1, 0), PreconditionError, "beta^2 must be positive"),
    (lambda: center_point([0, 1], _two_cells(), [0, 1]), PreconditionError,
     "center point needs at least 3 points"),
    (lambda: layers_in_box((1, 0), grid_partition(_two_cells(), 1, Fraction(1))),
     PreconditionError, "box (1, 0) holds 1 < 3k points"),
    (lambda: select_P(PointSet([(0, 0), (1, 0), (0, 1)]), {}), PreconditionError,
     "the all-pointed construction needs n >= 4"),
    (lambda: PointSet([]).bbox(), PreconditionError, "bbox of empty point set"),
    (lambda: convex_hull([], _two_cells()), PreconditionError, "convex hull of empty id list"),
    (lambda: counting_lower_bound(1, 1), PreconditionError, "counting bound needs n > 1, k >= 1"),
    (lambda: render_svg(PointSet([("-1e308", "0"), ("1e308", "0")]), []), UsageError,
     "the points' extent is too large for a float"),
    # sqrt(betaSq) = 1e308 is a float, six times it is not
    (lambda: grid_cell_side(1, Fraction(10**616)), UsageError,
     "the grid's cell side 6*k*sqrt(betaSq) is too large for a float"),
])
def test_precondition_messages(call, exc_type, message):
    """Each library precondition raises its own exception type with its
    exact message."""
    with pytest.raises(exc_type) as exc:
        call()
    assert type(exc.value) is exc_type and str(exc.value) == message
