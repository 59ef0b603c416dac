import random

import pytest

from plane_layers.geometry import PointSet
from plane_layers.verify import gen_line_instance


def random_point_set(rng: random.Random, n: int, extent: float = 1000.0) -> PointSet:
    """Uniform points with 6 decimal places, distinct by construction."""
    pts = set()
    while len(pts) < n:
        pts.add((f"{rng.uniform(0, extent):.6f}", f"{rng.uniform(0, extent):.6f}"))
    return PointSet(sorted(pts))


def acceptance_uniform_pool() -> list[PointSet]:
    """The 500 uniform instances of acceptance criteria 1 and 2."""
    rng = random.Random(510)
    return [random_point_set(rng, rng.randint(4, 64)) for _ in range(500)]


def acceptance_line_pool() -> list[PointSet]:
    """The 100 near-line instances of acceptance criterion 2."""
    rng = random.Random(511)
    return [gen_line_instance(rng.randint(4, 64), "0.001") for _ in range(100)]


@pytest.fixture
def rng():
    return random.Random(20240813)
