"""Each script in `demos/` runs end to end and writes its picture, and the
README's library tour runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(cwd, *args):
    """A Python run from `cwd` with the package's `src/` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "demo, svg",
    [
        ("two_trees_demo.py", "two_trees.svg"),
        ("k_layers_demo.py", "k_layers.svg"),
        ("lower_bound_demo.py", None),  # prints a table only
    ],
)
def test_demo_runs(tmp_path, demo, svg):
    out = tmp_path / "out"
    proc = run_python(tmp_path, str(ROOT / "demos" / demo), str(out))
    assert proc.returncode == 0, proc.stderr
    if svg is not None:
        assert (out / svg).read_text().startswith("<svg")


def test_readme_library_tour_runs(tmp_path):
    """The code block under README's "Library tour" heading imports what it
    uses from the package root and runs."""
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "from plane_layers import (" in tour
    proc = run_python(tmp_path, "-c", tour)
    assert proc.returncode == 0, proc.stderr
