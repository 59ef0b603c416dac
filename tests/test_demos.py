"""Each script in `demos/` runs end to end and writes its picture."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, svg",
    [
        ("two_trees_demo.py", "two_trees.svg"),
        ("k_layers_demo.py", "k_layers.svg"),
        ("lower_bound_demo.py", None),  # prints a table only
    ],
)
def test_demo_runs(tmp_path, demo, svg):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if svg is not None:
        assert (out / svg).read_text().startswith("<svg")
