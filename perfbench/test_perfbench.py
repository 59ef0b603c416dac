"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from calibrate import Calibration  # noqa: E402
from run import fresh_import, run_workload  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPANS, WORKLOADS, Recorder  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "two_tree_uniform": {"n": 16},
    "two_tree_line_cli": {"n": 16, "n_spread": 2},
    "k_layers_uniform": {"n": 40, "certify": 2},
    "k_layers_lattice": {"side": 8, "certify": 2},
    "k_layers_clusters_cli": {"n": 30},
}


def tiny(name: str):
    w = copy.copy(WORKLOADS[name])
    w.params = {**w.params, **TINY[name]}
    w.trace_instances = 2
    w.count = lambda seconds: 2
    return w


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(tmp_path, name, trace):
    record = run_workload(tiny(name), seed=3, seconds=0.01, trace=trace, out_dir=tmp_path)
    result = record["result"]
    assert result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert (tmp_path / "results" / f"{name}-seed3-trace{int(trace)}.json").is_file()
    assert not list(tmp_path.glob("work-*"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_sum_to_traced_total(tmp_path, name):
    metrics = run_workload(tiny(name), seed=5, seconds=0.01, trace=True,
                           out_dir=tmp_path)["metrics"]
    total = metrics["traced_ops_s"]["value"]
    assert abs(metrics["traced_self_sum_s"]["value"] - total) <= 0.05 * total


@pytest.mark.parametrize("name", ["k_layers_uniform", "k_layers_clusters_cli"])
def test_call_counts_repeat(tmp_path, name):
    def calls():
        metrics = run_workload(tiny(name), seed=7, seconds=0.01, trace=True,
                               out_dir=tmp_path)["result"]["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}

    first = calls()
    assert first == calls()
    assert first["mst.build_emst.calls"] > 0


@pytest.mark.xfail(strict=True, reason="known defect: build_k_layers returns a crossing "
                   "layer on this lattice; fixing it makes this pass, and the lattice can then "
                   "join BENCHMARK.json")
def test_lattice_planarity_defect(tmp_path):
    mods = fresh_import(tmp_path / "pycache")
    workload = WORKLOADS["k_layers_lattice"]
    inst = workload.generate(mods, 1, tmp_path, 7)[6]  # seed 1, instance 6
    rec = Recorder(Calibration())
    workload.run(mods, inst, rec, nullcontext)
    assert rec.failed == 0, rec.failures


def test_originals_restored_and_every_binding_wrapped(tmp_path):
    mods = fresh_import(tmp_path / "pycache")
    before = {
        (m, key): value
        for m in vars(mods).values()
        for key, value in vars(m).items()
        if callable(value)
    }
    from_text = vars(mods.geometry.PointSet)["from_text"]
    with Tracer(SPANS) as tracer:
        assert tracer.absent == []
        assert mods.centralized.build_emst is mods.mst.build_emst is mods.verify.build_emst
        assert mods.centralized.build_emst is not before[(mods.mst, "build_emst")]
        assert vars(mods.geometry.PointSet)["from_text"] is not from_text
        mods.mst.build_emst(mods.geometry.PointSet.from_text("0 0 0\n1 1 0\n2 0 1\n"))
    assert tracer.stats["mst.build_emst"].calls == 1
    assert tracer.stats["geometry.parse"].calls == 1
    assert {(m, key): getattr(m, key) for (m, key) in before} == before
    assert vars(mods.geometry.PointSet)["from_text"] is from_text


def test_absent_target_reported_not_fatal(tmp_path):
    fresh_import(tmp_path / "pycache")
    targets = [("gone.function", "mst", "no_such_function"),
               ("gone.module", "no_such_module", "f"),
               ("gone.method", "geometry", "PointSet.no_such_method"),
               ("mst.build_emst", "mst", "build_emst")]
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["gone.function", "gone.module", "gone.method"]
    assert tracer.stats["gone.function"].calls == 0


def test_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "two_tree_uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
