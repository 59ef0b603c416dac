import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from plane_layers import cli, distributed, mst, verify
from plane_layers.cli import main
from plane_layers.geometry import PointSet

from conftest import count_tree_computations


def run(*argv):
    return main(list(argv))


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("gen", "--kind", "uniform", "--n", "50", "--seed", "7", "--out", str(a)) == 0
    assert run("gen", "--kind", "uniform", "--n", "50", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    ps = PointSet.from_text(a.read_text())
    assert len(ps) == 50


def test_gen_line_and_clusters(tmp_path):
    line = tmp_path / "line.txt"
    assert run("gen", "--kind", "line", "--n", "5", "--eps", "0.001", "--out", str(line)) == 0
    ps = PointSet.from_text(line.read_text())
    assert [ps.x(i) for i in ps.ids] == [0, 1, 2, 3, 4]
    blobs = tmp_path / "blobs.txt"
    assert run("gen", "--kind", "clusters", "--n", "60", "--clusters", "3",
               "--seed", "3", "--out", str(blobs)) == 0
    assert len(PointSet.from_text(blobs.read_text())) == 60


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "clusters", "--clusters", "0"],
        ["--kind", "clusters", "--clusters", "-2"],
        ["--kind", "line", "--eps", "abc"],
        ["--kind", "line", "--eps", "1/0"],
        ["--kind", "clusters", "--sigma", "0"],
        ["--kind", "clusters", "--sigma", "-1"],
        ["--kind", "clusters", "--sigma", "nan"],
        ["--kind", "clusters", "--sigma", "inf"],
        ["--kind", "clusters", "--sigma", "1e-300"],  # too few distinct 6-decimal points
        ["--kind", "clusters", "--clusters", "1", "--sigma", "1e-7"],
    ],
)
def test_gen_rejects_bad_arguments(tmp_path, flags):
    """Exit 2 with a usage error, not a traceback and not an endless loop."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plane_layers.cli", "gen", "--n", "10", *flags,
         "--out", str(tmp_path / "p.txt")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize(
    "flags, digest",
    [
        (["--kind", "line", "--n", "60", "--eps", "1/1000"],
         "1569d121d2874eab1a604e40d018d9294072d91c04ab5f5db2c7f07e542c699d"),
        (["--kind", "line", "--n", "60"],
         "1569d121d2874eab1a604e40d018d9294072d91c04ab5f5db2c7f07e542c699d"),
        (["--kind", "clusters", "--n", "200", "--seed", "3"],
         "7b53f6daf64e1ccadf4463b55e1c08746e59234c1112bd35d6344bb5f3fda79d"),
        (["--kind", "clusters", "--n", "200", "--seed", "5", "--sigma", "0.5", "--clusters", "1"],
         "12fa4ac782bfb03e39741c2390000d3902c1a29782b31a54bf60bbce37486fcb"),
    ],
)
def test_gen_output_bytes_pinned(tmp_path, flags, digest):
    """The argument checks leave every valid gen call's bytes as they were."""
    out = tmp_path / "p.txt"
    assert run("gen", *flags, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_build_two_tree_square(tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "two-tree"
    assert data["shared"] is None
    assert max(data["ratios"]["red"], data["ratios"]["blue"]) <= 3 + 1e-9
    assert run("verify", str(pts), str(out)) == 0


def test_build_distributed_and_verify(tmp_path):
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "100", "--seed", "11", "--out", str(pts)) == 0
    out = tmp_path / "layers.json"
    assert run("build", str(pts), "--mode", "distributed", "--k", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "distributed" and data["k"] == 2
    assert len(data["layers"]) == 2
    report = tmp_path / "report.json"
    assert run("verify", str(pts), str(out), "--out", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["pairwiseDisjoint"] is True


def test_build_distributed_beta_override(tmp_path):
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "80", "--seed", "13", "--out", str(pts)) == 0
    out = tmp_path / "layers.json"
    # generous beta: fine; beta below the MST bottleneck: precondition error
    assert run("build", str(pts), "--mode", "distributed", "--k", "1",
               "--beta", "400", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["betaSq"] == "160000/1"
    assert run("build", str(pts), "--mode", "distributed", "--k", "1",
               "--beta", "0.001", "--out", str(out)) == 3


@pytest.mark.parametrize("flag", ["--beta", "--perturb"])
@pytest.mark.parametrize("mode", ["two-tree", "distributed"])
@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_build_rejects_bad_numbers(tmp_path, capsys, flag, mode, value):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    out = tmp_path / "out.json"
    assert run("build", str(pts), "--mode", mode, flag, value, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {flag} must be a number")
    assert not out.exists()


def test_distributed_build_rejects_empty_beta(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    out = tmp_path / "out.json"
    assert run("build", str(pts), "--mode", "distributed", "--beta=", "--out", str(out)) == 2
    assert capsys.readouterr().err == "usage error: --beta must be a number, got ''\n"
    assert not out.exists()


@pytest.mark.parametrize("beta", ["-1", "0", "1", "400", ""])
def test_two_tree_build_rejects_beta(tmp_path, capsys, beta):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    out = tmp_path / "out.json"
    assert run("build", str(pts), "--mode", "two-tree", f"--beta={beta}", "--out", str(out)) == 2
    assert capsys.readouterr().err == "usage error: --beta applies to --mode distributed only\n"
    assert not out.exists()
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0


def test_build_distributed_k_too_large(tmp_path):
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "20", "--seed", "5", "--out", str(pts)) == 0
    out = tmp_path / "layers.json"
    assert run("build", str(pts), "--mode", "distributed", "--k", "9", "--out", str(out)) == 3


def test_build_collinear_needs_perturbation(tmp_path):
    pts = tmp_path / "line.txt"
    pts.write_text("".join(f"{i} {i} 0\n" for i in range(6)))
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 3
    assert run("build", str(pts), "--mode", "two-tree", "--perturb", "--out", str(out)) == 0


def test_verify_catches_bad_layers(tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    data["red"][0] = data["red"][1]  # duplicate edge disconnects the red tree
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("verify", str(pts), str(bad)) == 4


def test_verify_allows_one_edge_above_twice_the_bottleneck(tmp_path, capsys):
    """A bound-3 two-tree file may hold one edge longer than twice the MST
    bottleneck, not two."""
    pts = tmp_path / "p.txt"
    pts.write_text("".join(f"{i} {i} 0\n" for i in range(5)))
    path = [[0, 1], [1, 2], [2, 3], [3, 4]]
    layers = tmp_path / "tt.json"

    def verify_with(blue):
        layers.write_text(json.dumps(
            {"kind": "two-tree", "shared": None, "bound": 3, "red": path, "blue": blue}))
        report = tmp_path / "report.json"
        code = run("verify", str(pts), str(layers), "--out", str(report))
        return code, json.loads(report.read_text())["overTwiceBottleneck"]

    assert verify_with([[0, 3], [0, 2], [2, 4], [1, 3]]) == (0, 1)
    assert verify_with([[0, 3], [1, 4], [0, 2], [2, 4]]) == (4, 2)


def test_render_two_tree_and_grid(tmp_path):
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "40", "--seed", "2", "--out", str(pts)) == 0
    tt = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(tt)) == 0
    svg1 = tmp_path / "a.svg"
    assert run("render", str(pts), str(tt), "--out", str(svg1)) == 0
    body = svg1.read_text()
    assert body.startswith("<svg") and "#d62728" in body and "#1f77b4" in body

    dist = tmp_path / "dist.json"
    assert run("build", str(pts), "--mode", "distributed", "--k", "3", "--out", str(dist)) == 0
    svg2 = tmp_path / "b.svg"
    assert run("render", str(pts), str(dist), "--grid", "--out", str(svg2)) == 0
    assert "#cccccc" in svg2.read_text()  # grid lines present


def test_render_empty_layers(tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"kind": "distributed", "k": 0, "layers": []}))
    svg = tmp_path / "c.svg"
    assert run("render", str(pts), str(empty), "--out", str(svg)) == 0
    assert "circle" in svg.read_text()


def test_stats_runs(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("stats", str(pts), str(out)) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["n"] == 4 and got["k"] == 2


def test_usage_error_exit_code(tmp_path):
    assert run("gen", "--kind", "uniform", "--n", "0", "--seed", "1",
               "--out", str(tmp_path / "x.txt")) == 2
    assert run("nonsense") == 2


def test_build_outputs_byte_identical(tmp_path):
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "64", "--seed", "9", "--out", str(pts)) == 0
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        assert run("build", str(pts), "--mode", "distributed", "--k", "2",
                   "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


BAD_EDGES = [
    [[-1, 3]],  # negative id: would index from the end of the point list
    [[0, 5]],  # out of range for five points
    [[2, 2]],  # self-loop
    [[0, 1, 2]],
    [[0]],
    [["0", "1"]],
    [[0.5, 1]],
    [[True, 1]],
    [7],
]


@pytest.mark.parametrize(
    "content",
    ["{not json", "[]", json.dumps({"kind": "distributed", "k": 1, "layers": {"0": []}})]
    + [json.dumps({"kind": "distributed", "k": 1, "layers": [edges]}) for edges in BAD_EDGES]
    + [json.dumps({"kind": "two-tree", "red": [[0, 1]], "blue": edges}) for edges in BAD_EDGES]
    + [json.dumps({"red": [[0, 1]]}), json.dumps({"kind": "two-tree", "blue": [[0, 1]]})],
)
@pytest.mark.parametrize("command", ["verify", "stats", "render"])
def test_malformed_layer_files_are_usage_errors(tmp_path, capsys, content, command):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n4 2 0\n")
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    argv = [command, str(pts), str(bad)]
    if command == "render":
        argv += ["--out", str(tmp_path / "x.svg")]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"kind": "two-tree", "bound": "2", "red": [], "blue": []}, "'bound' must be"),
        ({"kind": "distributed", "k": 1, "betaSq": "1/0", "layers": [[[0, 1]]]}, "betaSq"),
        ({"kind": "distributed", "k": 1, "betaSq": 0.5, "layers": [[[0, 1]]]}, "betaSq"),
        ({"kind": "distributed", "betaSq": "1/1", "layers": [[[0, 1]]]}, "'k' must be"),
        ({"kind": "distributed", "k": 3, "betaSq": "1/1", "layers": [[[0, 1]]]}, "'k' is 3"),
        ({"kind": "distributed", "k": 1, "betaSq": "1/1", "layers": [[[0, 1]], []]}, "'k' is 1"),
        ({}, "no layers"),
        ({"layers": []}, "no layers"),
        ({"kind": "distributed", "k": 1, "betaSq": "1/1", "layers": []}, "no layers"),
    ],
)
def test_malformed_layer_metadata_is_usage_error(tmp_path, monkeypatch, capsys, meta, message):
    """Exit 2 with no report, decided before `verify_layers` runs."""
    def no_verification(*args, **kwargs):
        raise AssertionError("verify_layers ran before the metadata checks")

    monkeypatch.setattr(cli, "verify_layers", no_verification)
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(meta))
    report = tmp_path / "report.json"
    assert run("verify", str(pts), str(bad), "--out", str(report)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert not report.exists()


@pytest.mark.parametrize("kind", ["two-tree", "distributed"])
def test_verify_length_bound_is_exact(tmp_path, kind):
    """An edge longer than the bound by far less than 1e-9 relative fails."""
    pts = tmp_path / "p.txt"
    # MST 0-1-2-3 has bottleneck 1; edge 0-3 has length 2 + 1e-10
    pts.write_text("0 0 0\n1 1 0\n2 2 0\n3 2.0000000001 0\n")
    layers = tmp_path / "layers.json"

    def verify_with(**meta):
        if kind == "two-tree":
            data = {"kind": kind, "shared": None,
                    "red": [[0, 1], [1, 2], [2, 3]], "blue": [[0, 2], [1, 3], [0, 3]], **meta}
        else:  # the longest layer edge, 0-2, has length 2
            data = {"kind": kind, "k": 1, "layers": [[[0, 1], [0, 2], [2, 3]]], **meta}
        layers.write_text(json.dumps(data))
        return run("verify", str(pts), str(layers))

    if kind == "two-tree":
        assert verify_with(bound=3) == 0
        assert verify_with(bound=2) == 4  # (2 + 1e-10)^2 > 2^2 * 1
    else:
        # 288 * betaSq is the squared length limit
        assert verify_with(betaSq="4/288") == 0
        below = Fraction(2 * 10**12 - 1, 10**12) ** 2 / 288  # limit 2 - 1e-12
        assert verify_with(betaSq=f"{below.numerator}/{below.denominator}") == 4


def test_one_emst_per_cli_call(tmp_path, monkeypatch):
    calls = []

    def counted(ps):
        calls.append(None)
        return mst.build_emst(ps)

    for module in (cli, distributed, verify):
        monkeypatch.setattr(module, "build_emst", counted)
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "60", "--seed", "4", "--out", str(pts)) == 0
    out = tmp_path / "layers.json"
    for extra in ([], ["--beta", "400"]):
        for command in (["build", str(pts), "--mode", "distributed", "--k", "1",
                         *extra, "--out", str(out)],
                        ["verify", str(pts), str(out)]):
            calls.clear()
            assert run(*command) == 0
            assert len(calls) == 1, command


def test_one_tree_computation_per_cli_command(tmp_path, monkeypatch):
    calls = count_tree_computations(monkeypatch)
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "60", "--seed", "4", "--out", str(pts)) == 0
    tt, dist = tmp_path / "tt.json", tmp_path / "layers.json"
    for command in (["build", str(pts), "--mode", "two-tree", "--out", str(tt)],
                    ["verify", str(pts), str(tt)],
                    ["stats", str(pts), str(tt)],
                    ["build", str(pts), "--mode", "distributed", "--k", "1", "--out", str(dist)],
                    ["build", str(pts), "--mode", "distributed", "--k", "1", "--beta", "400",
                     "--out", str(dist)],
                    ["verify", str(pts), str(dist)],
                    ["stats", str(pts), str(dist)]):
        calls.clear()
        assert run(*command) == 0
        assert calls == [60], command


@pytest.mark.parametrize("beta", ["-1", "0", "-40", "-0.5"])
def test_non_positive_beta_rejected_before_the_bottleneck_check(tmp_path, capsys, beta):
    """The square's MST bottleneck is 10: a beta of -1 or 0 once failed as
    below it, while -40 (whose square is above it) failed as not positive."""
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 10 0\n2 10 10\n3 0 10\n")
    out = tmp_path / "layers.json"
    assert run("build", str(pts), "--mode", "distributed", "--k", "1",
               f"--beta={beta}", "--out", str(out)) == 3
    assert capsys.readouterr().err == "precondition failed: beta must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("coord", ["abc", "1/0", "1..5", "--1", "1e", "0x1", "1,5", ".", "7" * 4301])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_malformed_coordinates_are_usage_errors(tmp_path, capsys, coord, command):
    """Exit 2 with the message that reading the coordinate as a Fraction gives."""
    with pytest.raises((ValueError, ZeroDivisionError)) as exc:
        Fraction(coord)
    pts = tmp_path / "p.txt"
    pts.write_text(f"0 0 0\n1 1 0\n2 1 {coord}\n3 0 1\n")
    out = tmp_path / "tt.json"
    out.write_text(json.dumps({"kind": "two-tree", "red": [], "blue": []}))
    argv = ["build", str(pts), "--out", str(out)] if command == "build" else [
        "verify", str(pts), str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"usage error: line 3: {exc.value}\n"


def test_coordinate_forms_read_as_their_values(tmp_path):
    """Signs, exponents, fractions, underscores and non-ASCII digits in a
    point file build the same trees as the plain decimals they stand for."""
    forms = tmp_path / "forms.txt"
    forms.write_text("0 +0.5 0\n1 1e1 .5\n2 3/7 1_0\n3 -.25 ７\n4 5. -0.0\n")
    plain = tmp_path / "plain.txt"
    plain.write_text(PointSet.from_text(forms.read_text()).to_text())
    assert plain.read_text() == "0 0.5 0\n1 10 0.5\n2 3/7 10\n3 -0.25 7\n4 5 0\n"
    outs = []
    for pts in (forms, plain):
        out = tmp_path / f"{pts.stem}.json"
        assert run("build", str(pts), "--out", str(out)) == 0
        assert run("verify", str(pts), str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
