import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from plane_layers import cli
from plane_layers.cli import main
from plane_layers.centralized import Recoloring, construction1
from plane_layers.geometry import PointSet, Segment
from plane_layers.mst import build_emst
from plane_layers.verify import Guarantee, verify_layers

from conftest import count_emst_trees, count_mst_computations


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


@pytest.mark.parametrize("n, eps, message", [
    ("1", "0.001", "line instances need n >= 2"),
    ("1", "abc", "line instances need n >= 2"),  # n is checked before --eps is read
    ("0", "0.001", "n must be >= 1"),
])
def test_gen_line_needs_two_points(tmp_path, capsys, n, eps, message):
    out = tmp_path / "p.txt"
    assert run("gen", "--kind", "line", "--n", n, "--eps", eps, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "gen_flags, build_flags, digests",
    [
        (["--kind", "line", "--n", "200"], ["--mode", "two-tree"],
         ("80b832196793cd184c865da3e7794f29418c167b8ad15af34062c6c685216618",
          "a1500d9897c2e6c7131cce04fa4b9f235ccc6cdd33a93d72fb716b1577a5c899",
          "ad7a20d13a2f57346aa1e9cbf4f3bd9f7580ae21ba5c1909dd6421643d4f3c02")),
        (["--kind", "uniform", "--n", "300"], ["--mode", "distributed", "--k", "2"],
         ("f62646234106f8c73409babb1aec8de390b51e79c723b53eb2c74987ce11b795",
          "c41b52c6c7c30149f3d790a0a4b6cfc2bc26e27e8886ee312844f26cf181a656",
          "f8df7b32390aeaec5f1f04dc51a68457171dc4cdc67aef002f95bd2b3b649d47")),
    ],
    ids=["two-tree", "distributed"],
)
def test_layers_report_and_stats_bytes_pinned(tmp_path, capsys, gen_flags, build_flags, digests):
    """The layers file, the `verify --out` report and the `stats` output keep
    the bytes `json.dumps(indent=2, sort_keys=True)` wrote."""
    pts, layers, report = tmp_path / "p.txt", tmp_path / "l.json", tmp_path / "r.json"
    assert run("gen", *gen_flags, "--out", str(pts)) == 0
    assert run("build", str(pts), *build_flags, "--out", str(layers)) == 0
    assert run("verify", str(pts), str(layers), "--out", str(report)) == 0
    capsys.readouterr()
    assert run("stats", str(pts), str(layers)) == 0
    stats = capsys.readouterr().out.encode()
    got = tuple(hashlib.sha256(b).hexdigest()
                for b in (layers.read_bytes(), report.read_bytes(), stats))
    assert got == digests


def _random_json_value(rng, depth):
    """A random JSON payload: nested dicts and lists over ints (huge and
    negative), bools, None, floats (inf and nan too) and strings with
    non-ASCII characters and escapes."""
    kind = rng.randrange(12 if depth < 4 else 7)
    if kind == 0:
        return rng.randint(-10, 10)
    if kind == 1:
        return rng.choice([-1, 1]) * rng.randrange(10 ** rng.randint(1, 60))
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.0, -0.0, 1e300, -2.5e-300, float("inf"), float("-inf"),
                           float("nan"), rng.uniform(-1e6, 1e6), 1 / 3])
    if kind in (4, 5):
        return _random_json_text(rng)
    if kind == 6:
        return [rng.randint(-1000, 10 ** 20) for _ in range(rng.randint(0, 5))]
    if kind == 7:
        # int rows of mixed widths, negative and beyond 2**64, now and then
        # with a bool in a row
        rows = [[rng.choice([rng.randint(0, 99), rng.randint(-99, -1),
                             rng.choice([-1, 1]) * rng.randrange(2 ** 64, 2 ** 200)])
                 for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = rng.choice([True, False])
        return rows
    if kind in (8, 9):
        return [_random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {_random_json_text(rng): _random_json_value(rng, depth + 1)
            for _ in range(rng.randint(0, 4))}


def _random_json_text(rng):
    alphabet = "ab \"\\/\b\f\n\r\t\x00\x1fé€\u2028😀"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def test_json_text_matches_json_dumps():
    rng = random.Random(16)
    fixed = [
        {}, [], [[]], [[], [1]], [1, True], [[1, 2], [3, False]], [[1, 2], (3, 4)],
        {"a": [[0, 1], [2, 3]], "b": {"c": None}}, (1, 2), [1, 2.0], [[1, None]],
        [-(10 ** 40), 0, 10 ** 40], "é\n", 7, 0.1, float("nan"), None,
        [[1], [2, -3], [4, 5, 6], [-7, 2 ** 64, -(2 ** 70), 9]], [[0, 1], [2, True]],
        {"a": [[False, 1]], "b": [(1, 2, 3), [4]]},
    ]
    payloads = fixed + [_random_json_value(rng, 0) for _ in range(2000)]
    for value in payloads:
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True), value
    kinds = {type(v) for v in payloads}
    assert {dict, list, int, float, str, bool, type(None)} <= kinds


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_json_text_rejects_keys_that_are_not_str(value):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json_text(value)


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


def test_verify_rejects_a_two_tree_layer_that_is_not_a_tree(tmp_path):
    """A red layer that stays plane, spanning, short and disjoint from blue
    but has n edges breaks the two-tree promise of n - 1 edges per tree."""
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "30", "--seed", "4", "--out", str(pts)) == 0
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    ps = PointSet.from_text(pts.read_text())
    red, blue = ([Segment(*e) for e in data[c]] for c in ("red", "blue"))
    guarantee = Guarantee.two_tree(data["bound"], shared=None)
    pairs = (Segment(a, b) for a, b in itertools.combinations(ps.ids, 2))
    extra = next(e for e in pairs if e not in red and e not in blue
                 and verify_layers([red + [e], blue], ps).breach(guarantee)[0] == "tree")
    data["red"].append(list(extra.as_pair()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("verify", str(pts), str(out)) == 0
    assert run("verify", str(pts), str(bad)) == 4


@pytest.mark.parametrize(
    "shared, message",
    [
        ("garbage", "'garbage' is not a pair of point ids"),
        (True, "True is not a pair of point ids"),
        ([0], "[0] is not a pair of point ids"),
        ([0, True], "[0, True] is not a pair of point ids"),
        ([3, 3], "edge [3, 3] is a self-loop"),
        ([0, 30], "edge [0, 30] has an id outside 0..29"),
        ([-1, 3], "edge [-1, 3] has an id outside 0..29"),
    ],
)
def test_verify_rejects_a_malformed_shared_field(tmp_path, capsys, shared, message):
    """A two-tree file's 'shared' is null or a pair of distinct point ids,
    checked as layer entries are; anything else is a usage error naming the
    field, also on a file whose trees share an edge."""
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "30", "--out", str(pts)) == 0
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    data["blue"][0] = data["red"][0]
    data["shared"] = shared
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", str(pts), str(bad)) == 2
    assert capsys.readouterr().err == f"usage error: layers file: 'shared': {message}\n"


def test_verify_reads_a_recorded_shared_edge(tmp_path):
    """Red and blue may share one edge only when the file records one: a
    built file with 'shared' null passes and fails once blue repeats a red
    edge, which passes with that edge recorded; a root-edge construction's
    file records the edge its trees share and passes."""
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "30", "--out", str(pts)) == 0
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["shared"] is None
    assert run("verify", str(pts), str(out)) == 0
    data["blue"][0] = data["red"][0]
    for shared, code in ((None, 4), (data["red"][0], 0)):
        data["shared"] = shared
        out.write_text(json.dumps(data))
        assert run("verify", str(pts), str(out)) == code
    ps = PointSet.from_text(pts.read_text())
    edges = build_emst(ps)
    root = min(v for v in ps.ids if sum(e.touches(v) for e in edges) == 1)
    tt = construction1(ps, root, Recoloring.ORIGINAL)
    out.write_text(json.dumps({**tt.to_json_dict(), "n": len(ps)}))
    assert json.loads(out.read_text())["shared"] == list(tt.shared.as_pair())
    assert run("verify", str(pts), str(out)) == 0


def test_verify_rejects_a_repeat_other_than_the_recorded_shared_edge(tmp_path, capsys):
    """A two-tree file whose trees repeat an edge other than the one its
    'shared' records fails with a 'shared' breach naming both edges, and
    the file that records the repeated edge passes, with nothing on
    stderr."""
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "30", "--out", str(pts)) == 0
    out = tmp_path / "tt.json"
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    data["blue"][0] = data["red"][0]
    assert data["red"][0] == [0, 9]
    for shared, code in (([0, 1], 4), ([9, 0], 0)):
        data["shared"] = shared
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("verify", str(pts), str(out)) == code
        stdout, stderr = capsys.readouterr()
        assert f"disjoint={code == 0} " in stdout
        assert stderr == ("" if code == 0 else "breach [shared]: edge Segment(a=0, b=9) in "
                          "layers 0 and 1, not the shared edge Segment(a=0, b=1)\n")
    ps = PointSet.from_text(pts.read_text())
    report = verify_layers([[Segment(*e) for e in data[c]] for c in ("red", "blue")], ps)
    assert report.breach(Guarantee.two_tree(data["bound"], Segment(0, 1))) == (
        "shared", 1, f"edge {Segment(0, 9)} in layers 0 and 1, not the shared edge {Segment(0, 1)}")
    assert report.breach(Guarantee.two_tree(data["bound"], Segment(0, 9))) is None


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


SQUARE = "0 0 0\n1 1 0\n2 1 1\n3 0 1\n"
ON_A_LINE = "".join(f"{i} {i} 0\n" for i in range(5))


@pytest.mark.parametrize("points, layers, line", [
    (SQUARE, {"layers": [[[0, 2], [1, 3], [0, 1]]]},
     "breach [planarity]: layer 0: edges Segment(a=0, b=2) and Segment(a=1, b=3) cross"),
    (SQUARE, {"layers": [[[0, 1], [2, 3]]]},
     "breach [spanning]: layer 0 has 2 components"),
    (SQUARE, {"kind": "two-tree", "shared": None, "bound": 3,
              "red": [[0, 1], [1, 2], [2, 3], [0, 3]], "blue": [[0, 2], [1, 2], [2, 3]]},
     "breach [tree]: layer 0 has 4 edges, expected 3"),
    (SQUARE, {"kind": "distributed", "k": 1, "betaSq": "1/1000", "layers": [[[0, 1], [1, 2], [2, 3]]]},
     "breach [length]: edge Segment(a=0, b=1) in layer 0 exceeds the length limit"),
    (SQUARE, {"kind": "two-tree", "shared": None, "bound": 3,
              "red": [[0, 1], [1, 2], [2, 3]], "blue": [[0, 1], [0, 3], [0, 2]]},
     "breach [shared]: edge Segment(a=0, b=1) in layers 0 and 1"),
    (ON_A_LINE, {"kind": "two-tree", "shared": None, "bound": 3,
                 "red": [[0, 1], [1, 2], [2, 3], [3, 4]], "blue": [[0, 3], [1, 4], [0, 2], [2, 4]]},
     "breach [over-twice]: 2 edges exceed twice the bottleneck"),
], ids=["planarity", "spanning", "tree", "length", "shared", "over-twice"])
def test_failing_verify_names_the_broken_promise(tmp_path, capsys, points, layers, line):
    """Exit 4 prints the first breach as one stderr line; stdout keeps its
    one summary line."""
    pts, path = tmp_path / "p.txt", tmp_path / "layers.json"
    pts.write_text(points)
    path.write_text(json.dumps(layers))
    capsys.readouterr()
    assert run("verify", str(pts), str(path)) == 4
    out, err = capsys.readouterr()
    assert out.startswith("plane=") and out.count("\n") == 1
    assert err == line + "\n"


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


def test_render_grid_bytes_pinned(tmp_path):
    """`render --grid` keeps its bytes: the grid lines of x, then those of
    y, over the layers, on a k=1 file and on the same file with betaSq a
    hundredth, whose grid of twenty lines a side the picture's edges cut."""
    pts, layers, fine = tmp_path / "p.txt", tmp_path / "l.json", tmp_path / "fine.json"
    assert run("gen", "--kind", "uniform", "--n", "300", "--seed", "4", "--out", str(pts)) == 0
    assert run("build", str(pts), "--mode", "distributed", "--k", "1", "--out", str(layers)) == 0
    d = json.loads(layers.read_text())
    q = Fraction(d["betaSq"]) / 100
    d["betaSq"] = f"{q.numerator}/{q.denominator}"
    fine.write_text(json.dumps(d))
    got = []
    for f in (layers, fine):
        svg = tmp_path / f"{f.stem}.svg"
        assert run("render", str(pts), str(f), "--grid", "--out", str(svg)) == 0
        got.append(hashlib.sha256(svg.read_bytes()).hexdigest())
    assert got == ["4884481c36dfdd9837a8fe92ca07f2b0629911f4890f9e7c8942e5a5ca9c290a",
                   "d0ceff4784743d4e765a8850670404f4dc3d26a55c4db623ec9ee96977fed4ae"]


def test_render_grid_needs_a_distributed_file(tmp_path, capsys):
    """The grid is the distributed build's bucketing, which a two-tree file
    or a bare layers file does not record: `render --grid` on one is a usage
    error that writes no picture, as `build` rejects a `--beta` its mode
    ignores.  Without `--grid` the same files render."""
    pts, tt, bare = tmp_path / "l.txt", tmp_path / "lt.json", tmp_path / "bare.json"
    assert run("gen", "--kind", "line", "--n", "100", "--out", str(pts)) == 0
    assert run("build", str(pts), "--mode", "two-tree", "--out", str(tt)) == 0
    data = json.loads(tt.read_text())
    bare.write_text(json.dumps({"layers": [data["red"], data["blue"]]}))
    svg = tmp_path / "g.svg"
    for layers in (tt, bare):
        capsys.readouterr()
        assert run("render", str(pts), str(layers), "--grid", "--out", str(svg)) == 2
        assert capsys.readouterr().err == (
            f"usage error: {layers}: --grid applies to distributed layers files only\n")
        assert not svg.exists()
        assert run("render", str(pts), str(layers), "--out", str(svg)) == 0
        svg.unlink()

@pytest.mark.parametrize(
    "beta_sq, message",
    [("-1/1", "'betaSq' must be positive, got '-1/1'"),
     ("0/1", "'betaSq' must be positive, got '0/1'"),
     (f"{10**700}/1", "the grid's cell side 6*k*sqrt(betaSq) is too large for a float"),
     (f"{10**400}/1", None)],
    ids=["negative", "zero", "huge", "square-beyond-float"],
)
def test_malformed_beta_sq_is_a_usage_error(tmp_path, capsys, beta_sq, message):
    """A betaSq of zero or below fails `verify` and `render --grid` with exit
    2, as one whose cell side 6*k*sqrt(betaSq) is too large for a float
    fails `render --grid`; `stats` ignores betaSq.  A betaSq beyond float
    range whose cell side is a float (10^400: 6e200) renders its grid."""
    pts, layers = tmp_path / "p.txt", tmp_path / "l.json"
    assert run("gen", "--kind", "uniform", "--n", "300", "--seed", "1", "--out", str(pts)) == 0
    assert run("build", str(pts), "--mode", "distributed", "--k", "1", "--out", str(layers)) == 0
    data = json.loads(layers.read_text())
    data["betaSq"] = beta_sq
    layers.write_text(json.dumps(data))
    capsys.readouterr()
    svg = tmp_path / "x.svg"
    render = ["render", str(pts), str(layers), "--grid", "--out", str(svg)]
    positive = message is None or "float" in message
    for argv, code in ((["verify", str(pts), str(layers)], 0 if positive else 2),
                       (render, 2 if message else 0), (["stats", str(pts), str(layers)], 0)):
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert err == (f"usage error: layers file: {message}\n" if code else "")
    assert svg.exists() == (message is None)
    if message is None:
        assert "#cccccc" in svg.read_text()


@pytest.mark.parametrize("exponent, side", [(300, "6e-150"), (400, "6e-200"), (700, "0")],
                         ids=["tiny", "square-below-float", "underflow"])
def test_render_grid_finer_than_a_pixel_is_a_usage_error(tmp_path, exponent, side):
    """A betaSq so small that the grid would draw more lines than the SVG is
    wide fails `render --grid` with exit 2 at once, also when betaSq is
    below float range (10^-400: its cell side 6e-200 is a float) and when
    the cell side underflows to 0.0; the same file renders without
    `--grid`.  The render
    runs in a subprocess with a timeout, since drawing such a grid line by
    line would not finish."""
    pts, layers = tmp_path / "p.txt", tmp_path / "l.json"
    assert run("gen", "--kind", "uniform", "--n", "300", "--seed", "1", "--out", str(pts)) == 0
    assert run("build", str(pts), "--mode", "distributed", "--k", "1", "--out", str(layers)) == 0
    data = json.loads(layers.read_text())
    data["betaSq"] = f"1/{10**exponent}"
    layers.write_text(json.dumps(data))
    svg = tmp_path / "x.svg"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plane_layers.cli", "render", str(pts), str(layers), "--grid",
         "--out", str(svg)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == (f"usage error: the grid's cell side {side} draws more "
                           "lines than the 800-pixel picture is wide\n")
    assert not svg.exists()
    assert run("render", str(pts), str(layers), "--out", str(svg)) == 0
    assert "#cccccc" not in svg.read_text()


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
        ({"kind": "two-tree", "shared": [0, 0], "red": [], "blue": []}, "'shared': edge [0, 0]"),
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


@pytest.mark.parametrize(
    "content, message",
    [
        ("{not json", "not a JSON layers file: Expecting property name enclosed in "
                      "double quotes: line 1 column 2 (char 1)"),
        ("[]", "expected a JSON object"),
        (json.dumps({"n": 4, "layers": [[[0, 1]]]}), "'n' is 4 but the point file has 5 points"),
        (json.dumps({"n": "5", "layers": [[[0, 1]]]}),
         "'n' is '5' but the point file has 5 points"),
        (json.dumps({"n": 5.0, "layers": [[[0, 1]]]}),
         "'n' is 5.0 but the point file has 5 points"),
        (json.dumps({"red": [[0, 1]]}), "a two-tree file needs both 'red' and 'blue'"),
        (json.dumps({"layers": {"0": []}}), "layers must be lists of [u, v] id pairs"),
        (json.dumps({"layers": [[[0, 1]], [7]]}), "layer 1: 7 is not a pair of point ids"),
        (json.dumps({"red": [[0, 1]], "blue": [[0, 1, 2]]}),
         "layer 1: [0, 1, 2] is not a pair of point ids"),
        (json.dumps({"layers": [[["0", "1"]]]}), "layer 0: ['0', '1'] is not a pair of point ids"),
        (json.dumps({"layers": [[[True, 1]]]}), "layer 0: [True, 1] is not a pair of point ids"),
        (json.dumps({"layers": [[[0, 1], [-1, 3]]]}),
         "layer 0: edge [-1, 3] has an id outside 0..4"),
        (json.dumps({"layers": [[[0, 5]]]}), "layer 0: edge [0, 5] has an id outside 0..4"),
        (json.dumps({"layers": [[[3, -1]]]}), "layer 0: edge [3, -1] has an id outside 0..4"),
        (json.dumps({"layers": [[[0, 1]], [[2, 2]]]}), "layer 1: edge [2, 2] is a self-loop"),
    ],
)
def test_layer_file_messages(tmp_path, capsys, content, message):
    """Each message of the layers-file reader, word for word."""
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n4 2 0\n")
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert run("stats", str(pts), str(bad)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: {bad}: {message}\n"


@pytest.mark.parametrize("mode", ["two-tree", "distributed"])
@pytest.mark.parametrize("command", ["verify", "stats", "render"])
def test_layers_file_of_another_point_count_is_a_usage_error(tmp_path, capsys, mode, command):
    """A layers file built on 60 points, read against the 80-point set of
    the same seed, exits 2 and writes nothing: neither a property
    violation from verify nor statistics of the wrong set."""
    small, large = tmp_path / "p60.txt", tmp_path / "p80.txt"
    assert run("gen", "--kind", "uniform", "--n", "60", "--seed", "1", "--out", str(small)) == 0
    assert run("gen", "--kind", "uniform", "--n", "80", "--seed", "1", "--out", str(large)) == 0
    layers = tmp_path / "l.json"
    assert run("build", str(small), "--mode", mode, "--k", "1", "--out", str(layers)) == 0
    out = tmp_path / "out"
    argv = [command, str(large), str(layers)]
    if command != "stats":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr() == (
        "", f"usage error: {layers}: 'n' is 60 but the point file has 80 points\n")
    assert not out.exists()
    argv[1] = str(small)
    assert run(*argv) == 0


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


def test_one_bottleneck_per_k_layer_cli_call(tmp_path, monkeypatch):
    """A k-layer build, with or without --beta, and its cold verify each
    compute the MST once, for its bottleneck.  Only the build without --beta
    takes a tree, the call that perfbench's call counts assert; the others
    read the bottleneck with none."""
    computations = count_mst_computations(monkeypatch)
    trees = count_emst_trees(monkeypatch)
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "60", "--seed", "4", "--out", str(pts)) == 0
    out = tmp_path / "layers.json"
    for extra in ([], ["--beta", "400"]):
        for command, tree_calls in ((["build", str(pts), "--mode", "distributed", "--k", "1",
                                      *extra, "--out", str(out)], [] if extra else [60]),
                                    (["verify", str(pts), str(out)], [])):
            computations.clear()
            trees.clear()
            assert run(*command) == 0
            assert (computations, trees) == ([60], tree_calls), command


def test_tree_and_bottleneck_computations_per_cli_command(tmp_path, monkeypatch):
    """Every command computes the MST once and reads the bottleneck off its
    last join.  Only the k-layer build without --beta takes the `Segment`
    tree as well, once; the two-tree build colours the join order itself,
    and a cold verify or stats takes none."""
    computations = count_mst_computations(monkeypatch)
    trees = count_emst_trees(monkeypatch)
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "60", "--seed", "4", "--out", str(pts)) == 0
    tt, dist = tmp_path / "tt.json", tmp_path / "layers.json"
    for command, tree_calls in (
            (["build", str(pts), "--mode", "two-tree", "--out", str(tt)], []),
            (["verify", str(pts), str(tt)], []),
            (["stats", str(pts), str(tt)], []),
            (["build", str(pts), "--mode", "distributed", "--k", "1", "--out", str(dist)], [60]),
            (["build", str(pts), "--mode", "distributed", "--k", "1", "--beta", "400",
              "--out", str(dist)], []),
            (["verify", str(pts), str(dist)], []),
            (["stats", str(pts), str(dist)], [])):
        computations.clear()
        trees.clear()
        assert run(*command) == 0
        assert (computations, trees) == ([60], tree_calls), command


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


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("text, message", [
    ("0 0 0\n1 1 0\n1 1 1\n2 0 1\n", "usage error: line 3: duplicate id 1"),
    (None, "file error: [Errno 2] No such file or directory: '{pts}'"),
], ids=["duplicate-id", "missing-file"])
def test_point_file_errors_exit_2(tmp_path, capsys, command, text, message):
    """A repeated id and a missing point file exit 2 and leave --out alone."""
    pts = tmp_path / "p.txt"
    if text is not None:
        pts.write_text(text)
    out = tmp_path / "tt.json"
    layers = json.dumps({"kind": "two-tree", "red": [], "blue": []})
    out.write_text(layers)
    argv = ["build", str(pts), "--out", str(out)] if command == "build" else [
        "verify", str(pts), str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err == message.format(pts=pts) + "\n"
    assert out.read_text() == layers


def _no_float_constants(text):
    """The JSON value of `text`, which must carry no Infinity or NaN."""
    def refuse(name):
        raise AssertionError(f"JSON carries {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("mode", ["two-tree", "distributed"])
def test_coordinates_whose_squares_are_beyond_float_range(tmp_path, capsys, mode):
    """With a point at x = 1e300, whose squared lengths are beyond float
    range, build, verify and stats exit 0 and write finite numbers only.
    With one at 1e400, whose lengths are beyond float range themselves,
    each exits 2 naming the length, as render does naming the coordinate."""
    pts = tmp_path / "p.txt"
    assert run("gen", "--kind", "uniform", "--n", "60", "--seed", "4", "--out", str(pts)) == 0
    big, huge = tmp_path / "big.txt", tmp_path / "huge.txt"
    big.write_text(pts.read_text() + "60 1e300 0\n")
    huge.write_text(pts.read_text() + "60 1e400 0\n")
    layers, report = tmp_path / "l.json", tmp_path / "r.json"
    capsys.readouterr()
    assert run("build", str(big), "--mode", mode, "--k", "1", "--out", str(layers)) == 0
    assert run("verify", str(big), str(layers), "--out", str(report)) == 0
    assert run("stats", str(big), str(layers)) == 0
    out = capsys.readouterr().out
    _no_float_constants(layers.read_text())
    assert _no_float_constants(report.read_text())["overallMaxRatio"] == 1.0
    assert _no_float_constants(out[out.index("{"):])["mstBottleneck"] == 1e300
    for argv, message in (
            (["build", str(huge), "--mode", mode, "--k", "1", "--out", str(tmp_path / "h.json")],
             "the longest edge of layer 0 is too large for a float"),
            (["verify", str(huge), str(layers)], "the longest edge of layer 0 is too large for a float"),
            (["stats", str(huge), str(layers)], "the MST bottleneck is too large for a float"),
            (["render", str(huge), str(layers), "--out", str(tmp_path / "h.svg")],
             "a coordinate is too large for a float")):
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "h.json").exists() and not (tmp_path / "h.svg").exists()


def test_exponents_too_large_to_build_are_usage_errors(tmp_path):
    """1e999999999 would make Fraction build a power of ten of a billion
    digits, minutes and gigabytes: build and verify exit 2 at once, and so
    does `PointSet` on the string; a zero mantissa reads as 0.  The number
    options --beta, --perturb and gen's --eps read their text the same way,
    and exit 2 naming the option with no output file.  Each runs in a
    subprocess with a timeout, so a regression fails instead of hanging."""
    pts, layers = tmp_path / "p.txt", tmp_path / "tt.json"
    pts.write_text("0 0 0\n1 1 0\n2 1 1e999999999\n3 0 1\n")
    layers.write_text(json.dumps({"kind": "two-tree", "red": [], "blue": []}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    message = ("exponent 999999999 of '1e999999999' needs a power of ten of more than "
               f"{10 * sys.get_int_max_str_digits()} digits, ten times "
               "sys.get_int_max_str_digits()")
    out = tmp_path / "out.json"
    for argv in (["build", str(pts), "--out", str(out)],
                 ["verify", str(pts), str(layers)]):
        proc = subprocess.run([sys.executable, "-m", "plane_layers.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stderr) == (2, f"usage error: line 3: {message}\n")
    square = tmp_path / "sq.txt"
    square.write_text("0 0 0\n1 1 0\n2 1 1\n3 0 1\n")
    for flag, value, argv in (
            ("--beta", "1e99999999", ["build", str(square), "--mode", "distributed"]),
            ("--perturb", "1e-99999999", ["build", str(square)]),
            ("--eps", "1e-99999999", ["gen", "--kind", "line", "--n", "10"])):
        proc = subprocess.run([sys.executable, "-m", "plane_layers.cli", *argv, flag, value,
                               "--out", str(out)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stderr) == (
            2, f"usage error: {flag} must be a number, got {value!r}\n")
        assert not out.exists()
    script = ("from plane_layers.geometry import PointSet, read_coord\n"
              "assert read_coord('-0.0e-999999999') == (0, 1)\n"
              "try:\n"
              "    PointSet([('0', '0'), ('1', '1E+999999999')])\n"
              "except Exception as exc:\n"
              "    print(type(exc).__name__, exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stdout == "UsageError point 1: invalid coordinate '1E+999999999'\n", proc.stderr


def test_library_epsilon_with_huge_exponent_is_a_usage_error():
    """A string epsilon given to the library is read as a coordinate is, so
    1e-99999999 fails at once instead of building a power of ten of a
    hundred million digits.  Run in a subprocess with a timeout, so a
    regression fails instead of hanging."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    script = ("from plane_layers.geometry import PointSet\n"
              "from plane_layers.verify import gen_line_instance\n"
              "for make in (lambda: gen_line_instance(5, '1e-99999999'),\n"
              "             lambda: PointSet([(0, 0), (1, 1)]).perturbed('1e-99999999')):\n"
              "    try:\n"
              "        make()\n"
              "    except Exception as exc:\n"
              "        print(type(exc).__name__, exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stdout == ("UsageError epsilon must be a number, got '1e-99999999'\n"
                           "UsageError eps must be a number, got '1e-99999999'\n"), proc.stderr


def test_library_numbers_with_huge_exponents_are_usage_errors():
    """A beta, a betaSq and a string coordinate among numbers are read as a
    point file's coordinates are, so an exponent too large to build fails at
    once.  Run in a subprocess with a timeout, as above."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    script = ("from plane_layers.distributed import build_k_layers, grid_partition\n"
              "from plane_layers.geometry import PointSet\n"
              "ps = PointSet([(i, i * i) for i in range(9)])\n"
              "for make in (lambda: build_k_layers(ps, 1, '1e99999999'),\n"
              "             lambda: grid_partition(ps, 1, '1e99999999'),\n"
              "             lambda: PointSet([(0, 0), (1, '1e999999999')])):\n"
              "    try:\n"
              "        make()\n"
              "    except Exception as exc:\n"
              "        print(type(exc).__name__, exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stdout == ("UsageError beta must be a number, got '1e99999999'\n"
                           "UsageError beta_sq must be a number, got '1e99999999'\n"
                           "UsageError point 1: invalid coordinate '1e999999999'\n"), proc.stderr


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
