"""Seeded inputs, timed operations and correctness gates of each workload.

Every workload calls the package through module attributes
(`mods.centralized.build_two_disjoint_trees`, `mods.cli.main`), so a tracer
that patches those attributes sees the top span of each operation.

An operation fails when it raises, when a CLI call exits non-zero, or when
its output fails the workload's exact check.  Failures are counted, not
raised: the run goes on and reports them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from calibrate import Calibration


@dataclass
class Instance:
    name: str
    n: int
    points_path: Path
    ps: object = None  # PointSet, library workloads only
    sample: tuple[int, ...] = ()  # points to certify (k layers only)


@dataclass
class Recorder:
    """Timings, point counts, failures and output digests of one pass.

    `times` holds each call's wall time scaled to the reference host speed
    (see calibrate.py), `wall` the unscaled wall time."""

    cal: Calibration
    times: dict[str, list[float]] = field(
        default_factory=lambda: {"build": [], "verify": [], "certify": []}
    )
    wall: dict[str, list[float]] = field(
        default_factory=lambda: {"build": [], "verify": [], "certify": []}
    )
    points: int = 0  # summed n over build and verify calls
    point_seconds: float = 0.0  # summed scaled seconds of those calls
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def timed(self, kind: str, n: int, call):
        """Run one operation; return (True, result), or (False, None) if it raised."""
        self.attempted += 1
        try:
            result, wall, scaled = self.cal.timed(call)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return False, None
        self.wall[kind].append(wall)
        self.times[kind].append(scaled)
        if kind != "certify":
            self.points += n
            self.point_seconds += scaled
        return True, result

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {message}")

    def check(self, kind: str, inst: "Instance", problems: list[str]) -> None:
        """Count one failed operation if its output showed any problem."""
        if problems:
            self.fail(kind, f"{inst.name}: {'; '.join(problems)}")

    def digest(self, inst: Instance, parts: list[bytes]) -> None:
        h = hashlib.sha256()
        for part in parts:
            h.update(hashlib.sha256(part).digest())
        self.digests.setdefault(inst.name, h.hexdigest())


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _run_cli(mods, argv: list[str]) -> tuple[int, str]:
    """In-process CLI call with its console output captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def _mst_bottleneck_sq(mods, ps) -> Fraction:
    return mods.mst.bottleneck(mods.mst.build_emst(ps), ps).length_sq


def _uniform_points(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """Uniform points in [0, 1000]^2 with 6 decimals, distinct by construction."""
    pts: set[tuple[str, str]] = set()
    while len(pts) < n:
        pts.add((f"{rng.uniform(0, 1000):.6f}", f"{rng.uniform(0, 1000):.6f}"))
    return sorted(pts)


def lattice_points(rng: random.Random, side: int, spacing: int, jitter: int):
    """A side x side lattice, each coordinate moved by up to +-jitter."""
    return [
        (f"{i * spacing + rng.uniform(-jitter, jitter):.6f}",
         f"{j * spacing + rng.uniform(-jitter, jitter):.6f}")
        for i in range(side)
        for j in range(side)
    ]


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


class Workload:
    name = ""
    interface = ""  # "library" or "cli"
    # Instances per minute of `--seconds`.  It is a constant, so the seed and
    # `--seconds` alone fix which instances a run covers.  The two-tree rates
    # are about what the seed commit runs in that time on the 2-CPU reference
    # host; k layers run more, as their longer calls scatter more and their
    # build median needs fifteen or more of them to hold within 5%.
    per_minute = 0
    trace_instances = 0  # fixed instance count of a traced run, so call counts repeat
    params: dict = {}

    def count(self, seconds: float) -> int:
        return max(1, round(seconds * self.per_minute / 60))

    def generate(self, mods, seed: int, workdir: Path, count: int) -> list[Instance]:
        raise NotImplementedError

    def run(self, mods, inst: Instance, rec: Recorder, paused) -> None:
        """Time one instance's operations and gate their outputs.

        `paused` is a context manager under which the gate's own calls into
        the package run, so a tracer does not count them."""
        raise NotImplementedError


def _layer_problems(ps, report, layers, limit_sq) -> list[str]:
    """Library build gate: plane, spanning, pairwise disjoint, exact length."""
    longest = max((ps.seg_len_sq(e) for layer in layers for e in layer), default=0)
    checks = [
        (report.all_plane, "a layer is not plane"),
        (report.all_spanning, "a layer is not spanning"),
        (report.pairwise_disjoint, "layers share an edge"),
        (longest <= limit_sq, "an edge exceeds the length bound"),
    ]
    return [message for ok, message in checks if not ok]


class TwoTreeUniform(Workload):
    name = "two_tree_uniform"
    interface = "library"
    per_minute = 41
    trace_instances = 8
    params = {"n": 500, "extent": 1000, "decimals": 6}

    def generate(self, mods, seed, workdir, count):
        out = []
        for i in range(count):
            ps = mods.geometry.PointSet(_uniform_points(_instance_rng(seed, i), self.params["n"]))
            path = workdir / f"{self.name}-{i}.txt"
            path.write_text(ps.to_text())
            out.append(Instance(f"{self.name}-{i}", len(ps), path, ps))
        return out

    def run(self, mods, inst, rec, paused):
        ps = inst.ps
        ok, trees = rec.timed(
            "build", inst.n, lambda: mods.centralized.build_two_disjoint_trees(ps)
        )
        if not ok:
            return
        layers = trees.layers()
        ok, report = rec.timed("verify", inst.n, lambda: mods.verify.verify_layers(layers, ps))
        if not ok:
            return
        with paused():
            be_sq = _mst_bottleneck_sq(mods, ps)
        # uniform points have a flat vertex, whose branch promises ratio <= 2:
        # longest^2 <= 4 * beta^2, exactly
        problems = _layer_problems(ps, report, layers, 4 * be_sq)
        if trees.bound != 2:
            problems.append(f"bound {trees.bound}, not the flat branch's 2")
        rec.check("build", inst, problems)
        rec.digest(inst, [_json_bytes(trees.to_json_dict()), _json_bytes(report.to_json_dict())])


class CliWorkload(Workload):
    interface = "cli"
    build_args: list[str] = []

    def gen_args(self, seed: int, index: int) -> list[str]:
        raise NotImplementedError

    def generate(self, mods, seed, workdir, count):
        out = []
        for i in range(count):
            path = workdir / f"{self.name}-{i}.txt"
            argv = ["gen", *self.gen_args(seed, i), "--out", str(path)]
            code, text = _run_cli(mods, argv)
            if code != 0:
                raise RuntimeError(f"gen {argv} exited {code}: {text}")
            n = sum(1 for line in path.read_text().splitlines() if line.strip())
            out.append(Instance(f"{self.name}-{i}", n, path))
        return out

    def run(self, mods, inst, rec, paused):
        pts = str(inst.points_path)
        layers = inst.points_path.with_suffix(".layers.json")
        report = inst.points_path.with_suffix(".report.json")
        ok, result = rec.timed(
            "build", inst.n,
            lambda: _run_cli(mods, ["build", pts, *self.build_args, "--out", str(layers)]),
        )
        if not ok:
            return
        code, build_text = result
        rec.check("build", inst, [f"build exited {code}: {build_text.strip()}"] if code else [])
        if code != 0:
            return
        ok, result = rec.timed(
            "verify", inst.n,
            lambda: _run_cli(mods, ["verify", pts, str(layers), "--out", str(report)]),
        )
        if not ok:
            return
        code, verify_text = result
        rec.check("verify", inst, [f"verify exited {code}: {verify_text.strip()}"] if code else [])
        rec.digest(inst, [layers.read_bytes(), report.read_bytes(),
                          build_text.encode(), verify_text.encode()])


class TwoTreeLineCli(CliWorkload):
    name = "two_tree_line_cli"
    per_minute = 38
    trace_instances = 8
    params = {"kind": "line", "eps": "0.001", "n": 500, "n_spread": 10}
    build_args = ["--mode", "two-tree"]

    def gen_args(self, seed, index):
        p = self.params
        n = _instance_rng(seed, index).randint(p["n"] - p["n_spread"], p["n"] + p["n_spread"])
        return ["--kind", "line", "--eps", p["eps"], "--n", str(n)]


class KLayersClustersCli(CliWorkload):
    name = "k_layers_clusters_cli"
    per_minute = 200
    trace_instances = 20
    params = {"kind": "clusters", "n": 100, "clusters": 3, "sigma": 30, "k": 2}
    build_args = ["--mode", "distributed", "--k", str(params["k"])]

    def gen_args(self, seed, index):
        gen_seed = _instance_rng(seed, index).randrange(2**31)
        p = self.params
        return ["--kind", "clusters", "--n", str(p["n"]), "--clusters", str(p["clusters"]),
                "--sigma", str(p["sigma"]), "--seed", str(gen_seed)]


class KLayersLibrary(Workload):
    """build_k_layers, verify_layers and seeded locality certificates."""

    interface = "library"

    def points(self, rng: random.Random) -> list[tuple[str, str]]:
        raise NotImplementedError

    def generate(self, mods, seed, workdir, count):
        out = []
        for i in range(count):
            rng = _instance_rng(seed, i)
            ps = mods.geometry.PointSet(self.points(rng))
            path = workdir / f"{self.name}-{i}.txt"
            path.write_text(ps.to_text())
            sample = tuple(rng.sample(range(len(ps)), self.params["certify"]))
            out.append(Instance(f"{self.name}-{i}", len(ps), path, ps, sample))
        return out

    def run(self, mods, inst, rec, paused):
        ps, k = inst.ps, self.params["k"]
        ok, ls = rec.timed("build", inst.n, lambda: mods.distributed.build_k_layers(ps, k))
        if not ok:
            return
        layers = [list(layer) for layer in ls.layers]
        ok, report = rec.timed("verify", inst.n, lambda: mods.verify.verify_layers(layers, ps))
        if not ok:
            return
        with paused():
            be_sq = _mst_bottleneck_sq(mods, ps)
        # (12 * sqrt(2) * k * beta)^2 = 288 k^2 beta^2
        problems = _layer_problems(ps, report, layers, 288 * k * k * be_sq)
        if ls.beta_sq != be_sq:
            problems.append("beta is not the MST bottleneck")
        rec.check("build", inst, problems)
        parts = [_json_bytes(ls.to_json_dict()), _json_bytes(report.to_json_dict())]
        for p in inst.sample:
            ok, cert = rec.timed(
                "certify", inst.n,
                lambda: mods.distributed.locality_certificate(ps, k, p, layer_set=ls),
            )
            if ok:
                rec.check("certify", inst, [] if cert.ok else [f"certificate of {p} not ok"])
                parts.append(repr((cert.point, [[e.as_pair() for e in layer]
                                                for layer in cert.layer_edges])).encode())
        rec.digest(inst, parts)


class KLayersUniform(KLayersLibrary):
    name = "k_layers_uniform"
    per_minute = 60
    trace_instances = 8
    params = {"n": 300, "extent": 1000, "decimals": 6, "k": 1, "certify": 1}

    def points(self, rng):
        return _uniform_points(rng, self.params["n"])


class KLayersLattice(KLayersLibrary):
    """Not in BENCHMARK.json: on some of these lattices the seed commit's
    build_k_layers returns a crossing layer (see README.md)."""

    name = "k_layers_lattice"
    per_minute = 34
    trace_instances = 6
    params = {"side": 22, "spacing": 10, "jitter": 3, "decimals": 6, "k": 1, "certify": 1}

    def points(self, rng):
        p = self.params
        return lattice_points(rng, p["side"], p["spacing"], p["jitter"])


WORKLOADS = {w.name: w for w in (TwoTreeUniform(), TwoTreeLineCli(), KLayersUniform(),
                                 KLayersLattice(), KLayersClustersCli())}

# (metric name, module, attribute): the public stages the traced run times
SPANS = [
    ("geometry.parse", "geometry", "PointSet.from_text"),
    ("geometry.crossing_pairs", "geometry", "crossing_pairs"),
    ("mst.build_emst", "mst", "build_emst"),
    ("centralized.find_flat_vertex", "centralized", "find_flat_vertex"),
    ("centralized.disjoint_trees_flat", "centralized", "disjoint_trees_flat"),
    ("centralized.select_P", "centralized", "select_P"),
    ("centralized.disjoint_trees_pointed", "centralized", "disjoint_trees_pointed"),
    ("centralized.build_two_disjoint_trees", "centralized", "build_two_disjoint_trees"),
    ("distributed.grid_partition", "distributed", "grid_partition"),
    ("distributed.center_point", "distributed", "center_point"),
    ("distributed.tukey_depth", "distributed", "tukey_depth"),
    ("distributed.layers_in_box", "distributed", "layers_in_box"),
    ("distributed.connect_boxes", "distributed", "connect_boxes"),
    ("distributed.build_k_layers", "distributed", "build_k_layers"),
    ("distributed.locality_certificate", "distributed", "locality_certificate"),
    ("verify.verify_layers", "verify", "verify_layers"),
    ("cli.main", "cli", "main"),
    ("cli.cmd_build", "cli", "cmd_build"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
]
