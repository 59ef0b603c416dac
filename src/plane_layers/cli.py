"""Command-line front end: gen, build, verify, render, stats.

Exit codes: 0 ok, 2 usage, 3 precondition, 4 property violation, 5 internal
assertion (a reproducer dump is written and its path printed).

Layers files, `verify --out` reports and `stats` output are written as
`json.dumps(value, indent=2, sort_keys=True)` would write them, plus a final
newline in files; `_json_text` produces that text directly.  A layers file
records the point count `n`, and reading it against a point file of another
size is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain

from .centralized import build_two_disjoint_trees
from .distributed import build_k_layers, grid_cell_side
from .errors import (
    InternalAssertionError,
    PreconditionError,
    UsageError,
    write_dump,
)
from .geometry import PointSet, Segment, float_sqrt, read_number
from .mst import bottleneck_length, bottleneck_sq
from .render import render_svg
from .verify import Guarantee, count_layers, gen_line_instance, verify_layers


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_points(path: str) -> PointSet:
    return PointSet.from_text(_read(path))


def _json_text(value, newline: str = "\n") -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`; `newline`
    is the line break plus the indent of the level `value` sits at.

    Each row of a list of lists of plain ints, such as a layer's edges,
    fills one `%d` template per row width; a bool is not a plain int, so a
    row holding one takes the general path and prints `true`.  Every other
    scalar and every key is left to `json.dumps`.  Keys must be str: json
    would convert other keys and sort them after converting, which this
    writer does not copy."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            items.append(json.dumps(key) + ": " + _json_text(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) <= {list, tuple} and all(value) and set(
            map(type, chain.from_iterable(value))
        ) == {int}:
            # rows of plain ints, such as the edges of a layer
            start, sep, end = "[" + inner + "  ", "," + inner + "  ", inner + "]"
            widths = list(map(len, value))
            template = {w: start + sep.join(["%d"] * w) + end for w in set(widths)}
            items = map(str.__mod__, map(template.__getitem__, widths), map(tuple, value))
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def _dump_json(path: str, payload: dict) -> None:
    _write(path, _json_text(payload) + "\n")


def _load_layers_file(path: str, n: int) -> tuple[dict, list[list[Segment]]]:
    """Read a layers file against a set of n points: a recorded 'n' must be
    n, and every edge a pair of distinct ids in 0..n-1, checked entry by
    entry in one pass; anything else is a usage error."""
    try:
        data = json.loads(_read(path))
    except ValueError as exc:
        raise UsageError(f"{path}: not a JSON layers file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    if "n" in data and (type(data["n"]) is not int or data["n"] != n):
        raise UsageError(f"{path}: 'n' is {data['n']!r} but the point file has {n} points")
    if ("red" in data) != ("blue" in data):
        raise UsageError(f"{path}: a two-tree file needs both 'red' and 'blue'")
    if "red" in data:
        layers = [data["red"], data["blue"]]
    else:
        layers = data.get("layers", [])
    if not isinstance(layers, list) or not all(isinstance(l, list) for l in layers):
        raise UsageError(f"{path}: layers must be lists of [u, v] id pairs")
    return data, [_edges(layer, n, f"{path}: layer {j}") for j, layer in enumerate(layers)]


def _edges(entries: list, n: int, where: str) -> list[Segment]:
    """The Segments of [u, v] entries of distinct ids in 0..n-1, else a usage error at `where`."""
    edges = []
    for entry in entries:
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is int and type(entry[1]) is int):
            raise UsageError(f"{where}: {entry!r} is not a pair of point ids")
        u, v = entry
        if not (0 <= u < n and 0 <= v < n):
            raise UsageError(f"{where}: edge {entry} has an id outside 0..{n - 1}")
        if u == v:
            raise UsageError(f"{where}: edge {entry} is a self-loop")
        edges.append(Segment(u, v))
    return edges


def _positive_int(meta: dict, key: str, default=None) -> int:
    value = meta.get(key, default)
    if type(value) is not int or value < 1:
        raise UsageError(f"layers file: {key!r} must be a positive integer, got {value!r}")
    return value


def _beta_sq(meta: dict) -> Fraction:
    text = meta.get("betaSq")
    try:
        num, den = map(int, text.split("/"))
        value = Fraction(num, den)
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"layers file: 'betaSq' must be 'num/den', got {text!r}") from exc
    if value <= 0:
        raise UsageError(f"layers file: 'betaSq' must be positive, got {text!r}")
    return value


def cmd_gen(args) -> int:
    if args.n < 1:
        raise UsageError("n must be >= 1")
    rng = random.Random(args.seed)
    if args.kind == "uniform":
        pts = _distinct_points(args.n, lambda: (rng.uniform(0, 1000), rng.uniform(0, 1000)))
    elif args.kind == "clusters":
        if args.clusters < 1:
            raise UsageError("--clusters must be >= 1")
        if not (math.isfinite(args.sigma) and args.sigma > 0):
            raise UsageError(f"--sigma must be finite and positive, got {args.sigma!r}")
        centers = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(args.clusters)]
        def sample():
            cx, cy = centers[rng.randrange(len(centers))]
            return (rng.gauss(cx, args.sigma), rng.gauss(cy, args.sigma))
        pts = _distinct_points(args.n, sample)
    else:  # line
        if args.n < 2:
            raise UsageError("line instances need n >= 2")
        _write(args.out, gen_line_instance(args.n, read_number(args.eps, "--eps")).to_text())
        return 0
    ps = PointSet(pts)
    _write(args.out, ps.to_text())
    return 0


# consecutive draws that bring no new point before gen gives up
_MAX_STALE_DRAWS = 10_000


def _distinct_points(n, sample):
    """n distinct samples rounded to 6 decimals, in draw order."""
    pts: list[tuple[str, str]] = []
    seen = set()
    stale = 0
    while len(pts) < n:
        x, y = sample()
        key = (f"{x:.6f}", f"{y:.6f}")
        if key in seen:
            stale += 1
            if stale == _MAX_STALE_DRAWS:
                raise UsageError(
                    f"found only {len(pts)} distinct points at 6 decimals, not n={n}"
                )
            continue
        stale = 0
        seen.add(key)
        pts.append(key)
    return pts


def cmd_build(args) -> int:
    ps = _load_points(args.input)
    beta = None
    if args.beta is not None and (args.beta or args.mode == "distributed"):
        beta = read_number(args.beta, "--beta")  # a malformed number before a misplaced one
    if args.mode == "two-tree" and args.beta is not None:
        raise UsageError("--beta applies to --mode distributed only")
    if args.perturb is not None:
        eps = read_number(args.perturb, "--perturb") if args.perturb else None
        ps = ps.perturbed(eps)
    if args.mode == "two-tree":
        trees = build_two_disjoint_trees(ps)
        payload = trees.to_json_dict()
        payload["n"] = len(ps)
        _dump_json(args.out, payload)
        max_ratio = max(trees.max_ratio_red, trees.max_ratio_blue)
        print(f"layers=2 maxRatio={max_ratio:.6f} bound={trees.bound}")
        return 0
    # build_k_layers itself rejects a beta of 0 or below
    if beta is not None and beta > 0 and len(ps) >= 2 and beta * beta < bottleneck_sq(ps):
        raise PreconditionError(
            f"--beta {args.beta} is below the MST bottleneck {bottleneck_length(ps):.6f}"
        )
    ls = build_k_layers(ps, args.k, beta)
    payload = ls.to_json_dict()
    payload["n"] = len(ps)
    _dump_json(args.out, payload)
    ratio_sq = max(ls.longest_sq) / bottleneck_sq(ps)  # kept on ps by the build or the check
    max_ratio = float_sqrt(ratio_sq.numerator, ratio_sq.denominator, "the largest ratio")
    bound = 12 * math.sqrt(2) * args.k
    print(f"layers={ls.k} maxRatio={max_ratio:.6f} bound={bound:.6f}")
    return 0


def cmd_verify(args) -> int:
    ps = _load_points(args.points)
    meta, layers = _load_layers_file(args.layers, len(ps))
    if not layers:
        raise UsageError(f"{args.layers}: the file has no layers")
    guarantee = Guarantee()
    if meta.get("kind") == "two-tree":
        shared = meta.get("shared")  # null, or the one edge red and blue may share
        shared = None if shared is None else _edges([shared], len(ps), "layers file: 'shared'")[0]
        guarantee = Guarantee.two_tree(_positive_int(meta, "bound", default=3), shared)
    elif meta.get("kind") == "distributed":
        k = _positive_int(meta, "k")
        if k != len(layers):
            raise UsageError(f"layers file: 'k' is {k} but the file has {len(layers)} layers")
        guarantee = Guarantee.k_layers(k, _beta_sq(meta))
    report = verify_layers(layers, ps, flag_overlaps=args.flag_overlaps)
    if args.out:  # only once the file's metadata has passed its checks
        _dump_json(args.out, report.to_json_dict())
    print(f"plane={report.all_plane} spanning={report.all_spanning} "
          f"disjoint={report.unshared_repeat(guarantee.shared) is None} "
          f"maxRatio={report.overall_max_ratio:.6f}")
    breach = report.breach(guarantee)
    if breach is None:
        return 0
    prop, _, message = breach
    print(f"breach [{prop}]: {message}", file=sys.stderr)
    return 4


def cmd_render(args) -> int:
    ps = _load_points(args.points)
    meta, layers = _load_layers_file(args.layers, len(ps))
    cell = None
    if args.grid:
        if meta.get("kind") != "distributed":
            raise UsageError(f"{args.layers}: --grid applies to distributed layers files only")
        k, beta_sq = _positive_int(meta, "k"), _beta_sq(meta)
        try:
            cell = grid_cell_side(k, beta_sq)
        except UsageError as err:
            raise UsageError(f"layers file: {err}") from None
    svg = render_svg(ps, layers, cell_side=cell)
    _write(args.out, svg)
    return 0


def cmd_stats(args) -> int:
    ps = _load_points(args.points)
    meta, layers = _load_layers_file(args.layers, len(ps))
    stats = {
        "n": len(ps),
        "k": len(layers),
        "mstBottleneck": bottleneck_length(ps) if len(ps) >= 2 else 0.0,
        "layers": [
            {"edges": c.edges, "bottleneck": c.length}
            for c in count_layers(layers, ps).per_layer
        ],
    }
    print(_json_text(stats))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plane-layers",
        description="Edge-disjoint plane spanning layers with bounded bottleneck edge.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a point set file")
    g.add_argument("--kind", choices=["uniform", "clusters", "line"], default="uniform")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--clusters", type=int, default=3)
    g.add_argument("--sigma", type=float, default=30.0)
    g.add_argument("--eps", default="0.001", help="line-kind perturbation amplitude")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="construct layers from a point file")
    b.add_argument("input")
    b.add_argument("--mode", choices=["two-tree", "distributed"], default="two-tree")
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--beta", default=None,
                   help="override beta, --mode distributed only (default: MST bottleneck)")
    b.add_argument(
        "--perturb",
        nargs="?",
        const="",
        default=None,
        help="apply the deterministic perturbation first (optional epsilon)",
    )
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify a layers file against its points")
    v.add_argument("points")
    v.add_argument("layers")
    v.add_argument("--out", default=None, help="write the JSON report here")
    v.add_argument("--flag-overlaps", action="store_true",
                   help="also report collinear overlapping same-layer pairs")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("render", help="render points and layers to SVG")
    r.add_argument("points")
    r.add_argument("layers")
    r.add_argument("--grid", action="store_true",
                   help="overlay the bucketing grid (distributed layers files only)")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)

    s = sub.add_parser("stats", help="summarize a layers file")
    s.add_argument("points")
    s.add_argument("layers")
    s.set_defaults(func=cmd_stats)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except InternalAssertionError as exc:
        path = write_dump(exc)
        print(f"internal assertion: {exc}\nreproducer dump: {path}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
