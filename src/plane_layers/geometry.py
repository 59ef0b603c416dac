"""Exact planar primitives: orientation, proper crossing, hulls, angular order.

Each point set holds its coordinates exactly on one scaled integer grid
(scale: the lcm of the coordinates' denominators).  `read_coord` reads the
coordinate strings of point files and of `PointSet(...)`: plain decimals
straight onto integers, every other form through Fraction.  Mirroring and
printing work on the grid integers.  Every predicate in this module is
computed with integer or rational arithmetic and is never wrong due to
rounding.  Lengths are compared as squared grid integers and only leave the
exact world as squared rationals; square roots appear solely in reported
float values.  The one other float is the angle `angular_order` sorts on,
and an exact comparator pass certifies that order.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import atan2, tau
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import PreconditionError, UsageError

# Rational stand-in for 1/phi used by the deterministic perturbation.
PHI = Fraction("0.6180339887")


class Orientation(Enum):
    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


class Segment(tuple):
    """Undirected edge between two point ids, stored with a < b.

    A plain (a, b) tuple underneath, so hashing, equality and ordering run in
    C and agree with `as_pair()`; a Segment also equals the bare tuple.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a < b:
            return tuple.__new__(cls, (a, b))
        if a > b:
            return tuple.__new__(cls, (b, a))
        raise ValueError(f"degenerate segment {a}-{b}")

    a = property(itemgetter(0))
    b = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"Segment(a={self[0]!r}, b={self[1]!r})"

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def touches(self, v: int) -> bool:
        return v == self.a or v == self.b

    def shares_endpoint(self, s: "Segment") -> bool:
        return self.a == s.a or self.a == s.b or self.b == s.a or self.b == s.b

    def as_pair(self) -> tuple[int, int]:
        return tuple(self)


class PointSet:
    """Indexed planar points with exact pairwise-distinct coordinates.

    Internally all coordinates are scaled to a common integer grid; fast
    predicates run on the integer coordinates, exact rationals are exposed
    through :meth:`x` and :meth:`y`.  When every coordinate given to the
    constructor is a string, each is read by `read_coord`, as a point file's
    are; otherwise each goes through Fraction.  `to_text` prints a grid whose
    scale divides a power of ten from one multiplier.

    The grid never changes after construction, so `mst.build_emst` keeps the
    tree it computes in the private `_emst` attribute for later calls.
    """

    def __init__(self, coords: Sequence[tuple[Fraction | int | str, Fraction | int | str]]):
        if all(isinstance(c[0], str) and isinstance(c[1], str) for c in coords):
            self._place([read_coord(c[0]) for c in coords], [read_coord(c[1]) for c in coords])
            return
        xs = [Fraction(c[0]) for c in coords]
        ys = [Fraction(c[1]) for c in coords]
        self._place([(f.numerator, f.denominator) for f in xs],
                    [(f.numerator, f.denominator) for f in ys])

    def _place(self, xs: list[tuple[int, int]], ys: list[tuple[int, int]]) -> None:
        """Put reduced (numerator, denominator) coordinates on the grid whose
        scale is the lcm of all denominators."""
        scale = math.lcm(*{d for _, d in xs}, *{d for _, d in ys})
        self._scale = scale
        self._sx = [n * (scale // d) for n, d in xs]
        self._sy = [n * (scale // d) for n, d in ys]
        self._emst: tuple[Segment, ...] | None = None
        seen: dict[tuple[int, int], int] = {}
        for i, key in enumerate(zip(self._sx, self._sy)):
            if key in seen:
                raise PreconditionError(
                    f"points {seen[key]} and {i} share coordinates {self.x(i)}, {self.y(i)}"
                )
            seen[key] = i

    def __len__(self) -> int:
        return len(self._sx)

    @property
    def ids(self) -> range:
        return range(len(self._sx))

    @property
    def scale(self) -> int:
        return self._scale

    def scaled(self, i: int) -> tuple[int, int]:
        return self._sx[i], self._sy[i]

    @property
    def grid(self) -> tuple[list[int], list[int]]:
        """The grid x and y integers of all points, indexed by id: the point
        set's own lists, not copies, so callers must not modify them."""
        return self._sx, self._sy

    def x(self, i: int) -> Fraction:
        return Fraction(self._sx[i], self._scale)

    def y(self, i: int) -> Fraction:
        return Fraction(self._sy[i], self._scale)

    def offsets(
        self, ids: Iterable[int], cx: Fraction | int, cy: Fraction | int, den: int | None = None
    ) -> list[tuple[int, int]]:
        """Integer offsets of the points `ids` from a pivot, all multiplied by
        one positive common denominator.

        The pivot is the rational point (cx, cy); with `den` given it is
        (cx / den, cy / den) for integers cx, cy, so `offsets(ids,
        *ps.scaled(v), ps.scale)` gives the plain grid offsets from the point v.

        The common factor leaves every sign of a cross or dot product, every
        equality of rays and every comparison of squared lengths among the
        offsets as it is for the exact differences."""
        if den is None:
            den = math.lcm(cx.denominator, cy.denominator)
            cx = cx.numerator * (den // cx.denominator)
            cy = cy.numerator * (den // cy.denominator)
        common = math.lcm(self._scale, den)
        f, g = common // self._scale, common // den
        ox, oy = cx * g, cy * g
        sx, sy = self._sx, self._sy
        return [(sx[i] * f - ox, sy[i] * f - oy) for i in ids]

    def dist_sq(self, i: int, j: int) -> Fraction:
        dx = self._sx[i] - self._sx[j]
        dy = self._sy[i] - self._sy[j]
        return Fraction(dx * dx + dy * dy, self._scale * self._scale)

    def sdist_sq(self, i: int, j: int) -> int:
        """Squared distance on the internal integer grid (scale**2 units)."""
        dx = self._sx[i] - self._sx[j]
        dy = self._sy[i] - self._sy[j]
        return dx * dx + dy * dy

    def seg_len_sq(self, s: Segment) -> Fraction:
        return self.dist_sq(s.a, s.b)

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if not len(self):
            raise PreconditionError("bbox of empty point set")
        sc = self._scale
        return (
            Fraction(min(self._sx), sc),
            Fraction(min(self._sy), sc),
            Fraction(max(self._sx), sc),
            Fraction(max(self._sy), sc),
        )

    def reflected(self) -> "PointSet":
        """Mirror image across the x-axis (y -> -y) on the same grid; ids are
        preserved."""
        mirror = PointSet.__new__(PointSet)
        mirror._scale = self._scale
        mirror._sx = self._sx
        mirror._sy = [-y for y in self._sy]
        mirror._emst = None
        return mirror

    def perturbed(self, eps: Fraction | None = None) -> "PointSet":
        """Deterministic general-position perturbation: point i moves by
        eps*((i*PHI) mod 1, (i*PHI^2) mod 1).  Default eps is 1e-7 times the
        larger bbox side.

        This does not guarantee general position.  PHI is the rational
        0.6180339887, so both offsets are affine in i along any run of i
        where neither wraps, and evenly spaced collinear points of such a run
        stay on a common line: the n=60, eps=1/1000 line instance keeps 1244
        of its 1320 collinear triples.
        """
        if eps is None:
            minx, miny, maxx, maxy = self.bbox()
            extent = max(maxx - minx, maxy - miny, Fraction(1))
            eps = extent / 10**7
        else:
            eps = Fraction(eps)
        phi2 = PHI * PHI
        return PointSet(
            [
                (self.x(i) + eps * ((i * PHI) % 1), self.y(i) + eps * ((i * phi2) % 1))
                for i in self.ids
            ]
        )

    # --- point set file format: one `id x y` per line, `#` comments ---

    @classmethod
    def from_text(cls, text: str) -> "PointSet":
        rows: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise UsageError(f"line {lineno}: expected `id x y`, got {raw!r}")
            try:
                pid = int(parts[0])
                x, y = read_coord(parts[1]), read_coord(parts[2])
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"line {lineno}: {exc}") from exc
            if pid in rows:
                raise UsageError(f"line {lineno}: duplicate id {pid}")
            rows[pid] = (x, y)
        if not rows:
            raise UsageError("empty point file")
        n = len(rows)
        if sorted(rows) != list(range(n)):
            raise UsageError(f"ids must be contiguous 0..{n - 1}")
        ps = cls.__new__(cls)
        ps._place([rows[i][0] for i in range(n)], [rows[i][1] for i in range(n)])
        return ps

    def to_text(self) -> str:
        """One `id x y` line per point, each coordinate in its shortest exact
        form: an integer, a decimal, or `p/q` when no decimal is exact.

        When the scale divides 10**d, coordinate v is the integer v * (10**d
        / scale) over 10**d, printed from one divmod with the fraction's
        trailing zeros stripped; other scales reduce each coordinate."""
        scale = self._scale
        digits = _decimal_digits(scale)
        if digits is None:

            def fmt(v: int) -> str:
                g = math.gcd(v, scale)
                return _format_ratio(v // g, scale // g)

        else:
            # v / scale = v * mult / 10**digits: one multiplier for the grid
            mult, unit = 10**digits // scale, 10**digits

            def fmt(v: int) -> str:
                whole, rest = divmod(abs(v) * mult, unit)
                sign = "-" if v < 0 else ""
                if not rest:
                    return f"{sign}{whole}"
                return f"{sign}{whole}.{str(rest).rjust(digits, '0').rstrip('0')}"

        return "".join(
            f"{i} {fmt(x)} {fmt(y)}\n" for i, (x, y) in enumerate(zip(self._sx, self._sy))
        )


# int() applies its digit limit only above this many digits (the limit
# cannot be set lower), so shorter strings raise nothing that the Fraction
# path would not.
_SAFE_DIGITS = 640
_PLAIN_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?")


def read_coord(text: str) -> tuple[int, int]:
    """Exact value of a coordinate string as a reduced (numerator,
    denominator) pair, denominator positive.

    Plain ASCII decimals (`[-]digits[.digits]`) are read with int(); every
    other form (`p/q`, exponents, a leading `+`, `5.` or `.5`, underscores,
    surrounding spaces, non-ASCII digits, very long strings, malformed text)
    goes through Fraction, so values, errors and messages are Fraction's."""
    m = _PLAIN_DECIMAL.fullmatch(text)
    if m is None or len(text) > _SAFE_DIGITS:
        f = Fraction(text)
        return f.numerator, f.denominator
    whole, frac = m.groups()
    if frac is None:
        return int(whole), 1
    num, den = int(whole + frac), 10 ** len(frac)
    g = math.gcd(num, den)
    return num // g, den // g


def _decimal_digits(den: int) -> int | None:
    """The least d with den dividing 10**d, or None when den (> 0) has a
    prime factor other than 2 and 5."""
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def _format_ratio(num: int, den: int) -> str:
    """Exact text of the reduced fraction num / den (den > 0): decimal when
    den is 2^a*5^b, else p/q."""
    if den == 1:
        return str(num)
    digits = _decimal_digits(den)
    if digits is None:
        return f"{num}/{den}"
    scaled = num * 10**digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def cross_sign(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the cross product (b - a) x (c - a); works for int or Fraction."""
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def orientation_ids(ps: PointSet, a: int, b: int, c: int) -> Orientation:
    ax, ay = ps.scaled(a)
    bx, by = ps.scaled(b)
    cx, cy = ps.scaled(c)
    return Orientation(cross_sign(ax, ay, bx, by, cx, cy))


def properly_cross(s1: Segment, s2: Segment, ps: PointSet) -> bool:
    """True iff the open segments meet in exactly one point and share no
    endpoint.  Collinear overlaps and endpoint contacts count as non-crossing."""
    for v in (s1.a, s1.b, s2.a, s2.b):
        if v not in ps.ids:
            raise PreconditionError(f"segment endpoint {v} not in point set")
    if s1.shares_endpoint(s2):
        return False
    ax, ay = ps.scaled(s1.a)
    bx, by = ps.scaled(s1.b)
    cx, cy = ps.scaled(s2.a)
    dx, dy = ps.scaled(s2.b)
    return _proper_cross_scaled(ax, ay, bx, by, cx, cy, dx, dy)


def _proper_cross_scaled(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    # Bounding-box reject keeps the all-pairs planarity checks cheap.
    if min(ax, bx) > max(cx, dx) or min(cx, dx) > max(ax, bx):
        return False
    if min(ay, by) > max(cy, dy) or min(cy, dy) > max(ay, by):
        return False
    d1 = cross_sign(ax, ay, bx, by, cx, cy)
    d2 = cross_sign(ax, ay, bx, by, dx, dy)
    if d1 * d2 >= 0:
        return False
    d3 = cross_sign(cx, cy, dx, dy, ax, ay)
    d4 = cross_sign(cx, cy, dx, dy, bx, by)
    return d3 * d4 < 0


def has_crossing(edges: Sequence[Segment], ps: PointSet) -> bool:
    """True iff some pair in the edge list properly crosses (Shamos-Hoey sweep).

    Exact on the scaled integer grid, with O(m log m) orientation tests.
    Events run in lexicographic (x, y) order: at each event point the
    segments ending there leave the status first, and every pair of
    neighbours that becomes adjacent is tested; then the segments starting
    there enter.  The status lists the active segments bottom to top along a
    sweep line turned infinitesimally counterclockwise from vertical, so
    vertical segments need no special case.  A new segment sits above an
    active one when its left endpoint lies left of that one's directed line,
    or, with the endpoint on the line, when its right endpoint does; collinear
    segments tie.  Shared endpoints, T-junctions and collinear overlaps never
    cross, exactly as in `properly_cross`.

    Why nothing is missed: before the lexicographically first crossing point
    p the status order is exact and the segments through p are consecutive
    in it.  Once those ending at p have left, two consecutive ones with p
    inside them and different directions cross at p, and every pair was
    tested when it became adjacent.

    The kernel reads the point set's grid-integer lists (`PointSet.grid`)
    and keeps the m segments, left endpoint first, in flat lists of ids and
    coordinates.  An event is the triple (x, y, i) for the end of segment i
    and (x, y, m + i) for its start.  The crossing test is inlined; each
    call names the lower of the two status neighbours first.  After the
    shared-endpoint test it rejects the pair when the upper segment's lowest
    y lies above the lower one's highest y: segments whose y-ranges are
    apart share no point, so the reject is exact in either order, and on a
    tree layer it spares nearly every pair the orientation products.  Only
    the pairs left over compare two pairs of orientation signs.

    A start's binary search first probes the status slot of the last
    insertion or deletion: a point's events are consecutive, so a segment
    starting where others just left or entered usually belongs next to that
    slot.  The search finds the same slot whatever it probes first, since
    before the first crossing the status order is exact, so its predicate
    is monotone along the status.  An ending event still finds its segment
    with `list.index`, a scan of the status, so a sweep whose status grows
    long (the stars of a k-layer build) is not O(m log m) in time.
    """
    xs, ys = ps.grid
    m = len(edges)
    ida, idb = [], []  # left and right endpoint ids of each segment
    for a, b in edges:
        if xs[b] < xs[a] or (xs[b] == xs[a] and ys[b] < ys[a]):
            a, b = b, a
        ida.append(a)
        idb.append(b)
    lx = [xs[a] for a in ida]
    ly = [ys[a] for a in ida]
    rx = [xs[b] for b in idb]
    ry = [ys[b] for b in idb]
    # (x, y, i) ends segment i at (x, y), (x, y, m + i) starts it: these
    # sort like (x, y, start, i), so at one point endings come first
    events = [(rx[i], ry[i], i) for i in range(m)]
    events += [(lx[i], ly[i], m + i) for i in range(m)]
    events.sort()

    def cross(i: int, j: int) -> bool:
        # segment i lies below segment j in the status
        a, b, c, d = ida[i], idb[i], ida[j], idb[j]
        if a == c or a == d or b == c or b == d:
            return False
        ay, by, cy, dy = ly[i], ry[i], ly[j], ry[j]
        if (cy if cy < dy else dy) > (ay if ay > by else by):
            return False  # the y-ranges are apart
        ax, bx, cx, dx = lx[i], rx[i], lx[j], rx[j]
        ux, uy = bx - ax, by - ay
        if (ux * (cy - ay) - uy * (cx - ax)) * (ux * (dy - ay) - uy * (dx - ax)) >= 0:
            return False
        vx, vy = dx - cx, dy - cy
        return (vx * (ay - cy) - vy * (ax - cx)) * (vx * (by - cy) - vy * (bx - cx)) < 0

    status: list[int] = []  # active segments, bottom to top
    slot = 0  # the slot of the last change: below len(status), or status is empty
    for _, _, i in events:
        if i >= m:  # segment i starts
            i -= m
            ex, ey, qx, qy = lx[i], ly[i], rx[i], ry[i]
            lo, hi = 0, len(status)
            mid = slot
            while lo < hi:
                j = status[mid]
                ax, ay = lx[j], ly[j]
                ux, uy = rx[j] - ax, ry[j] - ay
                s = ux * (ey - ay) - uy * (ex - ax)
                if not s:
                    s = ux * (qy - ay) - uy * (qx - ax)
                if s > 0:  # segment i enters above status[mid]
                    lo = mid + 1
                else:
                    hi = mid
                mid = (lo + hi) // 2
            if lo and cross(status[lo - 1], i):
                return True
            if lo < len(status) and cross(i, status[lo]):
                return True
            status.insert(lo, i)
            slot = lo
        else:
            k = status.index(i)
            del status[k]
            if k < len(status):
                if k and cross(status[k - 1], status[k]):
                    return True
                slot = k
            else:  # the top segment left
                slot = k - 1
    return False


def crossing_pairs(edges: Sequence[Segment], ps: PointSet) -> list[tuple[Segment, Segment]]:
    """All properly crossing pairs within one edge list, in list order.

    The sweep decides whether any pair crosses; only then does the exact
    all-pairs scan run to list them."""
    if not has_crossing(edges, ps):
        return []
    return _all_crossing_pairs(edges, ps)


def _all_crossing_pairs(edges: Sequence[Segment], ps: PointSet) -> list[tuple[Segment, Segment]]:
    """The exact O(m^2) scan behind `crossing_pairs`, and the sweep's oracle."""
    coords = [(*(ps.scaled(e.a)), *(ps.scaled(e.b))) for e in edges]
    out = []
    for i in range(len(edges)):
        ei = edges[i]
        ci = coords[i]
        for j in range(i + 1, len(edges)):
            ej = edges[j]
            if ei.shares_endpoint(ej):
                continue
            if _proper_cross_scaled(*ci, *coords[j]):
                out.append((ei, ej))
    return out


def collinear_overlap(s1: Segment, s2: Segment, ps: PointSet) -> bool:
    """True iff the segments are collinear and overlap in more than one point.

    Such pairs are non-crossing by convention; verification can optionally
    flag them.
    """
    ax, ay = ps.scaled(s1.a)
    bx, by = ps.scaled(s1.b)
    cx, cy = ps.scaled(s2.a)
    dx, dy = ps.scaled(s2.b)
    if cross_sign(ax, ay, bx, by, cx, cy) or cross_sign(ax, ay, bx, by, dx, dy):
        return False
    # Project on the dominant axis of s1.
    if abs(bx - ax) >= abs(by - ay):
        lo1, hi1 = sorted((ax, bx))
        lo2, hi2 = sorted((cx, dx))
    else:
        lo1, hi1 = sorted((ay, by))
        lo2, hi2 = sorted((cy, dy))
    return max(lo1, lo2) < min(hi1, hi2)


def convex_hull(ids: Sequence[int], ps: PointSet) -> list[int]:
    """Counterclockwise hull of the given ids; collinear mid-edge points are
    dropped; the walk starts at the lowest-y (then lowest-x) vertex.

    Andrew's monotone chain on the grid-integer lists (`PointSet.grid`): the
    ids are sorted by (x, y) with two C-level key sorts, and the exact
    orientation test is inlined in the chain loop."""
    if not ids:
        raise PreconditionError("convex hull of empty id list")
    xs, ys = ps.grid
    pts = sorted(sorted(ids, key=ys.__getitem__), key=xs.__getitem__)  # by (x, y)
    if len(pts) == 1:
        return [pts[0]]

    def build(seq: Iterable[int]) -> list[int]:
        chain: list[int] = []
        for i in seq:
            cx, cy = xs[i], ys[i]
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                ax, ay = xs[a], ys[a]
                if (xs[b] - ax) * (cy - ay) - (ys[b] - ay) * (cx - ax) > 0:
                    break
                chain.pop()
            chain.append(i)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        hull = [pts[0], pts[-1]]
    start = min(range(len(hull)), key=lambda k: (ys[hull[k]], xs[hull[k]]))
    return hull[start:] + hull[:start]


def id_strictly_inside_polygon(poly: Sequence[int], ps: PointSet, q: int) -> bool:
    """Strict interior test of the point q of the set against a
    counterclockwise convex polygon: q lies strictly left of every edge, i.e.
    each pair of consecutive vertex offsets from it turns counterclockwise."""
    if len(poly) < 3:
        return False
    vecs = ps.offsets(poly, *ps.scaled(q), ps.scale)
    return all(ax * by - ay * bx > 0 for (ax, ay), (bx, by) in zip(vecs, vecs[1:] + vecs[:1]))


def angular_order(vecs: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the nonzero integer vectors `vecs` sorted counterclockwise
    by angle from the positive x-axis; vectors on one ray sort by length,
    then by index.

    Exact: the order is the one of the comparator `cmp` (half-plane, then
    the sign of a cross product, then squared length, then index), a strict
    total order.  The sort itself runs in C on a float key, the angle from
    `math.atan2` taken into [0, 2*pi), which is the half-plane and then the
    angle within it; one pass of `cmp` over the adjacent pairs then certifies
    the result, since a sequence whose adjacent pairs are all in order under
    a strict total order is sorted.  A pair that fails (a same-ray run, a
    float tie, or a misorder from rounding) sends the keyed order through the
    comparator sort, which Timsort finishes in about one comparison per
    vector when only a few neighbours are out of place; components too large
    for a float raise OverflowError and sort by the comparator alone."""
    halves = [0 if dy > 0 or (dy == 0 and dx > 0) else 1 for dx, dy in vecs]

    def cmp(i: int, j: int) -> int:
        if halves[i] != halves[j]:
            return halves[i] - halves[j]
        (ax, ay), (bx, by) = vecs[i], vecs[j]
        c = ax * by - ay * bx
        if c:
            return -1 if c > 0 else 1
        li, lj = ax * ax + ay * ay, bx * bx + by * by
        if li != lj:
            return -1 if li < lj else 1
        return i - j

    try:
        angles = [atan2(dy, dx) % tau for dx, dy in vecs]
    except OverflowError:
        return sorted(range(len(vecs)), key=cmp_to_key(cmp))
    order = sorted(range(len(vecs)), key=angles.__getitem__)
    for t in range(1, len(order)):
        if cmp(order[t - 1], order[t]) > 0:
            return sorted(order, key=cmp_to_key(cmp))
    return order


def ccw_order_around(pivot: int, ids: Sequence[int], ps: PointSet) -> list[int]:
    """Ids sorted counterclockwise by angle from the positive x-axis at the
    point `pivot` of the set."""
    if pivot in ids:
        raise PreconditionError(f"pivot coincides with point {pivot}")
    vecs = ps.offsets(ids, *ps.scaled(pivot), ps.scale)
    return [ids[k] for k in angular_order(vecs)]

