"""Exact planar primitives: crossing sweep, hulls, angular order.

Each point set holds its coordinates exactly on one scaled integer grid
(scale: the lcm of the coordinates' denominators).  Coordinate strings
that are all plain decimals, in a point file or passed to `PointSet(...)`,
go onto the grid in one pass (`_decimal_grid`); any other coordinate string
is read by `read_coord`: a plain decimal straight onto integers, every
other form through Fraction.  Mirroring and printing work on the grid
integers.  Every predicate in this module is computed with integer or
rational arithmetic and is never wrong due to rounding.  Lengths are
compared as squared grid integers and only leave the exact world as squared
rationals; square roots appear solely in reported float values.  The only
other floats are the angle `angular_order` sorts on and the slope the
sweep sorts long fans on (`_slope_sort`), and an exact comparator pass
certifies each of those orders.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cmp_to_key
from math import atan2, inf, tau
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import PreconditionError, UsageError

# Rational stand-in for 1/phi used by the deterministic perturbation.
PHI = Fraction("0.6180339887")


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
    through :meth:`x` and :meth:`y`.  When every coordinate is a plain ASCII
    decimal string, they all go onto the grid in one pass, by the reader of
    plain point files (`_decimal_grid`).  Otherwise a string coordinate is
    read by `read_coord`, as a point file's are, also among numbers, and any
    other goes through Fraction, so a float keeps its exact binary value;
    both readers give the same grid.  An entry that is not an (x, y) pair of
    finite numbers raises `UsageError` naming it.  `to_text` prints a grid
    whose scale divides a power of ten from one multiplier.

    A point set keeps its grid (`scale`, `grid`) and, since the grid never
    changes after construction, two things derived from it alone, each
    computed on first use:

    - the EMST as its edges a*n + b in Kruskal's join order, in the private
      `_mst` attribute, by `mst._mst`: `mst.build_emst` returns it as a
      sorted `Segment` list, and `mst.grid_bottleneck_sq` reads the MST
      bottleneck off its last join;
    - `lex_order`, the lexicographic (x, y) order of the ids with each id's
      rank in it, which the planarity sweep `_sweep` walks and the
      Delaunay triangulation of `mst` inserts points in.

    A mirror image (`reflected`) keeps neither: it computes its own, and
    mirroring reverses the order within each vertical line.
    """

    def __init__(self, coords: Sequence[tuple[Fraction | int | str, Fraction | int | str]]):
        try:
            if not set(map(len, coords)) <= {2} or any(isinstance(c, (str, bytes)) for c in coords):
                raise TypeError("an entry is not an (x, y) pair")
            column = [c[0] for c in coords] + [c[1] for c in coords]
            grid = _plain_column_grid(column)
            if grid is None:
                # numbers keep their list of Fractions until they are placed:
                # peak_rss_mb counts what the collector frees (ROADMAP item 7)
                fs = [Fraction(*read_coord(v)) if isinstance(v, str) else Fraction(v)
                      for v in column]
                pairs = [(f.numerator, f.denominator) for f in fs]
        except (TypeError, LookupError, ValueError, ArithmeticError) as exc:
            message = _bad_entry(coords)
            if message is None:
                raise
            raise UsageError(message) from exc
        n = len(column) // 2
        if grid is None:
            self._place(pairs[:n], pairs[n:])
        else:
            self._set_grid(grid[0], grid[1][:n], grid[1][n:])

    def _place(self, xs: list[tuple[int, int]], ys: list[tuple[int, int]]) -> None:
        """Put reduced (numerator, denominator) coordinates on the grid whose
        scale is the lcm of all denominators."""
        scale = math.lcm(*{d for _, d in xs}, *{d for _, d in ys})
        self._set_grid(scale, [n * (scale // d) for n, d in xs], [n * (scale // d) for n, d in ys])

    def _set_grid(self, scale: int, sx: list[int], sy: list[int]) -> None:
        """Keep the grid of scale `scale` and integers sx, sy, with nothing
        derived from it yet, once no two points share coordinates: one set
        of the (x, y) pairs decides that, and only when two do share them
        does a scan find the first such pair to name."""
        self._scale = scale
        self._sx = sx
        self._sy = sy
        self._mst: tuple[int, ...] | None = None
        self._lex: tuple[list[int], list[int]] | None = None
        if len(set(zip(sx, sy))) == len(sx):
            return
        seen: dict[tuple[int, int], int] = {}
        for i, key in enumerate(zip(sx, sy)):
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

    def lex_order(self) -> tuple[list[int], list[int]]:
        """The ids in lexicographic (x, y) order, and each id's rank in that
        order.  Computed on the first call and kept: as with `grid`, these
        are the point set's own lists, so callers must not modify them."""
        if self._lex is None:
            order = sorted(self.ids, key=list(zip(self._sx, self._sy)).__getitem__)
            self._lex = order, sorted(range(len(order)), key=order.__getitem__)
        return self._lex

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

    def sdist_sq(self, i: int, j: int) -> int:
        """Squared distance on the internal integer grid (scale**2 units)."""
        dx = self._sx[i] - self._sx[j]
        dy = self._sy[i] - self._sy[j]
        return dx * dx + dy * dy

    def seg_len_sq(self, s: Segment) -> Fraction:
        return Fraction(self.sdist_sq(s.a, s.b), self._scale * self._scale)

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
        mirror._mst = None
        mirror._lex = None
        return mirror

    def perturbed(self, eps: Fraction | int | float | str | None) -> "PointSet":
        """Deterministic general-position perturbation: point i moves by
        eps*((i*PHI) mod 1, (i*PHI^2) mod 1).  An eps of None means 1e-7
        times the larger bbox side; any other eps is read by `read_number`,
        so a float is read by its shortest repr: 0.1 moves the points as
        "0.1" does.

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
            eps = read_number(eps, "eps")
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
        """The points of a point file.  Plain decimal `id x y` lines with the
        ids 0..n-1 in order, as `to_text` writes them, are read in one pass
        over the whole text (`_read_plain`); any other text goes line by line
        (`_read_lines`), which gives every message about a malformed line."""
        ps = cls.__new__(cls)
        if not ps._read_plain(text):
            ps._place(*_read_lines(text))
        return ps

    def _read_plain(self, text: str) -> bool:
        """Put the points of `text` on their grid (`_decimal_grid`) when it
        is plain decimal `id x y` lines with the ids 0..n-1 in order, no
        coordinate longer than `_SAFE_DIGITS`; return False, with nothing
        read, for any other text."""
        if _PLAIN_FILE.fullmatch(text) is None:
            return False
        tokens = text.split()
        n = len(tokens) // 3
        if tokens[::3] != list(map(str, range(n))):
            return False
        grid = _decimal_grid(tokens[1::3] + tokens[2::3])
        if grid is None:
            return False
        self._set_grid(grid[0], grid[1][:n], grid[1][n:])
        return True

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
_DECIMAL = r"-?[0-9]+(?:\.[0-9]+)?"
_PLAIN_FILE = re.compile(rf"(?:[0-9]+ {_DECIMAL} {_DECIMAL}(?:\n|\Z))+")
# plain decimals joined by commas, as `_plain_column_grid` joins them
_PLAIN_COLUMN = re.compile(rf"(?:{_DECIMAL},)*{_DECIMAL}")
# the exponent of an exponent form, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _decimal_grid(coords: list[str]) -> tuple[int, list[int]] | None:
    """The grid of the plain ASCII decimals `coords` (`[-]digits[.digits]`):
    its scale and each coordinate's grid integer, in order; None, with
    nothing read, when one is longer than `_SAFE_DIGITS`.

    Each coordinate, with D the longest fraction among them all, is the
    integer v of its digits scaled to 10**D.  Its reduced denominator is
    10**D / gcd(v, 10**D), so the lcm of them all, the grid's scale, is
    10**D / g for the one gcd g of 10**D and every v."""
    if max(map(len, coords)) > _SAFE_DIGITS:
        return None
    parts = [c.partition(".") for c in coords]
    digits = max(len(f) for _, _, f in parts)
    unit = 10**digits
    shift = [unit // 10**d for d in range(digits + 1)]
    vals = [int(w + f) * shift[len(f)] for w, _, f in parts]
    g = math.gcd(unit, *vals)
    if g > 1:
        vals = [v // g for v in vals]
    return unit // g, vals


def _plain_column_grid(column: list) -> tuple[int, list[int]] | None:
    """`_decimal_grid` of `column` when every entry is a plain ASCII decimal
    string, checked by one match of them all joined by commas; None for any
    other column, an empty one included.  An entry holding a comma can pass
    that match, but int() then raises ValueError on it, as `read_coord`
    does."""
    try:
        text = ",".join(column)
    except TypeError:  # an entry that is not a str
        return None
    if _PLAIN_COLUMN.fullmatch(text) is None:
        return None
    return _decimal_grid(column)


def _read_lines(text: str) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The reduced x and y coordinates of a point file, by id, read line by
    line: `#` starts a comment, blank lines are skipped, ids may come in
    any order but must be 0..n-1 once each."""
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
    return [rows[i][0] for i in range(n)], [rows[i][1] for i in range(n)]


def _bad_entry(coords) -> str | None:
    """A message naming the first entry of `coords` that is not an (x, y)
    pair of exact finite coordinates, or None when every entry is one."""
    for k, c in enumerate(coords):
        try:
            if isinstance(c, (str, bytes)) or len(c) != 2:
                raise TypeError
            pair = c[0], c[1]
        except (TypeError, LookupError):
            return f"point {k}: expected an (x, y) pair, got {c!r}"
        for v in pair:
            try:
                read_coord(v) if isinstance(v, str) else Fraction(v)
            except (TypeError, ValueError, ArithmeticError):
                return f"point {k}: invalid coordinate {v!r}"
    return None


def read_coord(text: str) -> tuple[int, int]:
    """Exact value of a coordinate string as a reduced (numerator,
    denominator) pair, denominator positive.

    Plain ASCII decimals (`[-]digits[.digits]`) are read with int(); every
    other form (`p/q`, exponents, a leading `+`, `5.` or `.5`, underscores,
    surrounding spaces, non-ASCII digits, very long strings, malformed text)
    goes through Fraction, so values, errors and messages are Fraction's.
    The one exception is an exponent whose power of ten would take too long
    to build (`_zero_past_exponent_bound`): it raises ValueError first,
    unless the value is 0."""
    m = _PLAIN_DECIMAL.fullmatch(text)
    if m is None or len(text) > _SAFE_DIGITS:
        e = _EXPONENT.search(text)
        if e is not None and _zero_past_exponent_bound(text, e):
            return 0, 1
        f = Fraction(text)
        return f.numerator, f.denominator
    whole, frac = m.groups()
    if frac is None:
        return int(whole), 1
    num, den = int(whole + frac), 10 ** len(frac)
    g = math.gcd(num, den)
    return num // g, den // g


def read_number(value: str | float | int | Fraction, what: str) -> Fraction:
    """The exact value of a number argument, such as an epsilon, a beta or a
    CLI option.  A str is read by `read_coord`, as a point file's
    coordinates are, so an exponent too large to build fails at once; a
    float is read by its shortest repr (`float.__repr__`), so 0.1 is 1/10;
    an int or a Fraction is taken as it is.  Text that `read_coord` rejects
    and a value of any other type raise `UsageError` naming `what`."""
    text = repr(value) if isinstance(value, float) else value
    if isinstance(text, str):
        try:
            return Fraction(*read_coord(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{what} must be a number, got {value!r}") from exc
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise UsageError(f"{what} must be a number, got {value!r}")


def _zero_past_exponent_bound(text: str, e: re.Match) -> bool:
    """Whether the coordinate `text`, whose exponent `e` asks for a power of
    ten of more than ten times `sys.get_int_max_str_digits()` digits, is 0;
    ValueError when it is not, False for an exponent within that bound.

    That is checked before Fraction builds the power: 10**999999999 takes
    minutes and gigabytes.  Powers within the bound take Fraction a few
    milliseconds, so coordinates such as 7e20123 keep the value Fraction
    gives them.  The mantissa goes through Fraction with the exponent
    replaced by 0, so text that Fraction rejects keeps Fraction's message."""
    limit = 10 * sys.get_int_max_str_digits()
    try:
        exp = int(e.group(1))
    except ValueError:
        return False  # Fraction(text) raises the same error before any power
    if not limit or abs(exp) < limit:
        return False
    try:
        mantissa = Fraction(text[:e.start(1)] + "0" + text[e.end(1):])
    except (ValueError, ZeroDivisionError):
        return False  # as above
    if mantissa:
        raise ValueError(f"exponent {exp} of {text!r} needs a power of ten of more than "
                         f"{limit} digits, ten times sys.get_int_max_str_digits()")
    return True


def float_sqrt(num: int, den: int, what: str) -> float:
    """sqrt(num / den) as a float, for integers num >= 0 and den > 0,
    without squaring through a float: the square root of the correctly
    rounded quotient while that is a normal float, as math.sqrt of the exact
    fraction gives it, and otherwise an integer root of about 60 bits, with
    a sticky bit for an inexact one, rounded once.  A root beyond float
    range raises UsageError naming `what`."""
    try:
        q = num / den
    except OverflowError:
        q = math.inf
    if sys.float_info.min <= q < math.inf or not num:
        return math.sqrt(q)
    s = 60 - (num.bit_length() - den.bit_length()) // 2
    q, rest = divmod(num << 2 * s, den) if s >= 0 else divmod(num, den << -2 * s)
    root = math.isqrt(q)
    try:
        return math.ldexp(root | (rest > 0 or root * root != q), -s)
    except OverflowError:
        raise UsageError(f"{what} is too large for a float") from None


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


def _proper_cross_scaled(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Whether ab and cd properly cross, on grid integers: a bounding-box
    reject, then products of raw cross products, as in the sweep's test."""
    if min(ax, bx) > max(cx, dx) or min(cx, dx) > max(ax, bx):
        return False
    if min(ay, by) > max(cy, dy) or min(cy, dy) > max(ay, by):
        return False
    ux, uy = bx - ax, by - ay
    if (ux * (cy - ay) - uy * (cx - ax)) * (ux * (dy - ay) - uy * (dx - ax)) >= 0:
        return False
    vx, vy = dx - cx, dy - cy
    return (vx * (ay - cy) - vy * (ax - cx)) * (vx * (by - cy) - vy * (bx - cx)) < 0


def id_outside(edges: Sequence[Segment], n: int) -> Segment | None:
    """The first edge of `edges` with an id outside 0..n-1, or None.  A
    Segment is (a, b) with a < b, so the least a and the largest b bound
    every id: C-level `min` and `max` find them, and only a list that breaks
    the bound is scanned in Python."""
    if edges and (min(edges)[0] < 0 or max(edges, key=itemgetter(1))[1] >= n):
        return next(e for e in edges if e[0] < 0 or e[1] >= n)
    return None


# The sweep sorts a fan of this many segments or more on a float slope key
# (`_slope_sort`), and shorter ones with the exact comparator alone.  On
# uniform layers (two-tree n=500, k=1 n=300; Python 3.11, 2-vCPU x86 host),
# keyed fans took 13% off a k=1 sweep, whose hubs' fans hold dozens of
# segments, while a threshold of 3 instead of 8 made tree sweeps, whose
# fans hold at most 6, 5% slower.
_KEYED_FAN = 8


def _slope_sort(block: list[int], rx: list[int], ry: list[int], vx: int, vy: int) -> bool:
    """Sort the segments `block`, which all leave the event point (vx, vy)
    for their right endpoints, by the slope (ry - vy) / (rx - vx) with a
    vertical segment last, and say whether that order is exact.

    That key is the bottom-to-top order of the directions, which all point
    right or straight up.  Python divides two ints with one correct
    rounding, which never inverts two slopes but can make distinct ones
    equal, so one pass of the exact comparison over the adjacent pairs
    certifies the order: a sequence whose adjacent pairs are in order is
    sorted.  False, for a misorder or a slope beyond float range
    (`OverflowError`, with `block` left as it was), sends it to the
    comparator sort, as in `angular_order`."""
    try:
        slope = [(ry[i] - vy) / (rx[i] - vx) if rx[i] != vx else inf for i in block]
    except OverflowError:
        return False
    block.sort(key=dict(zip(block, slope)).__getitem__)
    i = block[0]
    for j in block[1:]:
        if (ry[i] - vy) * (rx[j] - vx) > (rx[i] - vx) * (ry[j] - vy):
            return False
        i = j
    return True


def _sweep(edges: Sequence[Segment], ps: PointSet) -> bool:
    """Whether some pair in the edge list properly crosses, for edges whose
    ids are known to lie in 0..n-1 (Shamos-Hoey sweep).  This decides
    planarity for `verify_layers` and `crossing_pairs`.

    Exact on the scaled integer grid.  The sweep visits the
    segments' endpoints in the lexicographic (x, y) order that the point set
    keeps (`PointSet.lex_order`), and handles at each such event point v
    every segment ending or starting there at once (Bentley & Ottmann 1979;
    de Berg et al., Computational Geometry, section 2.1).  The status lists the
    active segments bottom to top along a sweep line turned infinitesimally
    counterclockwise from vertical, so vertical segments need no special
    case.  Shared endpoints, T-junctions and collinear overlaps never cross:
    a pair crosses when its open segments meet in exactly one point.

    Each segment runs from its lower-ranked endpoint to the other one, and
    is bucketed under both: every point keeps the list of segments starting
    there, the number ending there and one of those.  The sweep walks the
    whole kept order and skips the points no segment touches, so an edge
    list that leaves most points out still pays O(n) for the walk and the
    buckets.  At v, one block step (the event step of Bentley & Ottmann):

    - Find the block: the slice of the status holding every active segment
      through v.  When segments end at v, `list.index` finds one and the
      block widens over its neighbours that also end at v; with nothing
      starting at v and that block whole, it leaves as one slice and the
      pair it leaves adjacent is tested.  Otherwise the block widens further
      over the neighbours whose line passes through v.  With no segment
      ending at v, one binary search on the side of v of each probed
      segment's line finds the slot, and the block widens upward from it
      only when v lies on the line of the segment there.
    - Test the through segments: the block's segments that do not end at v
      pass through it, and each adjacent pair of them, in their old order,
      is tested.  Two on different lines cross at v.
    - Reorder: the through segments and the segments starting at v replace
      the block, sorted bottom to top by the sign of the cross product of
      their directions from v; a fan of `_KEYED_FAN` or more is sorted on
      its slopes first (`_slope_sort`).  Segments on one ray tie, and
      either order of a tie is exact, as for any collinear overlap.  The
      two boundary pairs are tested, or, when the block is left empty, the
      pair the removal made adjacent.

    Comparisons of y decide before any product, in three places:

    - A probe of the binary search puts v above a segment whose endpoints
      both lie below v, and below one whose endpoints both lie above.  An
      active segment spans v's x (lx <= vx <= rx), and a vertical one
      spans its y strictly, so the segment's height at vx lies between its
      endpoints' ys, strictly on one side of vy.  A horizontal segment at
      vy, and one with an endpoint at vy elsewhere, go to the products.
    - The widening stops, by the same argument, at a lower neighbour with
      both endpoints below v, or an upper one with both above.
    - A pair of neighbours, the lower one named first, is not crossing
      when the upper segment's lowest y lies above the lower one's highest
      y (y-ranges apart share no point) or when the two share an endpoint.
      Both segments are active, so a left endpoint of one is never the
      right endpoint of the other, and only the left and the right
      endpoints are compared.  The products run in `cross` only for a pair
      past both rejects, or two through segments, whose y-ranges meet at v.

    Why this is exact: before the lexicographically first crossing point the
    status order is exact, and the segments through v are consecutive in
    it, since every other active segment passes strictly above or below v.
    No new pair inside the block is tested, and none can cross: two
    segments starting at v share it, a through segment meets one starting
    at v only at that endpoint, and through segments that got past their
    test lie on one line.  Every other pair that becomes adjacent is tested.
    So at the first crossing point p, leaving out the segments that end
    there, two segments through p on different lines lie next to each
    other, and that pair is tested: when it became adjacent in the status,
    or, at an event point, by the test of the through segments.

    The rejects only spare work: the orientation products alone decide
    every pair and every side exactly.  On a tree layer they leave about one
    probe in ten and one neighbour pair in two hundred to the products.
    Finding an ending segment is still a scan of the status, so a sweep
    whose status grows long (the stars of a k-layer build) is not
    O(m log m) in time.
    """
    xs, ys = ps.grid
    order, rank = ps.lex_order()
    n = len(order)
    ida, idb = [], []  # left and right endpoint ids of each segment
    starts: list[list[int] | None] = [None] * n  # the segments starting at each point
    ending = [0] * n  # how many segments end at each point
    last = [0] * n  # the last of them in the list
    for i, (a, b) in enumerate(edges):
        if rank[b] < rank[a]:
            a, b = b, a
        ida.append(a)
        idb.append(b)
        fan = starts[a]
        if fan is None:
            starts[a] = [i]
        else:
            fan.append(i)
        ending[b] += 1
        last[b] = i
    lx = [xs[a] for a in ida]
    ly = [ys[a] for a in ida]
    rx = [xs[b] for b in idb]
    ry = [ys[b] for b in idb]

    def cross(i: int, j: int) -> bool:
        # whether segments i and j properly cross: the orientation products
        # alone, once the callers' rejects by y and shared endpoints are past
        ax, ay, bx, by = lx[i], ly[i], rx[i], ry[i]
        cx, cy, dx, dy = lx[j], ly[j], rx[j], ry[j]
        ux, uy = bx - ax, by - ay
        if (ux * (cy - ay) - uy * (cx - ax)) * (ux * (dy - ay) - uy * (dx - ax)) >= 0:
            return False
        vx, vy = dx - cx, dy - cy
        return (vx * (ay - cy) - vy * (ax - cx)) * (vx * (by - cy) - vy * (bx - cx)) < 0

    status: list[int] = []  # active segments, bottom to top
    for v in order:
        out, fan = ending[v], starts[v]
        if out:
            lo = status.index(last[v])
            hi, top = lo + 1, len(status)
            while lo and idb[status[lo - 1]] == v:
                lo -= 1
            while hi < top and idb[status[hi]] == v:
                hi += 1
            if fan is None and hi - lo == out:
                del status[lo:hi]
                if lo and hi < top:
                    i, j = status[lo - 1], status[lo]  # y-ranges apart, shared endpoints
                    if (not ly[i] < ly[j] > ry[i] < ry[j] > ly[i]
                            and ida[i] != ida[j] and idb[i] != idb[j] and cross(i, j)):
                        return True
                continue
            vx, vy = xs[v], ys[v]
            while lo:  # widen over the neighbours whose line passes through v
                j = status[lo - 1]
                if ly[j] < vy > ry[j] or (  # both endpoints below v: v lies above
                        (rx[j] - lx[j]) * (vy - ly[j]) - (ry[j] - ly[j]) * (vx - lx[j])):
                    break
                lo -= 1
        elif fan is None:
            continue
        else:
            vx, vy = xs[v], ys[v]
            lo, hi, top, s = 0, len(status), 0, 1
            while lo < hi:
                mid = (lo + hi) // 2
                j = status[mid]
                if ly[j] < vy > ry[j]:  # both endpoints below v: v lies above
                    lo = mid + 1
                elif ly[j] > vy < ry[j]:  # both above: v lies below
                    hi, s = mid, 1
                else:
                    t = (rx[j] - lx[j]) * (vy - ly[j]) - (ry[j] - ly[j]) * (vx - lx[j])
                    if t > 0:
                        lo = mid + 1
                    else:
                        hi, s = mid, t
            if not s:  # status[lo] passes through v; else top = 0 widens nothing
                hi, top = lo + 1, len(status)
        while hi < top:  # widen upward the same way
            j = status[hi]
            if ly[j] > vy < ry[j] or (  # both endpoints above v: v lies below
                    (rx[j] - lx[j]) * (vy - ly[j]) - (ry[j] - ly[j]) * (vx - lx[j])):
                break
            hi += 1
        # status[lo:hi] is every active segment through v; those that do
        # not end at v pass through it, and two on different lines cross
        if hi - lo > out:
            block = [i for i in status[lo:hi] if idb[i] != v]
            for k in range(1, len(block)):
                if cross(block[k - 1], block[k]):
                    return True
            if fan is not None:
                block += fan
        else:
            block = fan
        # bottom to top: segment i goes below j when j's right endpoint
        # lies left of i's direction; collinear ones tie.  Two segments,
        # the common fan on a tree layer, take one compare: sorting them
        # through cmp_to_key made near-line sweeps about a third slower.
        # A fan of _KEYED_FAN or more, such as a k-layer hub's star, sorts
        # in C on its slopes, and keeps that order when one pass of the
        # exact compare over its adjacent pairs certifies it; a misorder
        # from rounding, or a slope beyond float range, leaves it to the
        # comparator, which also sorts the fans of 3 to _KEYED_FAN - 1.
        if len(block) == 2:
            i, j = block
            if (rx[i] - vx) * (ry[j] - vy) - (ry[i] - vy) * (rx[j] - vx) < 0:
                block.reverse()
        elif len(block) > 2 and (
                len(block) < _KEYED_FAN or not _slope_sort(block, rx, ry, vx, vy)):
            block.sort(key=cmp_to_key(
                lambda i, j: (ry[i] - vy) * (rx[j] - vx) - (rx[i] - vx) * (ry[j] - vy)))
        status[lo:hi] = block
        hi = lo + len(block)
        if lo and lo < len(status):
            i, j = status[lo - 1], status[lo]
            if (not ly[i] < ly[j] > ry[i] < ry[j] > ly[i]
                    and ida[i] != ida[j] and idb[i] != idb[j] and cross(i, j)):
                return True
        if block and hi < len(status):
            i, j = status[hi - 1], status[hi]
            if (not ly[i] < ly[j] > ry[i] < ry[j] > ly[i]
                    and ida[i] != ida[j] and idb[i] != idb[j] and cross(i, j)):
                return True
    return False


def crossing_pairs(edges: Sequence[Segment], ps: PointSet) -> list[tuple[Segment, Segment]]:
    """All properly crossing pairs within one edge list, in list order; an
    edge with an id outside 0..n-1 (`id_outside`) raises `PreconditionError`
    first."""
    bad = id_outside(edges, len(ps))
    if bad is not None:
        raise PreconditionError(f"edge {tuple(bad)} has an id outside 0..{len(ps) - 1}")
    return _crossings(edges, ps)


def _crossings(edges: Sequence[Segment], ps: PointSet) -> list[tuple[Segment, Segment]]:
    """`crossing_pairs` of edges whose ids are known to lie in 0..n-1, as
    `verify.count_layers` checks them.  The sweep decides whether any pair
    crosses; only then does the exact all-pairs scan run to list them."""
    if not _sweep(edges, ps):
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

