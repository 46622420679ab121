"""Exact planar geometry over the surd ring.

Convex polygons with surd coordinates and finite unions of interior-disjoint
convex pieces (regions).  All predicates
are decided by exact sign computations; regions follow the open-set
convention, so degenerate (zero-area) intersections count as empty.
Whether the pieces of a region overlap, whether it maps injectively
modulo a lattice, and how much area each collision has, is decided in
`torus` on integer lattice coordinates: `_canonical` and `_sign` serve both
the plane polygons here and those lattice coordinates.
"""

from __future__ import annotations

from .surd import SurdScalar, _read_triples, rat, scalar


class GeometryError(ValueError):
    """Raised on invalid polygons or bad region data."""


class Point2:
    """A plane point; `torus` also holds lattice coordinates in it, each an
    int where it is rational (see `torus.LatticeRegion`).  A value: equal
    coordinates make equal points with equal hashes, and only a point
    equals a point."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        self.x1, self.x2 = x1, x2

    def __eq__(self, other):
        if type(other) is not Point2:
            return NotImplemented
        return self.x1 == other.x1 and self.x2 == other.x2

    def __hash__(self):
        return hash((self.x1, self.x2))

    def __repr__(self):
        return f"Point2({self.x1!r}, {self.x2!r})"

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Point2":
        return Point2(-self.x1, -self.x2)

    def scale(self, factor) -> "Point2":
        f = scalar(factor)
        return Point2(self.x1 * f, self.x2 * f)

    def cross(self, other: "Point2") -> SurdScalar:
        return self.x1 * other.x2 - self.x2 * other.x1

    def to_json(self):
        """[x1, x2], the scalars themselves."""
        return [self.x1, self.x2]

    @classmethod
    def from_json(cls, data) -> "Point2":
        x1, x2 = _coordinates(data)
        return cls(SurdScalar.from_triples(x1), SurdScalar.from_triples(x2))


def _coordinates(data) -> list:
    """The JSON of a point, checked to be a list of two coordinates."""
    if type(data) is not list:  # an object would be read by its keys 0 and 1
        raise TypeError(f"a point must be a list, got {type(data).__name__}")
    if len(data) != 2:
        raise GeometryError(f"a point has two coordinates, got {len(data)}")
    return data


def pt(x1, x2) -> Point2:
    """Point from ints/Fractions/SurdScalars."""
    return Point2(scalar(x1), scalar(x2))


def _sign(t) -> int:
    """Sign of an int, or of a scalar with `sign()` (a SurdScalar or a
    `surd.QuadInt`)."""
    return (t > 0) - (t < 0) if type(t) is int else t.sign()


class ConvexPolygon:
    """Strictly convex polygon, vertices stored counterclockwise.

    Canonical form: repeated and collinear points merged, the rest bounding a
    strictly convex polygon that winds once (see `_canonicalize`), vertex list
    rotated to start at the lexicographically smallest vertex.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: list[Point2]):
        self.vertices = _canonical([v.x1 for v in vertices], [v.x2 for v in vertices],
                                   lambda: vertices)[0]

    def area(self) -> SurdScalar:
        return shoelace(self.vertices)

    def translate(self, v: Point2) -> "ConvexPolygon":
        return _raw([p + v for p in self.vertices])

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(tuple(self.vertices))

    def __repr__(self):
        pts = ", ".join(f"({v.x1},{v.x2})" for v in self.vertices)
        return f"ConvexPolygon[{pts}]"

    def to_json(self):
        return [v.to_json() for v in self.vertices]


def _polygons(data) -> list:
    """The polygon list of {"polygons": [...]}.  A polygon list that is not a
    list raises TypeError: iterated as it comes, "" or {} would read as the
    empty region."""
    polygons = data["polygons"]
    if type(polygons) is not list:
        raise TypeError(f"polygons must be a list, got {type(polygons).__name__}")
    return polygons


def _points(polygon) -> list:
    """A polygon's point list; anything else raises TypeError, as an object
    would iterate its keys as points."""
    if type(polygon) is not list:
        raise TypeError(f"a polygon must be a list of points, got {type(polygon).__name__}")
    return polygon


def region_points(data) -> list[list[Point2]]:
    """The point lists of {"polygons": [...]}, as given (not canonicalised)."""
    return [[Point2.from_json(p) for p in _points(points)] for points in _polygons(data)]


def region_coordinates(data):
    """The polygons of {"polygons": [...]} read for `torus.LatticeRegion.read`
    with no scalar per coordinate, as (sizes, read, shown): read holds x1
    and x2 of every point in turn as the numerators over a denominator that
    `surd._read_triples` gives, sizes the number of points of each polygon,
    and shown(k) builds the plane points of polygon k, for a message that
    names them.  The checks, their order and their messages are those of
    `region_points`."""
    polygons = _polygons(data)
    sizes: list[int] = []
    read = []
    for points in polygons:
        sizes.append(len(_points(points)))
        for p in points:
            for c in _coordinates(p):
                read.append(_read_triples(c))
    return sizes, read, lambda k: [Point2.from_json(p) for p in polygons[k]]


def _raw(vertices: list[Point2]) -> ConvexPolygon:
    """Construct trusting the input (already canonical counterclockwise)."""
    poly = object.__new__(ConvexPolygon)
    poly.vertices = vertices
    return poly


def _canonical(xs: list, ys: list, shown) -> tuple[list[Point2], list[tuple]]:
    """`_canonicalize(xs, ys)`, or GeometryError naming the plane points
    that `shown()` builds when they bound no strictly convex polygon winding
    once."""
    canon = _canonicalize(xs, ys)
    if canon is None:
        raise GeometryError("not a strictly convex polygon winding once: "
                            f"{[str(v.x1)+','+str(v.x2) for v in shown()]}")
    return canon


def _canonicalize(xs: list, ys: list) -> tuple[list[Point2], list[tuple]] | None:
    """The canonical polygon that the cyclic point list (xs[k], ys[k])
    bounds, as (vertices, steps) with steps[k] = (du, dw) the edge from
    vertices[k] to the next vertex, or None.

    One pass reads each edge once, as a coordinate pair: a repeated point
    gives the edge (0, 0) and is skipped, and an edge whose turn from the
    edge kept before it is 0 is merged into that edge; where the cycle
    closes, the first edges kept are taken again until one keeps its turn.
    What is left must bound a strictly convex polygon that winds once: every
    turn has the same sign, and the edges' up/down direction, the sign of
    du (of dw when du = 0), switches exactly twice around the cycle (2k
    times for a list that winds k times).  The lowest vertex, by (x, y), is
    where a down edge meets an up one.  Either orientation is read; the
    result is counterclockwise from the lowest vertex.  Coordinates may be
    SurdScalars, QuadInts or ints: an affine map of positive determinant
    keeps every turn sign and the winding, so it accepts a list exactly when
    it accepts the list's image.
    """
    kept = []  # (x, y, du, dw, turn): a vertex, its edge, the turn into that edge

    def keep(sx, sy, du, dw) -> bool:
        """Keep the edge (du, dw) from (sx, sy); True if it merged."""
        merged, t = False, 0
        while kept and not (t := _sign(kept[-1][2] * dw - kept[-1][3] * du)):
            sx, sy, qu, qw, _ = kept.pop()
            du, dw, merged = qu + du, qw + dw, True
        if du or dw:
            kept.append((sx, sy, du, dw, t))
        return merged

    for k in range(len(xs)):  # the edge from point k - 1 to point k
        du, dw = xs[k] - xs[k - 1], ys[k] - ys[k - 1]
        if du or dw:
            keep(xs[k - 1], ys[k - 1], du, dw)
    while len(kept) >= 3 and keep(*kept.pop(0)[:4]):
        pass
    if len(kept) < 3:
        return None
    turn, lowest, switches = kept[0][4], 0, 0
    up = (_sign(kept[-1][2]) or _sign(kept[-1][3])) > 0
    for k, (_, _, du, dw, t) in enumerate(kept):
        was, up = up, (_sign(du) or _sign(dw)) > 0
        if t != turn:
            return None
        if up != was:
            switches, lowest = switches + 1, k if up else lowest
    if switches != 2:
        return None
    m = len(kept)
    if turn > 0:
        order = [kept[(lowest + k) % m] for k in range(m)]
        return [Point2(x, y) for x, y, _, _, _ in order], [(du, dw) for _, _, du, dw, _ in order]
    order = [kept[lowest - k] for k in range(m)]  # clockwise: walk back, edges reversed
    return ([Point2(x, y) for x, y, _, _, _ in order],
            [(-du, -dw) for _, _, du, dw, _ in order[1:] + order[:1]])


def _from_lowest(vs: list[Point2]) -> list[Point2]:
    """Rotate a cyclic vertex list to start at its lexicographically smallest vertex."""
    start = min(range(len(vs)), key=lambda i: (vs[i].x1, vs[i].x2))
    return vs[start:] + vs[:start]


def shoelace(vertices: list[Point2]) -> SurdScalar:
    """Signed area (positive for counterclockwise order)."""
    total = rat(0)
    for i in range(len(vertices)):
        total = total + vertices[i].cross(vertices[(i + 1) % len(vertices)])
    return total / 2


class Region:
    """Finite union of convex polygons whose pairwise overlaps have zero area
    (`torus.LatticeRegion.verdict` checks it)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[ConvexPolygon]):
        self.pieces = list(pieces)

    def area(self) -> SurdScalar:
        total = rat(0)
        for p in self.pieces:
            total = total + p.area()
        return total

    def translate(self, v: Point2) -> "Region":
        return Region([p.translate(v) for p in self.pieces])

    def bounding_box(self):
        """(x_min, x_max, y_min, y_max) over the vertices of every piece."""
        xs = [v.x1 for p in self.pieces for v in p.vertices]
        ys = [v.x2 for p in self.pieces for v in p.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def __repr__(self):
        return f"Region({len(self.pieces)} pieces, area {self.area()})"

    def to_json(self):
        return {"polygons": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data) -> "Region":
        """Read {"polygons": [...]} (see `region_points`)."""
        return cls([ConvexPolygon(points) for points in region_points(data)])


def rectangle(x_lo, x_hi, y_lo, y_hi) -> ConvexPolygon:
    return ConvexPolygon([pt(x_lo, y_lo), pt(x_hi, y_lo), pt(x_hi, y_hi), pt(x_lo, y_hi)])
