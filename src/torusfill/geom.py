"""Exact planar geometry over the surd ring.

Convex polygons with surd coordinates, finite unions of interior-disjoint
convex pieces (regions), affine images and convex clipping.  All predicates
are decided by exact sign computations; regions follow the open-set
convention, so degenerate (zero-area) intersections count as empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surd import SurdScalar, rat, scalar


class GeometryError(ValueError):
    """Raised on invalid polygons, degenerate maps, or bad region data."""


@dataclass(frozen=True)
class Point2:
    x1: SurdScalar
    x2: SurdScalar

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
        return [self.x1.to_triples(), self.x2.to_triples()]

    @classmethod
    def from_json(cls, data) -> "Point2":
        return cls(SurdScalar.from_triples(data[0]), SurdScalar.from_triples(data[1]))


def pt(x1, x2) -> Point2:
    """Point from ints/Fractions/SurdScalars."""
    return Point2(scalar(x1), scalar(x2))


def _orient(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of the signed area of triangle abc (+1 = counterclockwise)."""
    return (b - a).cross(c - a).sign()


class ConvexPolygon:
    """Strictly convex polygon, vertices stored counterclockwise.

    Canonical form: repeated and collinear points merged, the rest bounding a
    strictly convex polygon that winds once (see `_canonicalize`), vertex list
    rotated to start at the lexicographically smallest vertex.
    """

    __slots__ = ("vertices", "_box")

    def __init__(self, vertices: list[Point2]):
        vs = _canonicalize(vertices)
        if vs is None:
            raise GeometryError("not a strictly convex polygon winding once: "
                                f"{[str(v.x1)+','+str(v.x2) for v in vertices]}")
        self.vertices = vs
        self._box = None

    def area(self) -> SurdScalar:
        return shoelace(self.vertices)

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def translate(self, v: Point2) -> "ConvexPolygon":
        x1, x2, y1, y2 = self.bounding_box()
        return _raw([p + v for p in self.vertices],
                    (x1 + v.x1, x2 + v.x1, y1 + v.x2, y2 + v.x2))

    def bounding_box(self):
        """(x_min, x_max, y_min, y_max), computed once and kept."""
        if self._box is None:
            xs = [p.x1 for p in self.vertices]
            ys = [p.x2 for p in self.vertices]
            self._box = min(xs), max(xs), min(ys), max(ys)
        return self._box

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(tuple(self.vertices))

    def __repr__(self):
        pts = ", ".join(f"({v.x1},{v.x2})" for v in self.vertices)
        return f"ConvexPolygon[{pts}]"

    def to_json(self):
        return [v.to_json() for v in self.vertices]

    @classmethod
    def from_json(cls, data) -> "ConvexPolygon":
        return cls([Point2.from_json(p) for p in data])


def _raw(vertices: list[Point2], box=None) -> ConvexPolygon:
    """Construct trusting the input (already canonical counterclockwise) and,
    when given, its bounding box."""
    poly = object.__new__(ConvexPolygon)
    poly.vertices = vertices
    poly._box = box
    return poly


def _canonicalize(vertices: list[Point2]) -> list[Point2] | None:
    """Canonical vertex list of the polygon a cyclic point list bounds, or None.

    Repeated points and points collinear with their neighbours are merged
    away (a vertex whose turn is 0 is dropped and its neighbours' turns are
    recomputed). What is left must bound a strictly convex polygon that winds
    once: every turn has the same sign, and the lexicographic up/down
    direction of the edges switches exactly twice around the cycle (a list
    turning one way throughout but winding k times switches 2k times).
    Either orientation is read; the result is counterclockwise and starts
    at the lowest vertex.
    """
    vs = [p for i, p in enumerate(vertices) if p != vertices[i - 1]]
    turns = [_orient(vs[i - 1], p, vs[(i + 1) % len(vs)]) for i, p in enumerate(vs)]
    while len(vs) >= 3 and 0 in turns:
        i = turns.index(0)
        del vs[i], turns[i]
        for j in (i - 1, i % len(vs)):
            turns[j] = _orient(vs[j - 1], vs[j], vs[(j + 1) % len(vs)])
    if len(vs) < 3 or len(set(turns)) != 1:
        return None
    up = [(p.x1, p.x2) < (q.x1, q.x2) for p, q in zip(vs, vs[1:] + vs[:1])]
    if sum(u != w for u, w in zip(up, up[1:] + up[:1])) != 2:
        return None
    if turns[0] < 0:
        vs.reverse()
    return _from_lowest(vs)


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


def clip_halfplane(poly: ConvexPolygon, a: Point2, b: Point2) -> ConvexPolygon | None:
    """Clip to the closed half-plane on the left of the directed line a->b.

    The cut of a canonical polygon is canonical but for its starting vertex:
    the kept vertices stay counterclockwise, at most two output vertices lie
    on the cut line and each crossing lies strictly inside its edge, so no
    vertex repeats, no three in a row are collinear, and three or more
    output vertices enclose positive area.
    """
    d = b - a
    out: list[Point2] = []
    vs = poly.vertices
    sides = [d.cross(p - a).sign() for p in vs]
    if all(s >= 0 for s in sides):
        return poly
    for i in range(len(vs)):
        p, q = vs[i], vs[(i + 1) % len(vs)]
        sp, sq = sides[i], sides[(i + 1) % len(vs)]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            # intersection of segment pq with the line through a, b
            t = d.cross(a - p) / d.cross(q - p)
            out.append(p + (q - p).scale(t))
    return _raw(_from_lowest(out)) if len(out) >= 3 else None


def clip(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Exact intersection of two convex polygons; None when it has zero area.

    Pairs whose bounding boxes meet in zero area are rejected before any
    half-plane is clipped.
    """
    ax1, ax2, ay1, ay2 = a.bounding_box()
    bx1, bx2, by1, by2 = b.bounding_box()
    if (ax2 - bx1).sign() <= 0 or (bx2 - ax1).sign() <= 0:
        return None
    if (ay2 - by1).sign() <= 0 or (by2 - ay1).sign() <= 0:
        return None
    result: ConvexPolygon | None = a
    for p, q in b.edges():
        result = clip_halfplane(result, p, q)
        if result is None:
            return None
    return result


class Region:
    """Finite union of convex polygons whose pairwise overlaps have zero area."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[ConvexPolygon]):
        self.pieces = list(pieces)

    def validate(self) -> None:
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                if clip(self.pieces[i], self.pieces[j]) is not None:
                    raise GeometryError(f"region pieces {i} and {j} overlap")

    def area(self) -> SurdScalar:
        total = rat(0)
        for p in self.pieces:
            total = total + p.area()
        return total

    def translate(self, v: Point2) -> "Region":
        return Region([p.translate(v) for p in self.pieces])

    def bounding_box(self):
        boxes = [p.bounding_box() for p in self.pieces]
        return (
            min(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )

    def __repr__(self):
        return f"Region({len(self.pieces)} pieces, area {self.area()})"

    def to_json(self):
        return {"polygons": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data) -> "Region":
        return cls([ConvexPolygon.from_json(p) for p in data["polygons"]])


class AffineMap2:
    """Affine map x -> linear*x + translation with exact entries."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear, translation: Point2):
        self.linear = tuple(tuple(scalar(e) for e in row) for row in linear)
        self.translation = translation
        if self.det().is_zero():
            raise GeometryError("degenerate affine map")

    def det(self) -> SurdScalar:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    def apply(self, p: Point2) -> Point2:
        (a, b), (c, d) = self.linear
        return Point2(
            a * p.x1 + b * p.x2 + self.translation.x1,
            c * p.x1 + d * p.x2 + self.translation.x2,
        )

    def apply_polygon(self, poly: ConvexPolygon) -> ConvexPolygon:
        """Image of a polygon, in canonical form without re-canonicalising.

        An invertible affine map keeps a polygon strictly convex with no
        collinear vertices; only the orientation (reversed when det < 0) and
        the starting vertex can change.
        """
        vs = [self.apply(v) for v in poly.vertices]
        if self.det().sign() < 0:
            vs.reverse()
        return _raw(_from_lowest(vs))

    def __repr__(self):
        (a, b), (c, d) = self.linear
        return f"AffineMap2([[{a},{b}],[{c},{d}]] + ({self.translation.x1},{self.translation.x2}))"


def rectangle(x_lo, x_hi, y_lo, y_hi) -> ConvexPolygon:
    return ConvexPolygon([pt(x_lo, y_lo), pt(x_hi, y_lo), pt(x_hi, y_hi), pt(x_lo, y_hi)])
