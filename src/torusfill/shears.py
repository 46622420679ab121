"""Piecewise-linear shears of the plane and their 4-dimensional lifts.

An x1-shear (x1, x2) -> (x1 + f(x2), x2) lifts to the cotangent map
(x1, x2, y1, y2) -> (x1 + f(x2), x2, y1, y2 - f'(x2) y1), which is a
symplectomorphism on every slab where f is affine; the x2-shear
(x1, x2) -> (x1, x2 + g(x1)) lifts to (x1, x2 + g(x1), y1 - g'(x1) y2, y2).

Profiles are piecewise linear, and a profile may jump at a breakpoint: f
takes different limits on the two sides of it.  A shear with a jump cuts
the plane along the breakpoint line and moves the two sides apart by the
jump, the width-zero limit of a steep ramp band.  Regions are open and
pieces are split along breakpoint lines, so every piece is mapped by a
single affine map and the lift is symplectic on each open slab; across the
cut the map is not continuous.  The x1-shear of `theorem1` jumps at every
eps, that of `family` at every k, and that of `example3` at eps = 0 only.

On a slab of slope s the Jacobian J of the lift satisfies J^T Omega0 J =
Omega0 for every s, so no certificate checks it slab by slab; the tests
prove the identity once over a symbolic constant and slope.  A piece is
split into its slab parts by cuts on its slab coordinate alone, one at each
breakpoint strictly inside its span.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .surd import SurdScalar, rat, scalar
from .geom import ConvexPolygon, Point2, Region, _from_lowest, _raw


class ShearError(ValueError):
    pass


class PLFunction:
    """Piecewise-linear function given by breakpoints, slopes and an anchor.

    slopes has one more entry than breakpoints; slab i is the open interval
    (breakpoints[i-1], breakpoints[i]).  jumps[i] is the discontinuity
    f(b_i+) - f(b_i-) at breakpoint i (all zero for a genuine PL function).
    The anchor (x0, f(x0)) fixes the additive constant; x0 must not be a
    breakpoint.
    """

    __slots__ = ("breakpoints", "slopes", "jumps", "anchor", "_consts")

    def __init__(self, breakpoints, slopes, anchor=(0, 0), jumps=None):
        self.breakpoints = [scalar(b) for b in breakpoints]
        self.slopes = [scalar(s) for s in slopes]
        self.jumps = [scalar(j) for j in (jumps or [0] * len(self.breakpoints))]
        x0, y0 = anchor
        self.anchor = (scalar(x0), scalar(y0))
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ShearError("need exactly one more slope than breakpoints")
        if len(self.jumps) != len(self.breakpoints):
            raise ShearError("need exactly one jump per breakpoint")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if (b - a).sign() <= 0:
                raise ShearError("breakpoints must be strictly increasing")
        self._consts = self._build_consts()

    @classmethod
    def linear(cls, slope) -> "PLFunction":
        return cls([], [slope], anchor=(0, 0))

    def _build_consts(self) -> list[SurdScalar]:
        x0, y0 = self.anchor
        k = bisect_right(self.breakpoints, x0)
        if any(x0 == b for b in self.breakpoints):
            raise ShearError("anchor must not sit on a breakpoint")
        consts: list[SurdScalar | None] = [None] * len(self.slopes)
        consts[k] = y0 - self.slopes[k] * x0
        for i in range(k, len(self.breakpoints)):
            b = self.breakpoints[i]
            left = consts[i] + self.slopes[i] * b
            consts[i + 1] = left + self.jumps[i] - self.slopes[i + 1] * b
        for i in range(k - 1, -1, -1):
            b = self.breakpoints[i]
            right = consts[i + 1] + self.slopes[i + 1] * b
            consts[i] = right - self.jumps[i] - self.slopes[i] * b
        return consts

    def slab_affine(self, i: int) -> tuple[SurdScalar, SurdScalar]:
        """(constant, slope) of f on slab i."""
        return self._consts[i], self.slopes[i]

    def slab_is_identity(self, i: int) -> bool:
        return self._consts[i].is_zero() and self.slopes[i].is_zero()

    def is_continuous(self) -> bool:
        return all(j.is_zero() for j in self.jumps)

    def to_json(self):
        """Breakpoints, slopes, anchor and any jumps, as fresh lists of scalars."""
        data = {
            "breakpoints": list(self.breakpoints),
            "slopes": list(self.slopes),
            "anchor": list(self.anchor),
        }
        if not self.is_continuous():
            data["jumps"] = list(self.jumps)
        return data

    @classmethod
    def from_json(cls, data) -> "PLFunction":
        return cls(
            [SurdScalar.from_triples(b) for b in data["breakpoints"]],
            [SurdScalar.from_triples(s) for s in data["slopes"]],
            anchor=(
                SurdScalar.from_triples(data["anchor"][0]),
                SurdScalar.from_triples(data["anchor"][1]),
            ),
            jumps=[SurdScalar.from_triples(j) for j in data.get("jumps", [])] or None,
        )


@dataclass
class Shear:
    """A planar PL shear along one axis.  Its lift to 4D (see the module
    docstring) is symplectic on every slab whatever the profile."""

    axis: str  # "x1": x1 += f(x2);  "x2": x2 += f(x1)
    f: PLFunction

    def __post_init__(self):
        if self.axis not in ("x1", "x2"):
            raise ShearError(f"axis must be 'x1' or 'x2', got {self.axis!r}")

    def map_part(self, i: int, part: ConvexPolygon) -> ConvexPolygon:
        """Image of a part inside slab i under the slab's map x1 -> x1 + c + s x2
        (x2 -> x2 + c + s x1 for an x2-shear).  Its determinant is 1, so the
        image stays counterclockwise; it keeps the part's starting vertex,
        which need not be its lowest any more."""
        c, s = self.f.slab_affine(i)
        if self.axis == "x1":
            vs = [Point2(v.x1 + c + s * v.x2, v.x2) for v in part.vertices]
        else:
            vs = [Point2(v.x1, v.x2 + c + s * v.x1) for v in part.vertices]
        return _raw(vs)

    def _cut(self, poly: ConvexPolygon, bound) -> tuple[ConvexPolygon, ConvexPolygon]:
        """(below, above): the two sides of poly along the line where its slab
        coordinate (x2 for an x1-shear, x1 for an x2-shear) is bound, which
        lies strictly between the least and greatest slab coordinate of poly.

        One pass over the vertices.  A vertex on the line goes to both sides;
        an edge crossing it gives the point with the bound as its slab
        coordinate at t = (bound - c_p) / (c_q - c_p) along the edge.  Each
        side keeps the cyclic order of poly, so it is canonical once rotated
        to its lowest vertex; it is returned unrotated, as `split` and
        `area` read no starting vertex.
        """
        vs = poly.vertices
        x1_shear = self.axis == "x1"
        coords = [v.x2 if x1_shear else v.x1 for v in vs]
        sides = [c.compare(bound) for c in coords]
        below: list[Point2] = []
        above: list[Point2] = []
        for i in range(-1, len(vs) - 1):  # the edge vs[i] -> vs[i + 1]
            p, sp = vs[i], sides[i]
            if sp <= 0:
                below.append(p)
            if sp >= 0:
                above.append(p)
            if sp * sides[i + 1] < 0:
                q = vs[i + 1]
                t = (bound - coords[i]) / (coords[i + 1] - coords[i])
                x = (Point2(p.x1 + (q.x1 - p.x1) * t, bound) if x1_shear
                     else Point2(bound, p.x2 + (q.x2 - p.x2) * t))
                below.append(x)
                above.append(x)
        return _raw(below), _raw(above)

    def split(self, poly: ConvexPolygon):
        """(slab, part) for every slab the open polygon meets, in slab order,
        each part counterclockwise from any vertex (see `_cut`).

        The least and greatest slab coordinate of the polygon's vertices,
        taken in one pass, are bisected into the breakpoints, which gives the
        slabs it meets.  The polygon is cut bottom up, once at each
        breakpoint strictly between those two values, each cut splitting off
        one part from what is left; a polygon inside one slab is its own
        part.
        """
        coords = [v.x2 if self.axis == "x1" else v.x1 for v in poly.vertices]
        lo = hi = coords[0]
        for c in coords[1:]:
            if c < lo:
                lo = c
            elif c > hi:
                hi = c
        bps = self.f.breakpoints
        first, last = bisect_right(bps, lo), bisect_right(bps, hi)
        if last and hi == bps[last - 1]:
            last -= 1  # the polygon only touches the slab above its top end
        rest = poly
        for i in range(first, last):
            part, rest = self._cut(rest, bps[i])
            yield i, part
        yield last, rest

    def reflect(self, flipped: str) -> "Shear":
        """Conjugate by negating the `flipped` coordinate ("x1" or "x2"): f is
        negated when that is the shear's own axis, and precomposed with
        x -> -x otherwise."""
        f = self.f
        if self.axis == flipped:
            g = PLFunction(f.breakpoints, [-s for s in f.slopes],
                           anchor=(f.anchor[0], -f.anchor[1]),
                           jumps=[-j for j in f.jumps])
        elif flipped in ("x1", "x2"):
            g = PLFunction([-b for b in reversed(f.breakpoints)],
                           [-s for s in reversed(f.slopes)],
                           anchor=(-f.anchor[0], f.anchor[1]),
                           jumps=[-j for j in reversed(f.jumps)])
        else:
            raise ShearError(f"can only negate 'x1' or 'x2', got {flipped!r}")
        return Shear(self.axis, g)

    def to_json(self):
        return {"axis": self.axis, **self.f.to_json()}

    @classmethod
    def from_json(cls, data) -> "Shear":
        return cls(data["axis"], PLFunction.from_json(data))


@dataclass
class Violation:
    first: int
    second: int
    overlap: SurdScalar


@dataclass
class ComposabilityReport:
    violations: list[Violation]
    final: Region = field(repr=False)  # the source pushed through every shear

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        """The verdict and each violation, its overlap area a scalar."""
        return {
            "ok": self.ok,
            "violations": [
                {"first": v.first, "second": v.second, "overlap": v.overlap}
                for v in self.violations
            ],
        }


def check_composable(source: Region, shears: list[Shear]) -> ComposabilityReport:
    """Every point of the source may be moved by at most one shear.

    For i < j the j-th shear must act as the identity on the image (under
    shears i..j-1) of the set moved by shear i; violations are reported as
    the overlapping area, found exactly.  Each piece is labelled with the
    shears that have moved it, so the walk splits every piece once per
    shear, and the report carries the final region along, each piece
    rotated once to its lowest vertex at the end.
    """
    violations: list[Violation] = []
    cur = [(piece, ()) for piece in source.pieces]  # (piece, shears that moved it)
    for j, shear in enumerate(shears):
        hits: dict[int, SurdScalar] = {}
        nxt = []
        for piece, movers in cur:
            for k, part in shear.split(piece):
                if shear.f.slab_is_identity(k):
                    nxt.append((part, movers))
                    continue
                for i in movers:
                    hits[i] = hits.get(i, rat(0)) + part.area()
                nxt.append((shear.map_part(k, part), movers + (j,)))
        violations += [Violation(i, j, a) for i, a in sorted(hits.items())]
        cur = nxt
    return ComposabilityReport(violations,
                               Region([_raw(_from_lowest(piece.vertices)) for piece, _ in cur]))
