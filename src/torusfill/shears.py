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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .surd import SurdScalar, rat, scalar
from .geom import AffineMap2, ConvexPolygon, Region, clip_halfplane, pt


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

    @property
    def num_slabs(self) -> int:
        return len(self.slopes)

    def slab_affine(self, i: int) -> tuple[SurdScalar, SurdScalar]:
        """(constant, slope) of f on slab i."""
        return self._consts[i], self.slopes[i]

    def slab_is_identity(self, i: int) -> bool:
        return self._consts[i].is_zero() and self.slopes[i].is_zero()

    def is_continuous(self) -> bool:
        return all(j.is_zero() for j in self.jumps)

    def to_json(self):
        data = {
            "breakpoints": [b.to_triples() for b in self.breakpoints],
            "slopes": [s.to_triples() for s in self.slopes],
            "anchor": [self.anchor[0].to_triples(), self.anchor[1].to_triples()],
        }
        if not self.is_continuous():
            data["jumps"] = [j.to_triples() for j in self.jumps]
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
    """A planar PL shear along one axis, with its induced 4D symplectomorphism."""

    axis: str  # "x1": x1 += f(x2);  "x2": x2 += f(x1)
    f: PLFunction

    def __post_init__(self):
        if self.axis not in ("x1", "x2"):
            raise ShearError(f"axis must be 'x1' or 'x2', got {self.axis!r}")

    def slab_plane_map(self, i: int) -> AffineMap2:
        c, s = self.f.slab_affine(i)
        if self.axis == "x1":
            return AffineMap2(((1, s), (0, 1)), pt(c, 0))
        return AffineMap2(((1, 0), (s, 1)), pt(0, c))

    def _clip_to_slab(self, poly: ConvexPolygon, lo, hi) -> ConvexPolygon | None:
        """Clip to lo <= coordinate <= hi; a bound of None is not clipped."""
        out = poly
        if self.axis == "x1":  # slab in the x2 coordinate
            if lo is not None:
                out = clip_halfplane(out, pt(0, lo), pt(1, lo))
            if out is not None and hi is not None:
                out = clip_halfplane(out, pt(1, hi), pt(0, hi))
        else:
            if lo is not None:
                out = clip_halfplane(out, pt(lo, 1), pt(lo, 0))
            if out is not None and hi is not None:
                out = clip_halfplane(out, pt(hi, 0), pt(hi, 1))
        return out

    def split(self, poly: ConvexPolygon):
        """(slab, part) for every slab the open polygon meets, in slab order.

        The polygon's bounding-box interval in the slab coordinate is bisected
        to the slabs it meets, so no clip comes out empty for lack of overlap.
        Each part is clipped only along the breakpoints inside that interval;
        a polygon inside one slab is its own part.
        """
        x_lo, x_hi, y_lo, y_hi = poly.bounding_box()
        lo, hi = (y_lo, y_hi) if self.axis == "x1" else (x_lo, x_hi)
        bps = self.f.breakpoints
        first, last = bisect_right(bps, lo), bisect_right(bps, hi)
        if last and hi == bps[last - 1]:
            last -= 1  # the polygon only touches the slab above its top end
        for i in range(first, last + 1):
            part = self._clip_to_slab(poly, bps[i - 1] if i > first else None,
                                      bps[i] if i < last else None)
            if part is not None:
                yield i, part

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
    ok: bool
    violations: list[Violation]
    final: Region = field(repr=False)  # the source pushed through every shear

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [
                {"first": v.first, "second": v.second, "overlap": v.overlap.to_triples()}
                for v in self.violations
            ],
        }


@dataclass
class ShearSequence:
    shears: list[Shear]
    source: Region

    @classmethod
    def from_json(cls, data) -> "ShearSequence":
        return cls([Shear.from_json(s) for s in data["shears"]],
                   Region.from_json(data["source"]))


def check_composable(seq: ShearSequence) -> ComposabilityReport:
    """Every point of the source may be moved by at most one shear.

    For i < j the j-th shear must act as the identity on the image (under
    shears i..j-1) of the set moved by shear i; violations are reported as
    the overlapping area, found exactly.  Each piece is labelled with the
    shears that have moved it, so the walk splits every piece once per
    shear, and the report carries the final region along.
    """
    violations: list[Violation] = []
    cur = [(piece, ()) for piece in seq.source.pieces]  # (piece, shears that moved it)
    for j, shear in enumerate(seq.shears):
        hits: dict[int, SurdScalar] = {}
        nxt = []
        for piece, movers in cur:
            for k, part in shear.split(piece):
                if shear.f.slab_is_identity(k):
                    nxt.append((part, movers))
                    continue
                for i in movers:
                    hits[i] = hits.get(i, rat(0)) + part.area()
                nxt.append((shear.slab_plane_map(k).apply_polygon(part), movers + (j,)))
        violations += [Violation(i, j, a) for i, a in sorted(hits.items())]
        cur = nxt
    return ComposabilityReport(not violations, violations,
                               Region([piece for piece, _ in cur]))


# -- induced 4D symplectomorphism ------------------------------------------

# Standard symplectic Gram matrix on coordinates (x1, x2, y1, y2).
OMEGA0 = (
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
)


def _mat4(rows):
    return tuple(tuple(scalar(e) for e in row) for row in rows)


def jacobian_4d(axis: str, slope) -> tuple:
    s = scalar(slope)
    if axis == "x1":
        return _mat4(((1, s, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -s, 1)))
    return _mat4(((1, 0, 0, 0), (s, 1, 0, 0), (0, 0, 1, -s), (0, 0, 0, 1)))


def is_symplectic_4d(j) -> bool:
    """J^T Omega0 J = Omega0.  Both sides are antisymmetric, so only the six
    entries above the diagonal are compared; entry (a, b) of the left side is
    the symplectic pairing of columns a and b of J."""
    return all(j[0][a] * j[2][b] - j[2][a] * j[0][b] + j[1][a] * j[3][b] - j[3][a] * j[1][b]
               == OMEGA0[a][b] for a in range(4) for b in range(a + 1, 4))


@dataclass
class SlabSymplecticity:
    slab: int
    slope: SurdScalar
    ok: bool


@dataclass
class SymplecticityRecord:
    axis: str
    slabs: list[SlabSymplecticity]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.slabs)

    def to_json(self):
        return {
            "axis": self.axis,
            "ok": self.ok,
            "slabs": [{"slab": s.slab, "slope": s.slope.to_triples(), "ok": s.ok}
                      for s in self.slabs],
        }


def induced_4d_check(shear: Shear) -> SymplecticityRecord:
    """Exact check J^T Omega0 J = Omega0 for every affine piece of the lift."""
    slabs = []
    for i in range(shear.f.num_slabs):
        slope = shear.f.slopes[i]
        j = jacobian_4d(shear.axis, slope)
        slabs.append(SlabSymplecticity(i, slope, is_symplectic_4d(j)))
    return SymplecticityRecord(shear.axis, slabs)
