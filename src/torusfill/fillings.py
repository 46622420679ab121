"""Constructors for the explicit torus fillings, with verification bundles.

Each constructor assembles a source region (a diamond, or in `theorem1` the
diamond distorted into a rectangle, two triangles and two flaps), a list of
shears, and a target lattice, then runs the full verification:
composability of the shears, exact injectivity of the final region modulo
the lattice, and exact area bookkeeping.  A certificate holds those three
inputs and what is derived from them, so its JSON alone can be re-checked.
The 4D lift of every shear is symplectic on each slab whatever its slope
(see `shears`), so a certificate carries no per-slab check of it.  A jump
shear, acting on open pieces, realizes the width-zero limit of a steep ramp
band.  The x1-shear is one in `theorem1` at every eps, in `family` at every
k, and in `example3` at eps = 0 only, where eps > 0 puts honest ramps in
its place; `example1`, `example2`, `cube` and `polydisc` have none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surd import SurdScalar, rat, scalar, sqrt
from .geom import ConvexPolygon, Region, pt, rectangle
from .shears import ComposabilityReport, PLFunction, Shear, check_composable
from .torus import Lattice2, LatticeRegion, RegionVerdict


class FillingError(ValueError):
    pass


HALF = Fraction(1, 2)


def diamond(a) -> Region:
    """The open diamond |x1| + |x2| < a/2, as a single convex piece."""
    a = scalar(a)
    if a.sign() <= 0:
        raise FillingError("diamond size must be positive")
    h = a / 2
    return Region([ConvexPolygon([pt(h, 0), pt(0, h), pt(-h, 0), pt(0, -h)])])


@dataclass
class FillingCertificate:
    """Verification bundle for one constructed embedding: the source, the
    shears and the lattice, and what is derived from them."""

    name: str
    params: dict
    source: Region
    shears: list[Shear]
    lattice: Lattice2
    composability: ComposabilityReport  # of the source under the shears
    verdict: RegionVerdict  # of the final region modulo the lattice
    source_area: SurdScalar

    @property
    def final(self) -> Region:
        """The image of the source under the shears."""
        return self.composability.final

    @property
    def area_preserved(self) -> bool:
        return self.source_area == self.verdict.area

    @property
    def valid(self) -> bool:
        return self.composability.ok and self.verdict.injective and self.area_preserved

    def to_json(self):
        verdict = self.verdict
        fraction, decimal = verdict.fraction_json()
        return {
            "name": self.name,
            "params": self.params,
            "source": self.source.to_json(),
            "shears": [s.to_json() for s in self.shears],
            "final": self.final.to_json(),
            "lattice": self.lattice.to_json(),
            "composability": self.composability.to_json(),
            "injectivity": {"ok": verdict.injective, "collisions": verdict.collisions_json()},
            "source_area": self.source_area.to_triples(),
            "final_area": verdict.area.to_triples(),
            "fraction": fraction,
            "fraction_decimal": decimal,
            "valid": self.valid,
            "is_fundamental_domain": verdict.fundamental_domain,
        }


def certify(name, params, source, shears, lattice) -> FillingCertificate:
    shears = list(shears)
    composability = check_composable(source, shears)
    return FillingCertificate(
        name=name,
        params=params,
        source=source,
        shears=shears,
        lattice=lattice,
        composability=composability,
        verdict=LatticeRegion([p.vertices for p in composability.final.pieces],
                              lattice).verdict(),
        source_area=source.area(),
    )


# -- full filling of T(2k^2, 1) ----------------------------------------------

def example_T2k2(k: int = 1) -> FillingCertificate:
    """Diamond of size 2k, one linear shear of slope 2k-1, lattice (2k^2, 1)."""
    if k < 1:
        raise FillingError("k must be a positive integer")
    source = diamond(2 * k)
    shear = Shear("x1", PLFunction.linear(2 * k - 1))
    lattice = Lattice2.rectangular(2 * k * k, 1)
    return certify("example1", {"k": k}, source, [shear], lattice)


# -- filling 8/9 of T(1, 1) ---------------------------------------------------

def _ramp_outside_third() -> PLFunction:
    """f = 0 on [-1/3, 1/3], slope 1 outside (so f(2/3) = 1/3, f(-2/3) = -1/3)."""
    third = Fraction(1, 3)
    return PLFunction([-third, third], [1, 0, 1], anchor=(0, 0))


ORIENTATIONS = ("++", "+-", "-+", "--")


def example_eight_ninths(eps=0, orientation: str = "++") -> FillingCertificate:
    """Diamond of size 4/3 - eps; an x1-shear then the opposite x2-shear.

    The four orientations are the conjugates of the base construction by the
    reflections x1 -> -x1 (first sign) and x2 -> -x2 (second sign).
    """
    eps = scalar(eps)
    if eps.sign() < 0 or (eps - rat(Fraction(1, 10))).sign() >= 0:
        raise FillingError("eps must satisfy 0 <= eps < 1/10")
    if orientation not in ORIENTATIONS:
        raise FillingError(f"orientation must be one of {ORIENTATIONS}")
    a = rat(Fraction(4, 3)) - eps
    source = diamond(a)
    f = _ramp_outside_third()
    shear1 = Shear("x1", f)
    shear2 = Shear("x2", PLFunction(f.breakpoints, [-s for s in f.slopes], anchor=(0, 0)))
    shears = [shear1, shear2]
    if orientation[0] == "-":
        shears = [s.reflect("x1") for s in shears]
    if orientation[1] == "-":
        shears = [s.reflect("x2") for s in shears]
    lattice = Lattice2.rectangular(1, 1)
    return certify("example2", {"eps": str(eps), "orientation": orientation},
                   source, shears, lattice)


# -- filling 49/50 of T(1, 1) -------------------------------------------------

def example_fortynine_fiftieths(eps=0) -> FillingCertificate:
    """Diamond of size 7/5 - eps centered at (1/5, 1/2).

    The x2-shear frees two triangles of height 1/5 and width 1/2 in the right
    rectangle (one on the bottom edge, one on the top); the x1-shear then
    moves the top triangle left by 2/5 and the bottom one right by 2/5 (with
    a slope-1/2 tail so the apexes land inside the freed triangles).  For
    eps > 0 the strong bands are honest ramps pinned at the displacements
    stated for the points A, B, C, D, X, Y, W, Z.
    """
    eps = scalar(eps)
    if eps.sign() < 0 or (eps - rat(Fraction(1, 20))).sign() >= 0:
        raise FillingError("eps must satisfy 0 <= eps < 1/20")
    a = rat(Fraction(7, 5)) - eps
    source = diamond(a).translate(pt(Fraction(1, 5), HALF))

    g = PLFunction(
        [-HALF, Fraction(-1, 10), 0, Fraction(2, 5), HALF, Fraction(9, 10)],
        [0, -HALF, -1, 0, -1, -HALF, 0],
        anchor=(Fraction(1, 5), 0),
    )
    two_fifths = rat(Fraction(2, 5))
    if eps.is_zero():
        f = PLFunction([0, 1], [HALF, 0, HALF], anchor=(HALF, 0),
                       jumps=[-two_fifths, -two_fifths])
    else:
        quarter_eps = eps / 4
        f = PLFunction(
            [-quarter_eps, 0, 1 - quarter_eps, 1],
            [HALF,
             (-(two_fifths - quarter_eps)) / quarter_eps,
             0,
             -two_fifths / quarter_eps,
             HALF],
            anchor=(HALF, 0),
        )
    lattice = Lattice2.rectangular(1, 1)
    return certify("example3", {"eps": str(eps)}, source,
                   [Shear("x2", g), Shear("x1", f)], lattice)


# -- the full filling of T(1, 1) ----------------------------------------------

def theorem1_filling(eps=0) -> FillingCertificate:
    """Distorted diamond of size sqrt(2) - eps/2 fully filling T(1, 1) at eps 0.

    The source is the rectangle (0, w) x (-1/2, 1/2), w = a - 1, with a
    triangle on each horizontal edge (heights summing to w) and a flap on
    each vertical edge (widths W and w, summing to 1), of area a^2/2.

    The left flap (width (1+b)/2) just fits the right rectangle; the x2-shear
    interlocks the two flaps leaving two triangular holes whose heights are
    h_t and h_b; the x1-shear translates the top triangle by (1+b)/2 and the
    bottom one by (1-b)/2 into those holes.  For eps > 0 the same placement
    runs on the smaller diamond, whose triangles sit strictly inside the
    holes.  At every eps the x1-shear is a jump shear: it translates the
    triangles rigidly, by jumps at x2 = -1/2 and x2 = 1/2.
    """
    eps = scalar(eps)
    if eps.sign() < 0 or (eps - rat(Fraction(1, 8))).sign() > 0:
        raise FillingError("eps must satisfy 0 <= eps <= 1/8")
    a = sqrt(2) - eps / 2
    b = rat(3) - 2 * a          # 3 - 2*sqrt(2) at eps = 0
    w = a - 1                   # rectangle width, also the right flap width
    W = rat(2) - a              # right rectangle width, also the left flap width
    h_t_hole = b / W            # bottom hole height (takes the top triangle)
    h_b_hole = b * b / (w * W)  # top hole height (takes the bottom triangle)
    scale = w * w / b           # filler heights relative to hole heights (= 1 at eps 0)
    h_top = scale * h_t_hole
    h_bot = scale * h_b_hole

    h = rat(HALF)
    source = Region([
        rectangle(0, w, -h, h),
        ConvexPolygon([pt(0, h), pt(w, h), pt(2 * w - W, h + h_top)]),
        ConvexPolygon([pt(0, -h), pt(w, -h), pt(b, -h - h_bot)]),
        ConvexPolygon([pt(0, -h), pt(0, h), pt(-W, -h)]),  # left flap
        ConvexPolygon([pt(w, -h), pt(w, h), pt(2 * w, h)]),  # right flap
    ])

    rise = h_t_hole / (w - b)
    g = PLFunction(
        [-w, -b, rat(0), w, w + b, 2 * w],
        [0, rise, -h_t_hole / b, 0, -h_b_hole / b, rise - h_b_hole / b, 0],
        anchor=(w / 2, 0),
    )
    f = PLFunction([-HALF, HALF], [0, 0, 0], anchor=(0, 0), jumps=[-w, W])
    lattice = Lattice2.rectangular(1, 1)
    return certify("theorem1", {"eps": str(eps)}, source,
                   [Shear("x2", g), Shear("x1", f)], lattice)


# -- the family of full fillings of T((2k+1)^2 / (2(k+1)^2), 1) ---------------

def family_filling(k: int = 1) -> FillingCertificate:
    """Diamond of size (2k+1)/(k+1); the top triangle is sliced into k
    horizontal slices of heights j/(k+1)^2 (bottom up) sheared right so the
    right edge of slice j spans an x1-interval of length (2j-1)/(2(k+1)^2);
    the bottom triangle is sheared symmetrically left, and the flaps are
    interlocked by an x2-shear.  A full filling (fraction 1) at every k, and
    the x1-shear is a jump shear at every k: it displaces the slices by W
    through jumps at x2 = 0 and x2 = 1.
    """
    if k < 1:
        raise FillingError("k must be a positive integer")
    a = rat(Fraction(2 * k + 1, k + 1))
    d = a - 1                       # rectangle width = k/(k+1)
    mu = a * a / 2                  # covolume
    W = mu - d                      # right rectangle width
    beta = rat(Fraction(1, 2 * (k + 1) ** 2))   # = W - d

    # hole profile T on (0, 1/2): flat 0 on (0, beta), then rising pieces,
    # slice j contributing run (2j+1)/(2(k+1)^2) at slope 2j/(2j+1)
    runs = [Fraction(2 * j + 1, 2 * (k + 1) ** 2) for j in range(1, k + 1)]
    cuts = [beta]
    for r in runs[:-1]:
        cuts.append(cuts[-1] + r)

    # x2-shear for the flaps: g = -(t - T(t)) mirrored on the left flap,
    # g = T(t) - t on the right flap (t = distance from the attachment edge)
    left_bps = [-c for c in reversed(cuts)] + [rat(0)]
    left_slopes = [rat(Fraction(-1, 2 * j + 1)) for j in range(k, 0, -1)] + [rat(-1)]
    right_bps = [d] + [d + c for c in cuts]
    right_slopes = [rat(-1)] + [rat(Fraction(-1, 2 * j + 1)) for j in range(1, k + 1)]
    g = PLFunction(
        [-rat(HALF)] + left_bps + right_bps + [d + rat(HALF)],
        [rat(0)] + left_slopes + [rat(0)] + right_slopes + [rat(0)],
        anchor=(d / 2, 0),
    )

    # x1-shear for the triangles: slices of heights j/(k+1)^2 above x2 = 1
    # (slope 1/(2j) on slice j), displaced by W; mirrored below x2 = 0
    heights = [Fraction(j, (k + 1) ** 2) for j in range(1, k + 1)]
    csum = []
    acc = Fraction(0)
    for h in heights[:-1]:
        acc += h
        csum.append(acc)
    slice_slopes = [rat(Fraction(1, 2 * j)) for j in range(1, k + 1)]
    f_bps = [-c for c in reversed(csum)] + [rat(0), rat(1)] + [1 + rat(c) for c in csum]
    f_slopes = (list(reversed(slice_slopes)) + [rat(0)] + slice_slopes)
    f_jumps = [rat(0)] * (len(csum)) + [W, W] + [rat(0)] * len(csum)
    f = PLFunction(f_bps, f_slopes, anchor=(HALF, 0), jumps=f_jumps)

    source = diamond(a).translate(pt(d / 2, HALF))
    lattice = Lattice2.rectangular(mu, 1)
    return certify("family", {"k": k}, source,
                   [Shear("x2", g), Shear("x1", f)], lattice)


# -- cube and polydisc fillings ----------------------------------------------

def cube_filling(k: int = 1) -> FillingCertificate:
    """B^2(k) x B^2(k) modeled on (-k/2, k/2)^2; x1-shear of slope k tiles
    the lattice (k^2, 1)."""
    if k < 1:
        raise FillingError("k must be a positive integer")
    h = Fraction(k, 2)
    source = Region([rectangle(-h, h, -h, h)])
    shear = Shear("x1", PLFunction.linear(k))
    lattice = Lattice2.rectangular(k * k, 1)
    return certify("cube", {"k": k}, source, [shear], lattice)


def polydisc_filling(k: int = 1) -> FillingCertificate:
    """B^2(1/k) x B^2(k) modeled on (-1/(2k), 1/(2k)) x (-k/2, k/2); the
    x1-shear of slope 1/k fully fills T(1, 1)."""
    if k < 1:
        raise FillingError("k must be a positive integer")
    source = Region([rectangle(Fraction(-1, 2 * k), Fraction(1, 2 * k),
                               Fraction(-k, 2), Fraction(k, 2))])
    shear = Shear("x1", PLFunction.linear(Fraction(1, k)))
    lattice = Lattice2.rectangular(1, 1)
    return certify("polydisc", {"k": k}, source, [shear], lattice)


CONSTRUCTORS = {
    "example1": example_T2k2,
    "example2": example_eight_ninths,
    "example3": example_fortynine_fiftieths,
    "theorem1": theorem1_filling,
    "family": family_filling,
    "cube": cube_filling,
    "polydisc": polydisc_filling,
}
