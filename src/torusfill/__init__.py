"""Exact constructions and verification of symplectic fillings of 4-tori.

Exact surd arithmetic, planar regions and PL shears, lattice-quotient
injectivity certificates, the explicit ball/cube fillings, lattice normal
forms and period lattices, and the Pell/Seshadri filling bounds.
"""

from .surd import SurdScalar, rat, sqrt, rationally_independent
from .geom import ConvexPolygon, Point2, Region, clip, pt
from .shears import PLFunction, Shear, ShearSequence, check_composable
from .torus import Lattice2, LatticeRegion, RegionVerdict
from .fillings import (
    DistortedDiamond,
    FillingCertificate,
    cube_filling,
    diamond,
    example_T2k2,
    example_eight_ninths,
    example_fortynine_fiftieths,
    family_filling,
    polydisc_filling,
    theorem1_filling,
)
from .latforms import (
    AlternatingIntMatrix,
    AlternatingSurdMatrix,
    build_period_lattice,
    normalize_basis,
    polarization_type,
    verify_no_curves,
)
from .seshadri import (
    PellSolution,
    SeshadriBound,
    pell_min,
    surface_bound,
    table,
    width_filling_convert,
)

__version__ = "0.1.0"
