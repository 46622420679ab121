import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import strategies as st

from torusfill.geom import Region, pt, rectangle
from torusfill.surd import SurdScalar
from torusfill.torus import Lattice2

SMALL_RADICANDS = [1, 2, 3, 5, 6]


@st.composite
def surds(draw, radicands=None, max_terms=3):
    rads = draw(st.lists(
        st.sampled_from(radicands or SMALL_RADICANDS),
        min_size=0, max_size=max_terms, unique=True))
    terms = []
    for r in rads:
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        terms.append((r, Fraction(num, den)))
    return SurdScalar.from_terms(terms)


@st.composite
def nonzero_surds(draw, **kw):
    value = draw(surds(**kw))
    if value.is_zero():
        value = value + 1
    return value


@st.composite
def rationals(draw, bound=9):
    num = draw(st.integers(min_value=-bound, max_value=bound))
    den = draw(st.integers(min_value=1, max_value=bound))
    return Fraction(num, den)


SKEW = Lattice2(pt(1, 0), pt(Fraction(1, 2), 1))


def skewed_doubled_regions():
    """(a, b), region pairs: a small square plus its translate by a*g1 + b*g2
    of SKEW, nudged so that they overlap; collisions occur only at
    mixed-coefficient lattice vectors."""
    base = rectangle(0, Fraction(1, 4), 0, Fraction(1, 4))
    nudge = pt(Fraction(1, 100), Fraction(1, 100))
    return [((a, b), Region([base, base.translate(SKEW.vector(a, b) + nudge)]))
            for a, b in [(2, -1), (1, 1), (-1, 2), (0, 1), (3, -2)]]
