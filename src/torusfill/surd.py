"""Exact arithmetic in the ring of rational combinations of square roots.

A scalar is a finite sum  sum_i  c_i * sqrt(n_i)  with rational c_i and
pairwise distinct squarefree positive integers n_i (n_i = 1 is the rational
part).  Square roots of distinct squarefree integers are linearly independent
over the rationals, so the canonical form is unique and structural equality
coincides with equality of real values.

A scalar is stored as {n_i: nonzero int numerator} over one positive int
denominator, with no factor common to the denominator and all numerators.
+, - and * work on integers and divide each result by one gcd.  A sum or
difference with a zero operand is the other operand (negated for 0 - y),
and two nonzero rationals skip the per-radicand merge: one cross product
(or product) over d1*d2, reduced by one gcd.  An int operand needs no gcd
for + and -, and one for * and /.  In one field Q(sqrt r) (radicands in
{1, r}) two values add, subtract, multiply and compare on their two
numerators in closed form, and ((a + b sqrt(r)) / d)^-1 is
d (a - b sqrt(r)) / (a^2 - b^2 r); two radicands or more keep the
term-wise merge and the coprime-base inverse.

Order, sign and floor are decided on integer numerators.  A comparison
reads the sign of the numerators of self - other over the product of the
two denominators, with no scalar built for the difference.  One and two
terms are decided in closed form: a sqrt(r1) + b sqrt(r2) with a, b of
opposite signs has the sign of a times that of a^2 r1 - b^2 r2, which is
never 0, and floor((a + b sqrt(r)) / d) follows from isqrt(b^2 r), since
b sqrt(r) lies strictly between consecutive integers (two irrational terms
add one closed-form sign of a three-term value).  Three or more terms
refine: value * denominator * 2**prec is bounded between two integers built
from isqrt(n_i * 4**prec), doubling prec until the bounds decide.  `approx`
takes one enclosure, at a prec read off the numerators beforehand, and
`product_sum_sign` and `product_is_irrational` decide a sign and an
irrationality of products without building them.
`Fraction` appears only where a value enters or leaves: `terms`,
`as_fraction`, `from_terms`, `approx` and the hash of a rational.  The
[radicand, numerator, denominator] triples are read on integers, through
one validator (`_read_triples`) whose numerators over a denominator
`from_triples` reduces, and `cli._json_text` writes a scalar's triples
straight from its numerators.  `lattice_integers` clears groups of such
numerators, a scalar's or the validator's, into the lattice coordinates of
`torus`, with no scalar made per value and the field decided once for all
groups.
`QuadInt` is a + b sqrt(r) on two ints (b != 0) in one field Q(sqrt r),
those coordinates where they share one r: its +, - and * with itself or
an int return a plain int when the sqrt(r) part cancels, and its sign and
floor are the closed forms above.  Linear algebra over Q runs on integers
too: `int_echelon` is a fraction-free Gauss-Jordan elimination,
`rational_rank` reads its rank, and `rational_relations` builds `Fraction`
only for the kernel it returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add, ge, gt, le, lt, mul, sub


class SurdError(ArithmeticError):
    """Raised on operations that leave the ring (e.g. division by zero)."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s*s * t with t squarefree; returns (s, t).  Requires n >= 1."""
    if n < 1:
        raise ValueError(f"radicand must be positive, got {n}")
    s, t, m, d = 1, 1, n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                t *= d
        d += 1 if d == 2 else 2
    return s, t * m


def _coprime_base(ns) -> list[int]:
    """Pairwise coprime factors > 1 whose products give each squarefree n:
    two sharing a gcd g > 1 give way to g and their (coprime) cofactors."""
    base: set[int] = set()
    todo = list(ns)
    while todo:
        m = todo.pop()
        if m == 1 or m in base:
            continue
        for b in base:
            g = gcd(m, b)
            if g > 1:
                base.remove(b)
                todo += [g, m // g, b // g]
                break
        else:
            base.add(m)
    return sorted(base)


def _canonical(pairs) -> tuple[dict[int, int], int]:
    """Numerators over one denominator for the sum of c * sqrt(r) over the
    (r, c) pairs: radicands reduced to squarefree keys, zero terms dropped.
    Each coefficient sum is in lowest terms and the denominator is the lcm of
    theirs, so no prime divides it and every numerator."""
    acc: dict[int, int | Fraction] = {}
    for rad, coeff in pairs:
        if type(rad) is not int:  # a float is not truncated; bool subclasses int
            raise TypeError(f"radicand must be an integer, got {rad!r}")
        if not isinstance(coeff, (int, Fraction)):  # as `rat`: no float, no string
            raise TypeError(f"coefficient must be an int or a Fraction, got {coeff!r}")
        if not coeff:
            continue
        s, t = squarefree_decompose(rad)
        acc[t] = acc.get(t, 0) + coeff * s
    terms = [(t, c) for t, c in acc.items() if c]
    den = lcm(*(c.denominator for _, c in terms))
    return {t: c.numerator * (den // c.denominator) for t, c in terms}, den


def _make(num: dict[int, int], den: int) -> SurdScalar:
    """The scalar with numerators num over den, already canonical."""
    out = object.__new__(SurdScalar)
    out._num, out._den, out._hash = num, den, None
    return out


def _reduced(num: dict[int, int], den: int) -> SurdScalar:
    """The scalar with nonzero numerators num over den > 0, divided through
    by the gcd of den and the numerators."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {r: n // g for r, n in num.items()}
            den //= g
    return _make(num, den)


def _field(x: dict[int, int], y: dict[int, int]) -> int:
    """The r > 1 with every radicand of x and y in {1, r}, or 0 when they
    span two irrational radicands or more, or have none."""
    r = 0
    for num in (x, y):
        for k in num:
            if k != 1:
                if r and k != r:
                    return 0
                r = k
    return r


def _shape_error(triples) -> TypeError:
    """The fault of a scalar that is not a list of three-entry lists."""
    return TypeError("a scalar is a list of [radicand, numerator, denominator] "
                     f"lists, got {type(triples).__name__} {triples!r:.40}")


def _read_triples(triples) -> tuple[dict[int, int], int]:
    """The scalar a list of [radicand, numerator, denominator] lists holds,
    as its nonzero numerators over den, the lcm of the denominators of its
    nonzero terms, not reduced.

    Checked in this order, the first fault raising: the shape (a list of
    three-entry lists, TypeError), every radicand below 2**32 (ValueError),
    and then per triple its numerator and denominator ints (TypeError), the
    denominator nonzero (ZeroDivisionError), the radicand an int
    (TypeError) and, for a nonzero numerator, positive (ValueError from
    `squarefree_decompose`).  A zero term is dropped before its radicand is
    factored, and radicand 1 needs no factoring."""
    if type(triples) is not list:
        raise _shape_error(triples)
    huge = False  # a wrong shape in a later triple is reported first
    for t in triples:
        if type(t) is not list or len(t) != 3:
            raise _shape_error(triples)
        r = t[0]
        if type(r) is int and r >= 1 << 32:
            huge = True
    if huge:
        raise ValueError("radicands must be below 2**32")
    num: dict[int, int] = {}
    den = 1
    for r, n, d in triples:
        # bool subclasses int, so JSON true would otherwise read as 1
        if type(n) is not int or type(d) is not int:
            raise TypeError("numerator and denominator must be integers, "
                            f"got {n!r}, {d!r}")
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        if type(r) is not int:  # a float is not truncated
            raise TypeError(f"radicand must be an integer, got {r!r}")
        if not n:
            continue
        if d < 0:
            n, d = -n, -d
        if r != 1:
            s, r = squarefree_decompose(r)
            n *= s
        if not num:
            num[r], den = n, d
            continue
        if den % d:
            k = d // gcd(den, d)
            num = {t: v * k for t, v in num.items()}
            den *= k
        v = num.get(r, 0) + n * (den // d)
        if v:
            num[r] = v
        else:  # r was there: a new radicand gets a nonzero numerator
            del num[r]
    return num, den


def _sign2(a: int, r1: int, b: int, r2: int) -> int:
    """Sign of a sqrt(r1) + b sqrt(r2) for distinct squarefree r1, r2 >= 1.
    With a and b of opposite signs it is the sign of a times that of
    a^2 r1 - b^2 r2, which is never 0: sqrt(r1 / r2) is irrational."""
    if a > 0 > b or b > 0 > a:
        return 1 if (a * a * r1 > b * b * r2) == (a > 0) else -1
    return (a + b > 0) - (a + b < 0)


def _sign(num: dict[int, int]) -> int:
    """Sign of the sum of n sqrt(r) over the items of num (nonzero
    numerators, distinct squarefree radicands): closed form up to two
    terms, refinement beyond."""
    if len(num) == 2:
        (r1, a), (r2, b) = num.items()
        return _sign2(a, r1, b, r2)
    if len(num) == 1:
        (n,) = num.values()
        return 1 if n > 0 else -1
    if not num:
        return 0
    return _refine(num, 1, 16, lambda lo, hi, _: 1 if lo > 0 else -1 if hi < 0 else None)


def _difference_sign(x: dict[int, int], d1: int, y: dict[int, int], d2: int) -> int:
    """Sign of x/d1 - y/d2 for numerators x, y over positive denominators:
    that of the numerators x d2 - y d1, two ints when both are rational."""
    a, b = x.get(1, 0), y.get(1, 0)
    if len(x) == (a != 0) and len(y) == (b != 0):
        n = a * d2 - b * d1
        return (n > 0) - (n < 0)
    r = _field(x, y)
    if r:
        return _sign2(a * d2 - b * d1, 1, x.get(r, 0) * d2 - y.get(r, 0) * d1, r)
    acc = {r: n * d2 for r, n in x.items()} if d2 != 1 else dict(x)
    for r, n in y.items():
        v = acc.get(r, 0) - n * d1
        if v:
            acc[r] = v
        else:
            del acc[r]
    return _sign(acc)


def _root_floor(b: int, r: int) -> int:
    """floor(b sqrt(r)) for b != 0 and squarefree r > 1: b^2 r is not a
    square, so b sqrt(r) lies strictly between two consecutive integers."""
    m = isqrt(b * b * r)
    return m if b > 0 else -m - 1


def _floor(num: dict[int, int], den: int) -> int:
    """floor of the sum of n sqrt(r) over the items of num, divided by den.

    Up to two terms the numerator sum s is the integer n or lies strictly
    between n and n + 1, with n the rational part plus the floor of each
    root term; either way the floor is n // den.  Two irrational terms
    a sqrt(r1) + b sqrt(r2) lie strictly between m and m + 2 for m the sum
    of their floors, and the sign of s - (m + 1) decides which half: it is
    the sign of s, times that of s^2 - (m+1)^2 (a rational plus
    2ab sqrt(r1 r2)) when s and m + 1 share a sign.  Three or more terms
    refine."""
    if len(num) > 2:
        return _refine(num, den, 32, lambda lo, hi, scale: lo // scale
                       if lo // scale == hi // scale else None)
    n, roots = 0, []
    for r, k in num.items():
        if r == 1:
            n += k
        else:
            n += _root_floor(k, r)
            roots.append((r, k))
    if len(roots) == 2:
        (r1, a), (r2, b) = roots
        s, c = _sign2(a, r1, b, r2), n + 1
        if s == (c > 0) - (c < 0):
            g = gcd(r1, r2)
            s *= _sign2(a * a * r1 + b * b * r2 - c * c, 1, 2 * a * b * g, (r1 // g) * (r2 // g))
        n += s > 0
    return n // den


def _refine(num: dict[int, int], den: int, prec: int, decide):
    """decide(lo, hi, den * 2**prec) on the enclosures of num at prec,
    2 prec, 4 prec, ... until it returns something other than None."""
    while True:
        lo, hi = _enclosure(num, prec)
        out = decide(lo, hi, den << prec)
        if out is not None:
            return out
        prec *= 2


def _enclosure(num: dict[int, int], prec: int) -> tuple[int, int]:
    """Integers lo <= (sum of n sqrt(r) over num) * 2**prec <= hi, from the
    integer square roots isqrt(r * 4**prec) <= sqrt(r) * 2**prec <
    isqrt(...) + 1."""
    lo = hi = 0
    for rad, n in num.items():
        if rad == 1:
            lo += n << prec
            hi += n << prec
            continue
        s = isqrt(rad << (2 * prec))
        if n > 0:
            lo += n * s
            hi += n * (s + 1)
        else:
            lo += n * (s + 1)
            hi += n * s
    return lo, hi


class SurdScalar:
    """Immutable exact scalar: a rational combination of square roots."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: dict[int, int | Fraction] | None = None):
        """The scalar sum of c * sqrt(r) over the items r: c of terms, put in
        canonical form as `from_terms` does."""
        self._num, self._den = _canonical((terms or {}).items())
        self._hash: int | None = None

    # -- constructors (see also `rat` and `sqrt`) ----------------------------

    @classmethod
    def from_terms(cls, pairs) -> SurdScalar:
        """Canonicalize arbitrary (radicand, coefficient) pairs.  A radicand
        must be an int and a coefficient an int or a Fraction; anything else
        raises TypeError."""
        return _make(*_canonical(pairs))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return {r: Fraction(n, self._den) for r, n in self._num.items()}

    @property
    def radicands(self) -> frozenset[int]:
        return frozenset(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and 1 in num)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise SurdError(f"{self} is irrational")
        return Fraction(self._num.get(1, 0), self._den)

    # -- ring operations ----------------------------------------------------

    def _merge(self, other: SurdScalar, op) -> SurdScalar:
        """self op other for op in (add, sub), term by term over the lcm of
        the two denominators.  A zero operand gives the other back, and two
        nonzero rationals n1/d1 and n2/d2 take (n1 d2 op n2 d1) / (d1 d2) and
        one gcd.  Two values of one Q(sqrt r) take the rational and the
        sqrt(r) numerators over the lcm in closed form."""
        x, y = self._num, other._num
        if not y:
            return self
        if not x:
            return other if op is add else -other
        if 1 in x and 1 in y and len(x) + len(y) == 2:
            n = op(x[1] * other._den, y[1] * self._den)
            if not n:
                return _make({}, 1)
            d = self._den * other._den
            g = gcd(n, d)
            return _make({1: n // g}, d // g)
        d1, d2 = self._den, other._den
        r = _field(x, y)
        if r:
            g = gcd(d1, d2)
            a, b = d2 // g, d1 // g
            p = op(x.get(1, 0) * a, y.get(1, 0) * b)
            q = op(x.get(r, 0) * a, y.get(r, 0) * b)
            if not q:
                return _reduced({1: p}, d1 * a) if p else _make({}, 1)
            return _reduced({1: p, r: q} if p else {r: q}, d1 * a)
        if d1 == d2:
            a = b = 1
            acc = dict(x)
        else:
            g = gcd(d1, d2)
            a, b = d2 // g, d1 // g
            acc = {r: n * a for r, n in x.items()}
        for rad, n in y.items():
            s = op(acc.get(rad, 0), n * b)
            if s:
                acc[rad] = s
            else:
                acc.pop(rad, None)
        return _reduced(acc, d1 * a)

    def _plus_int(self, k: int) -> SurdScalar:
        """self + k: the rational numerator moves by k * den, which leaves
        den coprime to the numerators, so no gcd is taken."""
        if not k:
            return self
        num = dict(self._num)
        n = num.get(1, 0) + k * self._den
        if n:
            num[1] = n
        else:
            del num[1]
        return _make(num, self._den)

    def _times_int(self, k: int) -> SurdScalar:
        """self * k, reduced by gcd(den, k) alone: den is coprime to the
        numerators."""
        if not k or not self._num:
            return _make({}, 1)
        g = gcd(self._den, k)
        k //= g
        return _make({r: n * k for r, n in self._num.items()}, self._den // g)

    def _over_int(self, k: int) -> SurdScalar:
        """self / k: the numerators over den * |k|, reduced by gcd(k, numerators)
        alone, since den is coprime to the numerators."""
        if not k:
            raise SurdError("division by zero scalar")
        if not self._num:
            return self
        g = gcd(k, *self._num.values())
        if k < 0:
            g = -g
        return _make({r: n // g for r, n in self._num.items()}, self._den * (k // g))

    def __add__(self, other) -> SurdScalar:
        if type(other) is not SurdScalar:
            if type(other) is int:
                return self._plus_int(other)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self) -> SurdScalar:
        return _make({r: -n for r, n in self._num.items()}, self._den)

    def __sub__(self, other) -> SurdScalar:
        if type(other) is not SurdScalar:
            if type(other) is int:
                return self._plus_int(-other)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._merge(other, sub)

    def __rsub__(self, other) -> SurdScalar:
        if type(other) is int:
            return (-self)._plus_int(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._merge(self, sub)

    def __mul__(self, other) -> SurdScalar:
        if type(other) is not SurdScalar:
            if type(other) is int:
                return self._times_int(other)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = self._num, other._num
        if not x or not y:
            return _make({}, 1)
        if 1 in x and 1 in y:
            if len(x) + len(y) == 2:
                n, d = x[1] * y[1], self._den * other._den
                g = gcd(n, d)
                return _make({1: n // g}, d // g)
            if len(x) == 2 == len(y) and x.keys() == y.keys():
                # (a + b sqrt(r)) (c + e sqrt(r)) = (ac + be r) + (ae + bc) sqrt(r)
                r = max(x)
                a, b, c, e = x[1], x[r], y[1], y[r]
                p, q = a * c + b * e * r, a * e + b * c  # not both 0
                acc = {1: p, r: q} if p and q else {1: p} if p else {r: q}
                return _reduced(acc, self._den * other._den)
        # a rational factor, put second, scales the other's numerators and
        # leaves its radicands unchanged
        if self.is_rational():
            self, other = other, self
        den = self._den * other._den
        if other.is_rational():
            q = other._num[1]
            return _reduced({r: n * q for r, n in self._num.items()}, den)
        acc: dict[int, int] = {}
        for r1, n1 in self._num.items():
            for r2, n2 in other._num.items():
                # radicands are squarefree, so sqrt(r1)*sqrt(r2) = g*sqrt(t)
                # with g = gcd(r1, r2) and t = (r1/g)*(r2/g) squarefree
                g = gcd(r1, r2)
                t = (r1 // g) * (r2 // g)
                v = acc.get(t, 0) + n1 * n2 * g
                if v:
                    acc[t] = v
                else:
                    acc.pop(t, None)
        return _reduced(acc, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> SurdScalar:
        if n < 0:
            return self.inverse() ** (-n)
        out, base = rat(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # past the top bit the square would go unread
                base = base * base
        return out

    def _reciprocal(self) -> SurdScalar:
        """1/self for a nonzero rational self: numerator and denominator
        swap places, and the sign moves to the new numerator."""
        n = self._num[1]
        return _make({1: self._den if n > 0 else -self._den}, abs(n))

    def inverse(self) -> SurdScalar:
        """Multiplicative inverse: in closed form in one Q(sqrt r), else by
        rationalizing over a coprime base.

        In one field, ((a + b sqrt(r)) / d)^-1 = d (a - b sqrt(r)) / N with
        N = a^2 - b^2 r, which is never 0 as r is squarefree > 1; when N < 0
        the numerators and N change sign, and one gcd reduces.

        Otherwise each radicand is a product of pairwise coprime factors b,
        found by gcds alone.  For each b, write the denominator as
        a + c*sqrt(b) with a, c free of sqrt(b), and multiply numerator and
        denominator by a - c*sqrt(b): the new denominator a^2 - b*c^2 is free
        of sqrt(b) and nonzero, since b is squarefree and coprime to the
        other factors, so sqrt(b) does not lie in the field their square
        roots generate.
        """
        if self.is_zero():
            raise SurdError("division by zero scalar")
        if self.is_rational():
            return self._reciprocal()
        r = _field(self._num, {})
        if r:
            a, b, d = self._num.get(1, 0), self._num[r], self._den
            n = a * a - b * b * r
            if n < 0:
                n, d = -n, -d
            return _reduced({1: d * a, r: -d * b} if a else {r: -d * b}, n)
        num, den = rat(1), self
        for b in _coprime_base(r for r in self._num if r > 1):
            conj = _make({r: -n if r % b == 0 else n for r, n in den._num.items()}, den._den)
            num, den = num * conj, den * conj
        if not den.is_rational() or den.is_zero():
            raise SurdError(f"rationalization failed for {self}")
        return num * den._reciprocal()

    def __truediv__(self, other) -> SurdScalar:
        if type(other) is int:
            return self._over_int(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> SurdScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- ordering and sign ---------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}: zero is decided by the canonical form,
        up to two terms in closed form, and beyond by refining an interval
        enclosure until it excludes zero (see `_sign`)."""
        return _sign(self._num)

    def approx(self, digits: int = 30) -> Fraction:
        """A rational within 10**-digits of the true value: the midpoint of
        one `_enclosure`, at the first prec = 32 * 2**j where its width (the
        sum of |n| over the irrational numerators) * 10**digits is below
        den * 2**prec."""
        width = sum(abs(n) for r, n in self._num.items() if r != 1) * 10 ** digits
        prec = 32
        while width >= self._den << prec:
            prec *= 2
        lo, hi = _enclosure(self._num, prec)
        return Fraction(lo + hi, 2 * self._den << prec)

    def __eq__(self, other) -> bool:
        if type(other) is not SurdScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def compare(self, other) -> int:
        """Sign of self - other in {-1, 0, +1} for a SurdScalar, an int or a
        Fraction other, read from the integer numerators of the difference
        (see `_difference_sign`); no scalar is built for it."""
        if type(other) is SurdScalar:
            return _difference_sign(self._num, self._den, other._num, other._den)
        if type(other) is int:
            return _difference_sign(self._num, self._den, {1: other} if other else {}, 1)
        return self.compare(scalar(other))

    def _compare(self, other, test):
        """test(self.compare(other), 0) for test in (lt, le, gt, ge)."""
        if type(other) is SurdScalar:
            return test(_difference_sign(self._num, self._den, other._num, other._den), 0)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return test(self.compare(other), 0)

    def __lt__(self, other):
        return self._compare(other, lt)

    def __le__(self, other):
        return self._compare(other, le)

    def __gt__(self, other):
        return self._compare(other, gt)

    def __ge__(self, other):
        return self._compare(other, ge)

    def __abs__(self) -> SurdScalar:
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return bool(self._num)

    def __hash__(self) -> int:
        # equal values hash equally: a rational scalar hashes like its Fraction
        if self._hash is None:
            self._hash = (hash(self.as_fraction()) if self.is_rational()
                          else hash((self._den, frozenset(self._num.items()))))
        return self._hash

    def floor(self) -> int:
        """Exact integer floor, in closed form up to two terms (see `_floor`)."""
        return _floor(self._num, self._den)

    # -- serialization and display -------------------------------------------

    @classmethod
    def from_triples(cls, triples) -> SurdScalar:
        """Read a list of [radicand, numerator, denominator] lists.  Anything
        else raises TypeError: iterated as it comes, "" or {} would read as
        0.  Radicands must lie below 2**32, so that factoring one by trial
        division cannot hang.  `_read_triples` checks them and sums the
        integer numerators over the lcm of the denominators, with no
        `Fraction`, and one gcd reduces (`geom.region_coordinates` reads a
        region's values with the same checks)."""
        num, den = _read_triples(triples)
        return _reduced(num, den) if num else _make({}, 1)

    def decimal(self, digits: int = 30) -> str:
        """Deterministic fixed-point decimal rendering, rounding half away
        from zero: the magnitude is rounded half up and the sign put back,
        unless the rounded value is 0."""
        scaled = self.approx(digits + 5) * 10 ** digits
        n = (abs(scaled.numerator) * 2 + scaled.denominator) // (2 * scaled.denominator)
        sign = "-" if scaled < 0 and n else ""
        whole, frac = divmod(n, 10 ** digits)
        return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"

    def __repr__(self) -> str:
        return f"SurdScalar({self})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for r, c in sorted(self.terms.items()):
            body = str(c) if r == 1 else (f"{c}*v{r}" if c not in (1, -1) else f"{'-' if c < 0 else ''}v{r}")
            parts.append(body if not parts or body.startswith("-") else "+" + body)
        return "".join(parts).replace("v", "√")


class QuadInt:
    """Immutable a + b sqrt(r) with ints a, b != 0 and squarefree r > 1.

    The integers of one field Q(sqrt r), for the lattice coordinates of
    `torus`: +, -, * and the comparisons take a QuadInt of the same r or an
    int, and a result whose sqrt(r) part is 0 is that plain int.  So a
    QuadInt is never rational, and equality stays structural.  Sign, order
    and floor are those of `_sign2` and `_root_floor` on the two ints.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a: int, b: int, r: int):
        self.a, self.b, self.r = a, b, r

    def __add__(self, other):
        if type(other) is int:
            return QuadInt(self.a + other, self.b, self.r)
        if type(other) is QuadInt:
            b = self.b + other.b
            return QuadInt(self.a + other.a, b, self.r) if b else self.a + other.a
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.a, -self.b, self.r)

    def __sub__(self, other):
        if type(other) is int:
            return QuadInt(self.a - other, self.b, self.r)
        if type(other) is QuadInt:
            b = self.b - other.b
            return QuadInt(self.a - other.a, b, self.r) if b else self.a - other.a
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return QuadInt(other - self.a, -self.b, self.r)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            return QuadInt(self.a * other, self.b * other, self.r) if other else 0
        if type(other) is QuadInt:
            a, b, c, e, r = self.a, self.b, other.a, other.b, self.r
            q = a * e + b * c
            return QuadInt(a * c + b * e * r, q, r) if q else a * c + b * e * r
        return NotImplemented

    __rmul__ = __mul__

    def sign(self) -> int:
        return _sign2(self.a, 1, self.b, self.r)

    def floor(self) -> int:
        return self.a + _root_floor(self.b, self.r)

    def _compare(self, other, test):
        """test(sign of self - other, 0) for test in (lt, le, gt, ge)."""
        if type(other) is int:
            return test(_sign2(self.a - other, 1, self.b, self.r), 0)
        if type(other) is QuadInt:
            return test(_sign2(self.a - other.a, 1, self.b - other.b, self.r), 0)
        return NotImplemented

    def __lt__(self, other):
        return self._compare(other, lt)

    def __le__(self, other):
        return self._compare(other, le)

    def __gt__(self, other):
        return self._compare(other, gt)

    def __ge__(self, other):
        return self._compare(other, ge)

    def __eq__(self, other):
        return (type(other) is QuadInt and self.a == other.a and self.b == other.b
                and self.r == other.r)

    def surd(self) -> SurdScalar:
        """The same value as a SurdScalar."""
        return _make({1: self.a, self.r: self.b} if self.a else {self.r: self.b}, 1)

    def __repr__(self) -> str:
        return f"QuadInt({self.a}, {self.b}, {self.r})"


def lattice_integers(*groups) -> list[tuple[list, int]]:
    """(values, L) per group of (numerators, denominator) pairs, with L the
    lcm of the group's denominators and values the L * n / d in turn: an int
    where rational, and otherwise a QuadInt when every irrational radicand
    of every group is one r, or else a SurdScalar of denominator 1.  The
    field is decided once over all groups, so values of different groups
    multiply; no scalar is reduced, and L is not minimal where the
    numerators share a factor with it."""
    roots = {r for group in groups for num, _ in group for r in num if r != 1}
    root = roots.pop() if len(roots) == 1 else 0
    out = []
    for group in groups:
        den = lcm(*(d for _, d in group))
        values: list[int | QuadInt | SurdScalar] = []
        for num, d in group:
            k = den // d
            if len(num) == (1 in num):
                values.append(num.get(1, 0) * k)
            elif root:
                values.append(QuadInt(num.get(1, 0) * k, num[root] * k, root))
            else:
                values.append(_make({r: n * k for r, n in num.items()}, 1))
        out.append((values, den))
    return out


def product_sum_sign(terms) -> int:
    """Sign of the sum of sign * (product of factors) over the (sign,
    factors) terms, sign +-1 and factors SurdScalars, from enclosures.

    Times 2**(k prec) and the lcm L of the terms' denominators, k the most
    factors of a term, each term is sign * (L / den) * 2**((k - len) prec)
    times the product of its factors' numerator sums, each bounded times
    2**prec by `_enclosure`.  Interval products and sums of those integers
    decide once they exclude 0, prec doubling from 64 to 1024; past that
    the sum is built and signed exactly, so an exact zero returns 0.
    """
    dens = [reduce(mul, (f._den for f in factors)) for _, factors in terms]
    top, k = lcm(*dens), max(len(factors) for _, factors in terms)
    prec = 64
    while prec <= 1024:
        bounds: dict[int, tuple[int, int]] = {}  # by id: u in u * u once
        lo_sum = hi_sum = 0
        for (sign, factors), den in zip(terms, dens):
            lo = hi = sign * (top // den) << (k - len(factors)) * prec
            for f in factors:
                a, b = bounds.get(id(f)) or bounds.setdefault(id(f), _enclosure(f._num, prec))
                corners = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(corners), max(corners)
            lo_sum += lo
            hi_sum += hi
        if lo_sum > 0 or hi_sum < 0:
            return 1 if lo_sum > 0 else -1
        prec *= 2
    return sum((sign * reduce(mul, factors) for sign, factors in terms), rat(0)).sign()


def product_is_irrational(x: SurdScalar, y: SurdScalar) -> bool:
    """not (x * y).is_rational(), from single coefficients of x y: for
    squarefree r and t > 1, sqrt(r) sqrt(r') is a multiple of sqrt(t) only
    for r' = (r / h)(t / h), h = gcd(r, t), and then it is (r / h) sqrt(t).
    The t that radicand pairs produce are tried up to the first nonzero."""
    xn, yn = x._num, y._num
    tried = {1}
    for r1 in xn:
        for r2 in yn:
            g = gcd(r1, r2)
            t = (r1 // g) * (r2 // g)
            if t not in tried:
                tried.add(t)
                if sum(n * yn.get((r // (h := gcd(r, t))) * (t // h), 0) * (r // h)
                       for r, n in xn.items()):
                    return True
    return False


def _coerce(value) -> SurdScalar:
    if isinstance(value, SurdScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return rat(value)
    return NotImplemented


def scalar(value) -> SurdScalar:
    """Strict conversion: SurdScalar, int or Fraction only (no floats)."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")
    return out


def rat(value) -> SurdScalar:
    """The rational scalar with the value of an int or a Fraction; anything
    else (a float, a string) raises TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"rat needs an int or a Fraction, got {value!r}")
    return _make({1: value.numerator} if value else {}, value.denominator)


def sqrt(n: int) -> SurdScalar:
    """sqrt(n) for a positive integer n, reduced to s*sqrt(t); anything but
    an int (a float, a bool) raises TypeError, as in `from_terms`."""
    return SurdScalar.from_terms([(n, 1)])


def int_echelon(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Bareiss' update  m_ij <- (p m_ij - m_ic m_rj) / p'  clears the pivot
    column c from every row i but the pivot row r, where p = m_rc and p' is
    the previous pivot (1 at the start).  Every entry stays a minor of the
    input, so the division is exact, and every pivot row ends up holding the
    last pivot p at its pivot column: m / p is the reduced row echelon form.
    Returns (pivot columns, p, det), with det the determinant of a square
    matrix (0 when singular, and 0 for any other shape).
    """
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    p, sign = 1, 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prev, p, row = p, m[r][col], m[r]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], row)]
        pivots.append(col)
    return pivots, p, sign * p if len(pivots) == len(m) == ncols else 0


def _numerator_matrix(values: Sequence[SurdScalar]) -> list[list[int]]:
    """Rows = radicands, columns = values: column j holds the integer
    numerators of values[j], its coefficient column times its denominator."""
    cols = sorted(set().union(*[v.radicands for v in values]) or {1})
    return [[v._num.get(c, 0) for v in values] for c in cols]


def rational_rank(values: Sequence[SurdScalar]) -> int:
    """Dimension of the span over Q of the values: square roots of distinct
    squarefree integers are linearly independent, so it is the rank of the
    coefficient matrix (rows = radicands, columns = values), read from one
    `int_echelon` of the integer numerator matrix.  Zero values add zero
    columns, and no values have rank 0."""
    return len(int_echelon(_numerator_matrix(values))[0])


def rational_relations(values: list[SurdScalar]) -> list[list[Fraction]]:
    """Basis of the rational vectors n with sum n_i * values_i = 0.

    The kernel of the coefficient matrix A, of dimension
    len(values) - `rational_rank`(values), read off its reduced row echelon
    form: one vector per free column, in ascending column order, with 1 in
    that column and 0 in the other free columns.  `int_echelon` reduces the
    integer numerator matrix m = A diag(den_j) in place; A and m share their
    pivot columns, and the kernel vector y of m for free column fc
    (y_fc = 1, y_pc = -m_i,fc / p) maps to n_j = y_j * den_j / den_fc.
    """
    dens = [v._den for v in values]
    m = _numerator_matrix(values)
    pivots, p, _ = int_echelon(m)
    kernel = []
    for fc in (c for c in range(len(dens)) if c not in pivots):
        vec = [Fraction(0)] * len(dens)
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-m[i][fc] * dens[pc], p * dens[fc])
        kernel.append(vec)
    return kernel


def rationally_independent(values: list[SurdScalar]) -> bool:
    """True iff no nonzero rational combination of the values vanishes: their
    rational rank is their number."""
    if not values:
        raise ValueError("rationally_independent needs a nonempty list")
    return rational_rank(values) == len(values)


def decimal_sqrt(x: SurdScalar, digits: int = 50) -> str:
    """Decimal rendering of sqrt(x) for a nonnegative scalar x (display only)."""
    if x.sign() < 0:
        raise SurdError("decimal_sqrt of a negative scalar")
    scale = 10 ** (digits + 4)
    approx = x.approx(2 * digits + 10)
    n = isqrt((approx.numerator * scale * scale) // approx.denominator)
    n = (n + 5000) // 10 ** 4
    whole, frac = divmod(n, 10 ** digits)
    return f"{whole}.{frac:0{digits}d}"
