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
(or product) over d1*d2, reduced by one gcd.  sign, floor
and approx bound value * denominator * 2**prec between two integers built
from isqrt(n_i * 4**prec), doubling prec until the bounds decide.
`Fraction` appears only where a value enters or leaves: `terms`,
`coefficient`, `as_fraction`, `from_terms`, the triples, `approx` and the
hash of a rational.  Linear algebra over Q runs on integers too:
`int_echelon` is a fraction-free Gauss-Jordan elimination, `rational_rank`
reads its rank, and `rational_relations` builds `Fraction` only for the
kernel it returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, ge, gt, le, lt, sub


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

    def coefficient(self, radicand: int) -> Fraction:
        return Fraction(self._num.get(radicand, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and 1 in num)

    def is_irrational(self) -> bool:
        return not self.is_rational()

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise SurdError(f"{self} is irrational")
        return Fraction(self._num.get(1, 0), self._den)

    # -- ring operations ----------------------------------------------------

    def _merge(self, other: SurdScalar, op) -> SurdScalar:
        """self op other for op in (add, sub), term by term over the lcm of
        the two denominators.  A zero operand gives the other back, and two
        nonzero rationals n1/d1 and n2/d2 take (n1 d2 op n2 d1) / (d1 d2) and
        one gcd."""
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
        g = gcd(self._den, other._den)
        a, b = other._den // g, self._den // g
        acc = {r: n * a for r, n in x.items()}
        for rad, n in y.items():
            s = op(acc.get(rad, 0), n * b)
            if s:
                acc[rad] = s
            else:
                acc.pop(rad, None)
        return _reduced(acc, self._den * a)

    def __add__(self, other) -> SurdScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self) -> SurdScalar:
        return _make({r: -n for r, n in self._num.items()}, self._den)

    def __sub__(self, other) -> SurdScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other, sub)

    def __rsub__(self, other) -> SurdScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._merge(self, sub)

    def __mul__(self, other) -> SurdScalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self._num, other._num
        if not x or not y:
            return _make({}, 1)
        if 1 in x and 1 in y and len(x) + len(y) == 2:
            n, d = x[1] * y[1], self._den * other._den
            g = gcd(n, d)
            return _make({1: n // g}, d // g)
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
        out = rat(1)
        base, k = self, n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _reciprocal(self) -> SurdScalar:
        """1/self for a nonzero rational self: numerator and denominator
        swap places, and the sign moves to the new numerator."""
        n = self._num[1]
        return _make({1: self._den if n > 0 else -self._den}, abs(n))

    def inverse(self) -> SurdScalar:
        """Multiplicative inverse, by rationalizing over a coprime base.

        Each radicand is a product of pairwise coprime factors b, found by
        gcds alone.  For each b, write the denominator as a + c*sqrt(b) with
        a, c free of sqrt(b), and multiply numerator and denominator by
        a - c*sqrt(b): the new denominator a^2 - b*c^2 is free of sqrt(b) and
        nonzero, since b is squarefree and coprime to the other factors, so
        sqrt(b) does not lie in the field their square roots generate.
        """
        if self.is_zero():
            raise SurdError("division by zero scalar")
        if self.is_rational():
            return self._reciprocal()
        num, den = rat(1), self
        for b in _coprime_base(r for r in self._num if r > 1):
            conj = _make({r: -n if r % b == 0 else n for r, n in den._num.items()}, den._den)
            num, den = num * conj, den * conj
        if not den.is_rational() or den.is_zero():
            raise SurdError(f"rationalization failed for {self}")
        return num * den._reciprocal()

    def __truediv__(self, other) -> SurdScalar:
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
        """Exact sign in {-1, 0, +1}.

        Zero is decided by the canonical form; otherwise refine an interval
        enclosure, doubling the precision until it excludes zero (guaranteed
        to terminate since a nonzero canonical scalar is a nonzero real).
        """
        if not self._num:
            return 0
        if len(self._num) == 1:
            ((rad, n),) = self._num.items()
            return 1 if n > 0 else -1
        prec = 16
        while True:
            lo, hi = self._enclosure(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _enclosure(self, prec: int) -> tuple[int, int]:
        """Integers lo <= self * den * 2**prec <= hi, from the integer square
        roots isqrt(r * 4**prec) <= sqrt(r) * 2**prec < isqrt(...) + 1."""
        lo = hi = 0
        for rad, n in self._num.items():
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

    def approx(self, digits: int = 30) -> Fraction:
        """A rational within 10**-digits of the true value."""
        prec = 32
        while True:
            lo, hi = self._enclosure(prec)
            scale = self._den << prec
            if (hi - lo) * 10 ** digits < scale:
                return Fraction(lo + hi, 2 * scale)
            prec *= 2

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def _compare(self, other, test):
        """test(sign of self - other, 0) for test in (lt, le, gt, ge)."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return test(self._merge(other, sub).sign(), 0)

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
        """Exact integer floor."""
        if self.is_rational():
            return self._num.get(1, 0) // self._den
        prec = 32
        while True:
            lo, hi = self._enclosure(prec)
            scale = self._den << prec
            flo = lo // scale
            if flo == hi // scale:
                return flo
            prec *= 2

    def ceil(self) -> int:
        return -((-self).floor())

    # -- serialization and display -------------------------------------------

    def to_triples(self) -> list[list[int]]:
        """Canonical [radicand, numerator, denominator] triples, sorted, each
        coefficient in lowest terms."""
        out = []
        for r, n in sorted(self._num.items()):
            g = gcd(n, self._den)
            out.append([r, n // g, self._den // g])
        return out

    @classmethod
    def from_triples(cls, triples) -> SurdScalar:
        """Read a list of [radicand, numerator, denominator] lists.  Anything
        else raises TypeError: iterated as it comes, "" or {} would read as
        0.  Radicands must lie below 2**32, so that factoring one by trial
        division cannot hang."""
        if type(triples) is not list or any(type(t) is not list or len(t) != 3
                                            for t in triples):
            raise TypeError("a scalar is a list of [radicand, numerator, denominator] "
                            f"lists, got {type(triples).__name__} {triples!r:.40}")
        if any(type(r) is int and r >= 2**32 for r, _, _ in triples):
            raise ValueError("radicands must be below 2**32")
        return cls.from_terms((r, _fraction(num, den)) for r, num, den in triples)

    def decimal(self, digits: int = 30) -> str:
        """Deterministic fixed-point decimal rendering (round half away)."""
        scaled = self.approx(digits + 5) * 10 ** digits
        n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
        sign, n = ("-", -n) if n < 0 else ("", n)
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


def _fraction(num, den) -> Fraction:
    # bool subclasses int, so JSON true would otherwise read as 1
    if type(num) is not int or type(den) is not int:
        raise TypeError(f"numerator and denominator must be integers, got {num!r}, {den!r}")
    return Fraction(num, den)


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
