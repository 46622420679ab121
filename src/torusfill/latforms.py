"""Linear symplectic forms on lattices.

Covers four jobs: the polarization type of an integral alternating form
(divisor chain d1 | d2 | ... with a unimodular base change to standard
blocks), the SL(4,Z) normalization of an irrational surd-valued form, the
construction of a period lattice whose complex torus carries the form as a
Kaehler form with no nonconstant compact holomorphic curves, and the
certificate of the no-curves conditions for that lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, permutations, product
from math import gcd, lcm
from operator import mul

from .surd import (SurdScalar, decimal_sqrt, int_echelon, product_is_irrational,
                   product_sum_sign, rat, rational_rank, rational_relations,
                   rationally_independent, scalar, sqrt)


class LatticeFormError(ValueError):
    pass


class SearchExhausted(LatticeFormError):
    """A search of `normalize_basis` or `build_period_lattice` ran dry.

    Their docstrings argue that neither can on valid input: the normaliser
    always finds a candidate for an irrational form, and the perturbation
    always finds a direction for a normalized one.  The raises stay as
    guards, so a gap in either argument shows as this error and not as a
    wrong certificate.
    """


# -- integer alternating matrices and polarization type -----------------------


def _ident(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul_int(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


class AlternatingIntMatrix:
    """Antisymmetric nondegenerate integer matrix of even size.  An entry
    that is not an int (a float, a bool, a string) raises TypeError."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        m = [list(row) for row in entries]
        for row in m:
            for e in row:
                if type(e) is not int:
                    raise TypeError(f"matrix entries must be integers, got {e!r}")
        self.n = len(m)
        if self.n % 2 or any(len(row) != self.n for row in m):
            raise LatticeFormError("need a square matrix of even size")
        for i in range(self.n):
            for j in range(self.n):
                if m[i][j] != -m[j][i]:
                    raise LatticeFormError("matrix is not antisymmetric")
        self.entries = m
        if not _det_int(m):
            raise LatticeFormError("matrix is degenerate")

    @classmethod
    def from_blocks(cls, diag: list[int]) -> "AlternatingIntMatrix":
        n = 2 * len(diag)
        m = [[0] * n for _ in range(n)]
        for i, d in enumerate(diag):
            m[2 * i][2 * i + 1] = d
            m[2 * i + 1][2 * i] = -d
        return cls(m)

    def conjugated(self, u: list[list[int]]) -> "AlternatingIntMatrix":
        ut = [list(col) for col in zip(*u)]
        return AlternatingIntMatrix(_mat_mul_int(ut, _mat_mul_int(self.entries, u)))


def polarization_type(b: AlternatingIntMatrix) -> tuple[tuple[int, ...], list[list[int]]]:
    """Divisor chain d1 | d2 | ... | dn and a unimodular base change.

    The returned matrix U satisfies U^T B U = blockdiag([[0, d_j], [-d_j, 0]]).
    Classical gcd reduction in one loop: take a pair (i, j) holding the
    smallest nonzero |value| d as pivot and reduce rows i and j modulo d by
    transvections.  A remainder is smaller than d, so the pivot is re-picked;
    if none is left but d fails to divide a value of the rest, adding that
    value's row to row i makes one.  Otherwise split off the hyperbolic pair.
    """
    n = b.n
    m = [row[:] for row in b.entries]
    u = _ident(n)

    def basis_add(i, j, t):
        # lambda_i += t * lambda_j
        for row in m:
            row[i] += t * row[j]
        m[i] = [a + t * c for a, c in zip(m[i], m[j])]
        for row in u:
            row[i] += t * row[j]

    pairs: list[tuple[int, int, int]] = []
    active = list(range(n))
    while active:
        i, j = min(
            ((i, j) for i in active for j in active if m[i][j]),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
        )
        if m[i][j] < 0:
            i, j = j, i
        d = m[i][j]
        rest = [k for k in active if k not in (i, j)]
        for k in rest:
            basis_add(k, j, -(m[i][k] // d))
            basis_add(k, i, m[j][k] // d)
        if any(m[i][k] or m[j][k] for k in rest):
            continue
        off = next(((k, l) for k in rest for l in rest if m[k][l] % d), None)
        if off is None:
            pairs.append((d, i, j))
            active = rest
        else:
            basis_add(i, off[0], 1)

    order = [idx for _, i, j in pairs for idx in (i, j)]
    perm = [[int(order[c] == r) for c in range(n)] for r in range(n)]
    u_final = _mat_mul_int(u, perm)
    divisors = tuple(d for d, _, _ in pairs)
    check = b.conjugated(u_final)
    expect = AlternatingIntMatrix.from_blocks(list(divisors))
    if check.entries != expect.entries:
        raise LatticeFormError("internal error: base change does not normalize")
    for a, c in zip(divisors, divisors[1:]):
        if c % a:
            raise LatticeFormError("internal error: divisor chain violated")
    return divisors, u_final


# -- surd alternating 4x4 matrices ---------------------------------------------

UPPER_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class AlternatingSurdMatrix:
    """Antisymmetric 4x4 matrix with surd entries, nondegenerate, stored as
    the tuple `upper` of its six strict upper entries in UPPER_INDEX order.
    `volume` keeps the omega^2 coefficient that the constructor checks; the
    normaliser's candidates (`_form`) are built without it, and its winner
    is given |V| of the input (see `_postconditions_hold`)."""

    __slots__ = ("upper", "volume")

    def __init__(self, upper):
        self.upper = tuple(scalar(x) for x in upper)
        if len(self.upper) != 6:
            raise LatticeFormError("need the 6 strict upper-triangle entries")
        self.volume = self.volume_coefficient()
        if self.volume.is_zero():
            raise LatticeFormError("form is degenerate")

    def volume_coefficient(self) -> SurdScalar:
        """Coefficient of omega^wedge^2 against l1* ^ l3* ^ l2* ^ l4*."""
        b12, b13, b14, b23, b24, b34 = self.upper
        return b13 * b24 - b14 * b23 - b12 * b34

    def is_irrational(self) -> bool:
        """True iff the six entries do not all lie on a single rational ray:
        their rational rank is at least 2."""
        return rational_rank(self.upper) >= 2

    def to_json(self):
        """n and the six upper entries, a fresh list of the scalars."""
        return {"n": 2, "upper": list(self.upper)}


def _det_int(a) -> int:
    return int_echelon([list(row) for row in a])[2]


def _perm_sign(perm) -> int:
    """Sign of a permutation: -1 to the number of its inversions."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def _perm_matrix(perm) -> list[list[int]]:
    # column j of the matrix is e_{perm[j]}: new basis vector j = old perm[j]
    return [[int(perm[j] == i) for j in range(4)] for i in range(4)]


def _transvection(target: int, source: int, k: int) -> list[list[int]]:
    # lambda_target += k * lambda_source
    u = _ident(4)
    u[source][target] = k
    return u


def _signed_entry(i: int, j: int) -> tuple[int, int]:
    """Entry (i, j), i != j, of the full matrix as (index into `upper`, sign)."""
    return (UPPER_INDEX.index((i, j)), 1) if i < j else (UPPER_INDEX.index((j, i)), -1)


# the normaliser's permutations by orientation (the sign of det), in the order
# tried, each with what conjugating by it does to `upper`: new entry (i, j) is
# b_{perm[i] perm[j]}, read as an index into `upper` followed by its negatives
PERMUTATIONS = {
    orientation: tuple((perm, tuple(n if sign > 0 else n + 6 for n, sign in
                                    (_signed_entry(perm[i], perm[j]) for i, j in UPPER_INDEX)))
                       for perm in permutations(range(4)) if _perm_sign(perm) == orientation)
    for orientation in (1, -1)
}

# the normaliser's transvections lambda_t += k lambda_s: the pairs (t, s),
# indices from 0, with t and s on different sides of {1, 2 | 3, 4}, then
# 1 <= |k| <= 10 for each pair, both in the order tried
TRANSVECTION_PAIRS = ((1, 2), (1, 3), (3, 0), (2, 0), (3, 1), (2, 1), (0, 2), (0, 3))
TRANSVECTION_KS = tuple(k for k in range(-10, 11) if k)


def _move_group(target: int, source: int):
    """What lambda_t += k lambda_s does to `upper`, for every k.

    Entry (t, j) gains k b_sj for the two j not in {t, s}; stored the way
    round that `upper` holds it, entry (j, t) gains k b_js.  Every other
    entry is kept, among them the diagonal entry of the other side: b34 when
    t is lambda_1 or lambda_2 (target 0 or 1), else b12.  Returns (kept,
    changes): kept is that entry's index in `upper`, and changes holds two
    (index, source index, sign) triples.
    """
    changes = []
    for n, pair in enumerate(UPPER_INDEX):
        if target in pair and source not in pair:
            index, sign = _signed_entry(*(source if x == target else x for x in pair))
            changes.append((n, index, sign))
    return (5 if target < 2 else 0), tuple(changes)


MOVE_GROUPS = tuple((target, source, *_move_group(target, source))
                    for target, source in TRANSVECTION_PAIRS)


def _form(upper) -> AlternatingSurdMatrix:
    # a unimodular base change keeps the omega^2 coefficient nonzero, so the
    # result needs no degeneracy check
    m = AlternatingSurdMatrix.__new__(AlternatingSurdMatrix)
    m.upper = upper
    return m


def _permuted(upper, orientation):
    """Yield (perm, `upper` after perm) for the permutations of that
    orientation in order: six negations in all, then only reindexing."""
    signed = upper + tuple(-x for x in upper)
    for perm, reindex in PERMUTATIONS[orientation]:
        yield perm, tuple(signed[n] for n in reindex)


def _transvected(upper, changes):
    """Yield (k, `upper` after lambda_t += k lambda_s) for k in
    TRANSVECTION_KS, `changes` being the move group's two triples.  Each
    costs two sums, and two products unless k = +-1."""
    (d1, s1, g1), (d2, s2, g2) = changes
    x1, y1, x2, y2 = upper[d1], upper[s1], upper[d2], upper[s2]
    for k in TRANSVECTION_KS:
        new = list(upper)
        c = k * g1
        new[d1] = x1 + y1 if c == 1 else x1 - y1 if c == -1 else x1 + y1 * c
        c = k * g2
        new[d2] = x2 + y2 if c == 1 else x2 - y2 if c == -1 else x2 + y2 * c
        yield k, tuple(new)


@dataclass
class NormalizationResult:
    matrix: AlternatingSurdMatrix
    base_change: list[list[int]]
    determinant: int


def _condition_i(b: AlternatingSurdMatrix) -> bool:
    b12, *_, b34 = b.upper
    if b12.is_zero() and b34.is_zero():
        return True
    if b12.is_zero() or b34.is_zero():
        return False
    return (b12.sign() > 0 and b34.sign() > 0
            and rationally_independent([b12, b34]))


def _condition_ii(b: AlternatingSurdMatrix) -> bool:
    return rational_rank(b.upper[1:5]) >= 2


def _postconditions_hold(b: AlternatingSurdMatrix) -> bool:
    """Conditions (i) and (ii) on a candidate of `normalize_basis`; the two
    signs of the contract hold for every such candidate once (i) does.

    A candidate is U^T B U for a base change U of determinant det U: one of
    the permutations whose sign is the input's orientation, the sign of the
    omega^2 coefficient V of B, followed by transvections of determinant 1.
    Its omega^2 coefficient is V' = det U * V = |V| > 0.  Condition (i)
    makes b12 and b34 both zero or both positive, so b12 b34 >= 0, and
    b13 b24 - b14 b23 = V' + b12 b34 > 0.  So neither product is built."""
    return _condition_i(b) and _condition_ii(b)


def normalize_basis(b: AlternatingSurdMatrix) -> NormalizationResult:
    """Normalize an irrational form per the two-condition contract.

    After a unimodular base change the returned matrix B' has (i) b'_12 and
    b'_34 either both zero or rationally independent and positive, and (ii)
    (b'_13, b'_14, b'_23, b'_24) not a multiple of a rational vector, with
    b'_13 b'_24 - b'_14 b'_23 > 0.  The omega^2 coefficient of U^T B U is
    det U times that of B, so the base change is one of the 12 permutations
    whose sign is the input's orientation (the sign of its omega^2
    coefficient), followed by up to two transvections lambda_t += k lambda_s,
    t and s on different sides of {1, 2 | 3, 4}, 1 <= |k| <= 10: its
    determinant equals that orientation.

    Candidates are visited permutation first, then permutation and one
    transvection, then permutation and two transvections where the first
    already fixes condition (i); the first one meeting the contract wins.

    What a candidate costs.  A permutation only reindexes the entries and
    their negatives, which are taken once per input (PERMUTATIONS).  A
    transvection lambda_t += k lambda_s changes two entries: each b_tj with
    j not in {t, s} gains k b_sj (MOVE_GROUPS).  So it costs two sums, and
    two products unless k = +-1.  The base change is multiplied out for the
    winner only.

    Which candidates are skipped.  A move keeps the diagonal entry of the
    other side: b_34 when t is 1 or 2, b_12 when t is 3 or 4.  Condition (i)
    needs that entry to be zero or positive.  Where it is negative in the
    matrix being extended, none of the 20 moves of that (t, s) pair meets
    (i), so none meets the contract or passes the filter on (i) before a
    second transvection; one sign test per side skips them unbuilt.  Every
    other candidate goes through `_postconditions_hold` in the same order,
    so the winner, and every output byte, are those of checking them all.

    Why some candidate always meets the contract.  Every candidate has
    omega^2 coefficient V > 0, and V = b_13 b_24 - b_14 b_23 - b_12 b_34, so
    (i) already gives the sign in (ii); what remains is (i) and the rank
    (over Q) of the cross block (b_13, b_14, b_23, b_24).  One fixed odd
    permutation flips V, and the odd permutations are it followed by the even
    ones, so take V > 0 and even permutations.
    - An even permutation moves to (b_12, b_34) the two entries of one of the
      pairings {12|34}, {13|24}, {14|23} of the old indices (the pairing's
      diagonal), in either order and either both negated or neither; the
      other four entries, up to sign, form the cross block.
    - Let d, d' be the diagonal, x, y a pairing's two cross entries and u, v
      the other two.  Some listed transvection adds +-k y to d; it adds
      +-k d' to x and leaves d', y, u and v alone.  With the permutation
      that makes d' > 0 and the sign of k that moves d toward the sign of
      d', the result meets the contract iff
      (S) d + ky has the sign of d', for every |k| > |d| / |y|;
      (I) d + ky and d' are rationally independent, which fails for at most
          one k unless y and d lie in Q d';
      (X) {u, v, y, x + k d'} has rank >= 2, which fails for at most one k
          unless u, v, y, x and d' lie on one rational line.
    - A pairing with diagonal (0, 0) has every nonzero entry in its cross
      block, of rank >= 2 as the form is irrational: a permutation suffices.
    - Otherwise let z be an entry of largest magnitude, R its pairing and
      (z, w) R's diagonal.  Take a pairing P != R with a diagonal entry
      d' not in Q z (so d' != 0), d the other one, and y = z.  As
      |d| <= |z|, (S) holds for all 2 <= |k| <= 10; (I) and (X) each fail
      for at most one k, since z, d' are independent.  One transvection
      suffices.
    - Else both pairings P != R have nonzero diagonals inside Q z, so R's
      cross block lies in Q z and w does not, the form being irrational.
      Let m be the largest magnitude in R's cross block.  Adding k y to z,
      keeping w, with |y| = m: (I) and (X) hold for every k, as z + ky is in
      Q z and x + kw is not; (S) holds for some |k| <= 10 if z and w have
      one sign or 10 m > |z|.  Adding k w to the smaller entry d of a
      P != R, keeping the larger d': (I) holds as d + kw is not in Q z, and
      (X) holds as the third pairing's nonzero diagonal and w lie in the
      new cross block; (S) holds for k = +-10 if 10 |w| > m >= |d|.
    - Else z and w differ in sign and 10 |w| <= m.  Adding k y to w with
      |y| = m and k = +-1 gives w the sign of z, and condition (i), leaving
      the cross block in Q z.  A second transvection adding k y' to z, for
      a nonzero cross entry y' and k of the sign that keeps the sign of z,
      puts x' + kw' (x' paired with y') outside Q z next to y': the
      contract holds after two transvections.
    So the final SearchExhausted is unreachable for an irrational form; the
    form with b_12 = 10, b_13 = b_14 = b_24 = 1, b_23 = -1 and
    b_34 = -sqrt(2)/20 is one that needs two transvections.
    """
    if not b.is_irrational():
        raise LatticeFormError("form is rational; normalization needs an irrational form")

    orientation = b.volume.sign()
    starts = [((perm,), _form(permuted)) for perm, permuted in _permuted(b.upper, orientation)]

    def extend(level):
        for path, m in level:
            up = m.upper
            negative = [n for n in (0, 5) if up[n].sign() < 0]
            for target, source, kept, changes in MOVE_GROUPS:
                if kept in negative:
                    continue  # condition (i) fails for every k
                for k, moved in _transvected(up, changes):
                    yield path + ((target, source, k),), _form(moved)

    fixed_i = ((path, m) for path, m in extend(starts) if _condition_i(m))
    for path, m in chain(starts, extend(starts), extend(fixed_i)):
        if _postconditions_hold(m):
            perm, *moves = path
            m.volume = b.volume if orientation > 0 else -b.volume
            base_change = reduce(_mat_mul_int, [_transvection(*move) for move in moves],
                                 _perm_matrix(perm))
            return NormalizationResult(m, base_change, orientation)
    raise SearchExhausted(
        "no permutation followed by at most two transvections normalized the form")


# -- period lattice construction ----------------------------------------------


def _fresh_prime(used_radicands) -> int:
    """Smallest prime dividing none of the used radicands.

    It is the smallest m >= 2 coprime to all of them: each prime factor of
    such an m is coprime to them too and no larger than m, so m is prime.
    """
    m = 2
    while any(gcd(m, r) > 1 for r in used_radicands):
        m += 1
    return m


@dataclass
class PeriodLatticeSolution:
    """Unscaled solution of the period-lattice equations.

    The actual lattice coefficients are rho * (p, q, r, s) with
    rho = sqrt(rho_sq); rho itself may leave the surd ring, so all stored
    quantities are rho-squared expressible.  det is D = p s - q r, as
    `build_period_lattice` computed it.
    """

    b: AlternatingSurdMatrix
    p: SurdScalar
    q: SurdScalar
    r: SurdScalar
    s: SurdScalar
    det: SurdScalar
    x: SurdScalar
    y: SurdScalar
    u: SurdScalar
    rho_sq: SurdScalar
    fresh_radicals: list[int] = field(default_factory=list)

    @property
    def v(self) -> SurdScalar:
        return self.b.upper[0]

    @property
    def zero_case(self) -> bool:
        # b12 = 0 forces b34 = 0 by condition (i), and then v = 0
        return self.b.upper[0].is_zero()

    def rho_decimal(self, digits: int = 50) -> str:
        return decimal_sqrt(self.rho_sq, digits)

    def to_json(self):
        """The solution's values, each scalar held as itself."""
        return {
            "p": self.p, "q": self.q, "r": self.r, "s": self.s,
            "x": self.x, "y": self.y, "u": self.u, "v": self.v,
            "rho_sq": self.rho_sq,
            "rho_decimal_50": self.rho_decimal(50),
            "zero_case": self.zero_case,
            "fresh_radicals": self.fresh_radicals,
            "D": self.det,
        }


def build_period_lattice(normalized: NormalizationResult) -> PeriodLatticeSolution:
    """Solve the six period equations for the form `normalize_basis` returned.

    It takes the normaliser's result, not a bare matrix, because that result
    carries the contract: `normalize_basis` returns a matrix only after
    `_postconditions_hold` has decided conditions (i) and (ii) on it, which
    give b13 b24 - b14 b23 > 0 there.  So nothing here decides them again.
    Neither re-check could fail: not (i) and (ii), and not the open-set
    condition at the base point, which is that same sign (see below).

    Starts from the feasible base point (p, q, r, s) = (b13, b23, b14, b24),
    perturbs it inside the compatibility hyperplane with fresh-radical
    directions until the quadruple has no rational relation, then reads off
    (x, y, u) by the closed formulas and rho^2 by case: b34 / (b12 D) with
    D = p s - q r, or sqrt(P) for a fresh prime P when b12 = b34 = 0.  The
    solution reads v = b12 and zero_case (b12 = 0) from b.

    `verify_no_curves` decides every condition on the result, and nothing
    here decides one again.  Two hold by construction.  Compatibility
    (r b13 - p b14 = q b24 - s b23, so the two formulas for u agree): the
    base point and all six directions lie in that hyperplane.  And in the
    zero case ps_qr_irrational: D is a nonzero element of the field K of the
    used square roots, sqrt(P) is not in K, so rho^2 D = sqrt(P) D is
    irrational.

    Why the perturbation ends after at most two rounds.  By condition (ii)
    the base point has rational rank >= 2, so its relation space R (the
    rational n with n . (p, q, r, s) = 0) has dimension <= 2.  A round takes
    the first relation n and direction w with n . w != 0 and moves the point
    to x + t sqrt(P) w, for a rational t and a prime P dividing no radicand
    used so far.  The entries of w and x lie in the field K of the used
    square roots, and sqrt(P) is not in K, so a rational n' kills the new
    point iff n' . x = 0 and n' . w = 0.  The new R is the part of the old
    one orthogonal to w, which misses n, so each round lowers its dimension.
    The base point lies in the open set {s b13 - q b14 > 0, p s - q r > 0}
    (both read b13 b24 - b14 b23 > 0 there), each accepted point does too,
    and the set is open, so halving t from 1 reaches it after finitely many
    steps.  A relation pairing to zero with all six directions would be
    normal to their span, which is the whole compatibility hyperplane when
    b13 b24 != b14 b23; then (-b14, -b24, b13, b23) would be a multiple of
    it, against condition (ii), so SearchExhausted does not fire here on a
    normalized form.
    """
    b = normalized.matrix
    b12, b13, b14, b23, b24, b34 = b.upper
    p, q, r, s = b13, b23, b14, b24
    used = set()
    for val in b.upper:
        used |= val.radicands
    fresh_used: list[int] = []

    def in_open_set(pp, qq, rr, ss) -> bool:
        # signed from enclosures of the factors: no product is built
        return (product_sum_sign([(1, (ss, b13)), (-1, (qq, b14))]) > 0
                and product_sum_sign([(1, (pp, ss)), (-1, (qq, rr))]) > 0)

    directions = [
        (b13, rat(0), b14, rat(0)),
        (rat(0), b23, rat(0), b24),
        (b24, -b14, rat(0), rat(0)),
        (rat(0), rat(0), b23, -b13),
        (b23, rat(0), rat(0), b14),
        (rat(0), b13, b24, rat(0)),
    ]

    while relations := rational_relations([p, q, r, s]):
        w = next((w for rel in relations for w in directions
                  if not sum((rat(c) * wi for c, wi in zip(rel, w)), rat(0)).is_zero()),
                 None)
        if w is None:
            raise SearchExhausted("no perturbation direction kills the relations")
        prime = _fresh_prime(used)
        step = [sqrt(prime) * wi for wi in w]
        t = rat(1)
        while True:
            cand = [old + t * dw for old, dw in zip((p, q, r, s), step)]
            if in_open_set(*cand):
                break
            t = t / 2
        p, q, r, s = cand
        used.add(prime)
        fresh_used.append(prime)

    det = p * s - q * r
    d_inv = det.inverse()
    x = (s * b13 - q * b14) * d_inv
    y = (p * b24 - r * b23) * d_inv
    u = (p * b14 - r * b13) * d_inv
    if b12.is_zero():
        prime = _fresh_prime(used)
        fresh_used.append(prime)
        rho_sq = sqrt(prime)
    else:
        rho_sq = b34 / b12 * d_inv
    return PeriodLatticeSolution(b, p, q, r, s, det, x, y, u, rho_sq, fresh_used)


@dataclass
class NoCurvesCertificate:
    conditions: dict[str, bool]
    search_bound: int

    @property
    def ok(self) -> bool:
        return all(self.conditions.values())

    def to_json(self):
        return {"ok": self.ok, "conditions": self.conditions,
                "search_bound": self.search_bound}


def _integer_relation_exists(basis: list[list], bound: int) -> bool:
    """Any nonzero integer vector n with |n_i| <= bound and sum n_i v_i = 0,
    given the kernel basis `rational_relations`(v)?

    Decided exactly from that kernel.  Every kernel vector is
    sum_j t_j k_j over the RREF basis k_j, where t_j is its coordinate in the
    j-th free column; an integer vector inside the box therefore has integer
    t in [-bound, bound]^dim, and those are enumerated, keeping the ones whose
    pivot coordinates are integers within the bound.  A zero value v_j,
    and only that, puts a unit vector e_j in the basis.
    """
    if bound < 1 or not basis:
        return False
    if any(sum(map(bool, k)) == 1 for k in basis):
        return True  # a unit vector is a relation
    # no zero value, so the kernel has dimension at most 3 here; scale the
    # basis to integers so that den * n_i = sum_j t_j rows[i][j]
    den = lcm(*(x.denominator for k in basis for x in k))
    rows = [[int(x * den) for x in coord] for coord in zip(*basis)]
    for t in product(range(-bound, bound + 1), repeat=len(basis)):
        if any(t) and all(y % den == 0 and abs(y) <= bound * den
                          for y in (sum(map(mul, row, t)) for row in rows)):
            return True
    return False


def verify_no_curves(sol: PeriodLatticeSolution, bound: int = 20) -> NoCurvesCertificate:
    """Certify the no-holomorphic-curves conditions for a solution.

    Named checks: rational independence of (p, q, r, s); irrationality of
    p s - q r (in its rho^2-scaled form); positivity x > 0 and
    x y - u^2 - v^2 > 0 (checked rho^2-exactly, as rho^2 > 0 and
    x y - u^2 - v^2 rho^2 > 0, so rho^2 is never inverted); the compatibility
    equation; and a bounded integer-relation search on the elimination
    identity -n1 r + n2 p - n3 s + n4 q = 0 that any integral class would
    have to satisfy.

    All on integers, and no product is built only to be signed or tested:
    one `rational_relations` of (-r, p, -s, q), which span what (p, q, r, s)
    span, decides independence (an empty kernel) and gives the integer
    search its kernel; ps_qr_irrational reads single coefficients of
    rho^2 D, D as stored (`product_is_irrational`); positivity signs its sum
    from enclosures of the factors (`product_sum_sign`).
    """
    b12, b13, b14, b23, b24, b34 = sol.b.upper
    kernel = rational_relations([-sol.r, sol.p, -sol.s, sol.q])
    x, y, u, v, rho_sq = sol.x, sol.y, sol.u, sol.v, sol.rho_sq
    conditions = {
        "rationally_independent": not kernel,
        "ps_qr_irrational": product_is_irrational(rho_sq, sol.det),
        "x_positive": x.sign() > 0,
        "positivity": rho_sq.sign() > 0 and product_sum_sign(
            [(1, (x, y)), (-1, (u, u)), (-1, (v, v, rho_sq))]) > 0,
        "compatibility": sol.r * b13 - sol.p * b14 == sol.q * b24 - sol.s * b23,
        "integer_search": not _integer_relation_exists(kernel, bound),
    }
    return NoCurvesCertificate(conditions, bound)

