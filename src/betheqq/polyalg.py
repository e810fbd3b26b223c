"""Univariate polynomials and rational functions over a scalar backend.

Dense coefficient vectors, lowest degree first.  The zero polynomial is the
distinguished empty vector and is never produced by silently discarding
small numeric coefficients: tolerance-based trimming happens only in
:func:`chop`, which logs a warning when it removes anything that is not an
exact zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Sequence

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp

from .errors import PoleCollision, ZeroDenominator
from .scalars import ExactField, Field


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies ``z**k``."""

    field: Field
    coeffs: tuple

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(field: Field, coeffs: Iterable) -> "Poly":
        """Build a polynomial, coercing entries and trimming exact-zero tails."""
        cs = [field(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def const(field: Field, value) -> "Poly":
        return Poly.make(field, [value])

    # -- shape ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def lc(self):
        """Leading coefficient."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.field.is_zero(self.lc() - self.field.one)

    def norm(self):
        """Max coefficient magnitude (0 for the zero polynomial)."""
        return self.field.max_abs(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly.make(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        field = self.field
        ctx = getattr(field, "ctx", None)
        if isinstance(ctx, MPContext):
            out = _mp_product(ctx, self.coeffs, other.coeffs)
            if out is not None:
                return Poly(field, out)
        out = [field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(field, out)

    def scale(self, c) -> "Poly":
        c = self.field(c)
        if c == 0:
            return Poly.zero(self.field)
        return Poly(self.field, tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.const(self.field, 1)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def deriv(self) -> "Poly":
        return Poly.make(self.field, [k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        lead = self.lc()
        return Poly(self.field, tuple(c / lead for c in self.coeffs))

    def __call__(self, x):
        """Horner evaluation."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division (quotient, remainder)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Poly.zero(self.field), self
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        lead = other.coeffs[-1]
        quot = [self.field.zero] * (len(rem) - dlen + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + dlen - 1] / lead
            quot[k] = q
            if q != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - q * b
        return Poly.make(self.field, quot), Poly.make(self.field, rem[: dlen - 1])

    def deflate(self, root) -> "Poly":
        """The quotient of the division by (z - root); the remainder is discarded."""
        return self.divmod(Poly.make(self.field, [-self.field(root), 1]))[0]

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if isinstance(self.field, ExactField) and c == 0:
                continue
            terms.append(f"({c})*z^{k}" if k else f"({c})")
        return "Poly(" + " + ".join(terms) + ")"


def _mp_parts(ctx: MPContext, coeffs: Sequence):
    """``(man, exp)`` with a signed integer mantissa for each of ``coeffs``,
    or None unless every entry is a finite mpf of ``ctx`` and ``ctx`` rounds
    to nearest.  Any mpc, a real one included, is refused: the scalar loop
    multiplies it."""
    if ctx._prec_rounding[1] != "n":
        return None
    mpf, parts = ctx.mpf, []
    for c in coeffs:
        if type(c) is not mpf:  # an mpc, or not a scalar of ctx
            return None
        s, m, e, _ = c._mpf_
        if e and not m:  # inf or nan
            return None
        parts.append((-m if s else m, e))
    return parts


def _mp_product(ctx: MPContext, a: Sequence, b: Sequence):
    """Coefficients of the product of two nonzero coefficient vectors of
    ``ctx`` mpf scalars, as a trimmed tuple of mpf; None when
    :func:`_mp_parts` rejects an operand, any mpc included.

    Bit for bit and type for type the loop ``out[i + j] = out[i + j] +
    a[i] * b[j]`` from the field's mpf zero, on integer mantissas: each
    coefficient adds its terms in order of increasing ``i``.  A term is its
    exact product rounded once, then added to the accumulator with one more
    rounding, both to nearest with ties to even as mpmath's ``mpf_mul`` and
    ``mpf_add`` round them.  Exactly zero products are skipped, since adding
    one leaves the rounded accumulator as it is; an operand more than
    ``2 * prec + 4`` binades below the other cannot move the sum and is
    dropped.
    """
    pa, pb = _mp_parts(ctx, a), _mp_parts(ctx, b)
    if pa is None or pb is None:
        return None
    prec = ctx.prec
    na, nb = len(pa), len(pb)
    drop = 2 * prec + 4
    out = []
    for k in range(na + nb - 1):
        rm = re = 0
        for i in range(max(0, k - nb + 1), min(k + 1, na)):
            xr, xre = pa[i]
            yr, yre = pb[k - i]
            t = xr * yr
            if not t:
                continue
            te = xre + yre
            n = t.bit_length() - prec
            if n > 0:
                q = t >> (n - 1)
                t = (q >> 1) + 1 if q & 1 and (q & 2 or t & ((1 << (n - 1)) - 1)) else q >> 1
                te += n
            if not rm:
                rm, re = t, te
                continue
            d = re - te
            if d > drop:
                continue
            if d < -drop:
                rm, re = t, te
                continue
            if d > 0:
                rm, re = (rm << d) + t, te
            else:
                rm += t << -d
            n = rm.bit_length() - prec
            if n > 0:
                q = rm >> (n - 1)
                rm = (q >> 1) + 1 if q & 1 and (q & 2 or rm & ((1 << (n - 1)) - 1)) else q >> 1
                re += n
        out.append((rm, re))
    while out and not out[-1][0]:
        out.pop()
    return tuple(ctx.make_mpf(from_man_exp(rm, re)) for rm, re in out)


def chop(p: Poly) -> Poly:
    """Trim sub-tolerance trailing coefficients (numeric backend only).

    Logs a warning whenever a nonzero coefficient is dropped, so degree
    bookkeeping never changes silently.
    """
    field = p.field
    if isinstance(field, ExactField) or p.is_zero:
        return p
    ref = p.norm()
    cs = list(p.coeffs)
    dropped = False
    while cs and field.is_zero(cs[-1], scale=ref):
        if cs[-1] != 0:
            dropped = True
        cs.pop()
    if dropped:
        import logging
        logging.getLogger(__name__).warning("chop: trimmed sub-tolerance leading coefficients (scale %s)", ref)
    return Poly(field, tuple(cs))


def poly_from_roots(field: Field, roots: Sequence, lead=1) -> Poly:
    """lead * prod (z - r) over the root multiset: the linear factors of the
    roots outside exact conjugate pairs, in order, then z^2 - 2 Re(m) z +
    |m|^2 for each exact pair (m, conj m), Im m > 0, in the order of m."""
    rest, pairs = [field(r) for r in roots], []
    for m in list(rest):
        if m.imag > 0 and m.conjugate() in rest:
            rest.remove(m)
            rest.remove(m.conjugate())
            pairs.append(m)
    p = Poly.const(field, lead)
    for r in rest:
        p = p * Poly.make(field, [-r, 1])
    for m in pairs:
        p = p * Poly.make(field, [m.real ** 2 + m.imag ** 2, -2 * m.real, 1])
    return p


def wronskian(p: Poly, q: Poly) -> Poly:
    """W(p, q) = p q' - q p'."""
    return p * q.deriv() - q * p.deriv()


def solve_linear_ode(field: Field, xi, p: Poly) -> Poly:
    """The polynomial h with h' + xi*h = p.

    For xi != 0 the solution is unique with deg h = deg p, found by
    back-substitution from the top coefficient.  For xi = 0 it is the
    antiderivative of p with zero constant term.
    """
    xi = field(xi)
    if xi == 0:
        return Poly.make(field, [field.zero] + [c / field(k + 1) for k, c in enumerate(p.coeffs)])
    if p.is_zero:
        return Poly.zero(field)
    m = p.degree()
    h = [field.zero] * (m + 1)
    h[m] = p.coeffs[m] / xi
    for k in range(m - 1, -1, -1):
        h[k] = (p.coeff(k) - field(k + 1) * h[k + 1]) / xi
    return Poly.make(field, h)


# -- gcd / root machinery --------------------------------------------------


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the exact backend (Euclid)."""
    if not isinstance(p.field, ExactField):
        raise NotImplementedError("gcd is exact-backend only; use root separations numerically")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    if a.is_zero:
        return a
    return a.monic()


def rational_roots(p: Poly) -> list[Fraction]:
    """All roots of an exact polynomial, with multiplicity; ValueError when
    it does not split over the rationals.

    With denominators cleared and ``a`` the leading coefficient, a root u/v
    has v | a, so y = a z is an integer root of the monic integer polynomial
    q(y) = a^(n-1) p(y/a).  Newton's step, rounded down and at least 1,
    runs down from a bound on every |y|; from above the largest root of a
    real-rooted q it never passes that root, and each exact root it meets
    is divided out.  Above the remaining roots q and q' are positive, so
    q(x) < 0 or q'(x) <= 0 there proves a root that is not rational.
    """
    if not isinstance(p.field, ExactField):
        raise NotImplementedError("rational_roots requires the exact backend")
    if p.is_zero:
        raise ValueError("zero polynomial")
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in reversed(p.coeffs)]  # highest degree first
    a = ints[0]
    q = [1] + [c * a ** k for k, c in enumerate(ints[1:])]
    # |y| < 2 max_k |q_(n-k)|^(1/k) at every root; each k-th root is rounded up to a power of 2
    x = 2 * max((1 << -(-abs(c).bit_length() // k) for k, c in enumerate(q[1:], 1)), default=1)
    roots = []
    while len(q) > 1:
        val = slope = 0
        for c in q:  # Horner for q(x) and q'(x)
            slope, val = slope * x + val, val * x + c
        if val == 0:
            roots.append(Fraction(x, a))
            q = list(accumulate(q[:-1], lambda acc, c: acc * x + c))  # q / (y - x)
        elif val < 0 or slope <= 0:
            raise ValueError("polynomial does not split over the rationals")
        else:
            x = min(x - val // slope, x - 1)
    return roots


def roots(p: Poly) -> list:
    """Roots of ``p`` with multiplicity, using the field's native route.

    Exact backend: :func:`rational_roots` (raises if the polynomial does
    not split over the rationals).  Numeric backend: eigenvalues of the
    companion matrix followed by one Newton polish per root.  Either way
    the roots come in ``field.ordered`` order.
    """
    field = p.field
    if p.is_zero:
        raise ValueError("zero polynomial")
    if isinstance(field, ExactField):
        return field.ordered(rational_roots(p))
    q = chop(p)
    if q.is_zero:
        raise ValueError("polynomial is numerically zero")
    if q.degree() == 0:
        return []
    mon = q.monic()
    n = mon.degree()
    if n == 1:
        return [-mon.coeffs[0]]
    ctx = field.ctx
    comp = ctx.zeros(n, n)
    for k in range(n):
        comp[k, n - 1] = -mon.coeffs[k]
        if k + 1 < n:
            comp[k + 1, k] = ctx.mpf(1)
    eigs = ctx.eig(comp, left=False, right=False)
    dp = mon.deriv()
    polished = []
    for w in eigs:
        w = ctx.mpc(w)
        slope = dp(w)
        if abs(slope) > 0:
            w = w - mon(w) / slope
        polished.append(w)
    return field.ordered(polished)


def _near(field: Field, value, pool) -> int | None:
    """Index of the first entry of ``pool`` within ``tau_root`` of ``value``,
    or None: the one rule for coinciding roots (equality on the exact backend)."""
    return next((k for k, p in enumerate(pool) if abs(value - p) <= field.tau_root), None)


def distinct_roots_check(p: Poly) -> bool:
    """True when ``p`` has no multiple roots."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree() == 0:
        return True
    if isinstance(p.field, ExactField):
        g = gcd(p, p.deriv())
        return g.degree() == 0
    rs = roots(p)
    return all(_near(p.field, r, rs[k + 1:]) is None for k, r in enumerate(rs))


def coprime_check(p: Poly, q: Poly) -> bool:
    """True when ``p`` and ``q`` share no root."""
    if p.is_zero or q.is_zero:
        raise ValueError("zero polynomial")
    if p.degree() == 0 or q.degree() == 0:
        return True
    if isinstance(p.field, ExactField):
        return gcd(p, q).degree() == 0
    rq = roots(q)
    return all(_near(p.field, r, rq) is None for r in roots(p))


# -- rational functions ----------------------------------------------------


@dataclass(frozen=True)
class RationalFn:
    """Quotient of two polynomials; reduced (monic denominator) when exact."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "RationalFn":
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if isinstance(num.field, ExactField):  # gcd(0, den) is den made monic: 0/1
            g = gcd(num, den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.lc()
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return RationalFn(num, den)

    @staticmethod
    def from_poly(p: Poly) -> "RationalFn":
        return RationalFn(p, Poly.const(p.field, 1))

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.num.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return RationalFn.make(self.num * other.den, self.den * other.num)

    def deriv(self) -> "RationalFn":
        return RationalFn.make(
            self.num.deriv() * self.den - self.num * self.den.deriv(), self.den * self.den
        )

    def __call__(self, x):
        dv = self.den(x)
        if self.field.is_zero(dv, scale=self.den.norm()):
            raise PoleCollision(f"evaluation at a pole ({x})")
        return self.num(x) / dv

    def defect(self, other: "RationalFn"):
        """|self - other| as a relative max-coefficient norm after clearing
        denominators (0 iff equal).

        The scale includes the denominator product: unreduced numeric operands
        can carry numerators that are pure cancellation noise relative to their
        (huge) denominators, and those must measure as zero.
        """
        field = self.field
        lhs = self.num * other.den
        rhs = other.num * self.den
        diff = (lhs - rhs).norm()
        return diff / max(lhs.norm(), rhs.norm(), self.den.norm() * other.den.norm(), field.abs(field.one))

    def __repr__(self) -> str:
        return f"RationalFn({self.num!r} / {self.den!r})"


def log_deriv(p: Poly) -> RationalFn:
    """p'/p."""
    if p.is_zero:
        raise ZeroDenominator("log derivative of the zero polynomial")
    return RationalFn.make(p.deriv(), p)


# -- dense linear solves ---------------------------------------------------


def _factor(field: Field, rows: list[list]):
    """Gauss-Jordan elimination of ``rows``, scalars of ``field``, under the
    pivot policy of :func:`solve_linear_system`: ``(reduced, pivots, steps)``,
    the reduced rows (a copy), the pivot columns in increasing order, row k
    holding the pivot of column ``pivots[k]`` (a column with no admissible
    pivot is skipped), and per pivot the row swapped in and the row factors."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) for row in rows]
    pivot_tol = field.tau * field.max_abs([v for row in rows for v in row if v])
    # x - f*0 is x up to the sign of a float zero, so zero entries of the
    # pivot row are skipped
    piv_cols, steps = [], []
    for c in range(n):
        r = len(piv_cols)
        k = field.largest([a[i][c] for i in range(r, m)])
        if k is None or field.within(a[r + k][c], pivot_tol):
            continue
        piv = r + k
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        inv = top[c]
        cols = [j for j in range(c, n) if top[j]]
        factors = [(i, a[i][c] / inv) for i in range(m) if i != r and a[i][c]]
        for i, factor in factors:
            row = a[i]
            for j in cols:
                row[j] = row[j] - factor * top[j]
        piv_cols.append(c)
        steps.append((piv, factors))
        if r + 1 == m:
            break
    return a, piv_cols, steps


def _solve(factored, rhs: list) -> list:
    """``rhs`` under the swaps and row factors of ``factored = _factor(field, rows)``:
    bit for bit the last column of the elimination of ``[rows | rhs]``."""
    b = list(rhs)
    for r, (piv, factors) in enumerate(factored[2]):
        b[r], b[piv] = b[piv], b[r]
        for i, factor in factors if b[r] else ():  # a zero b[r] changes no row
            b[i] = b[i] - factor * b[r]
    return b


def solve_linear_system(field: Field, rows: list[list], rhs: list):
    """Gaussian elimination with partial pivoting over the scalar field.

    The package's one elimination, :func:`_factor` then :func:`_solve`, as
    Newton's directions run it: a pivot is the largest entry of its column
    and must exceed ``tau * ||rows||`` (relative, at any scale of the
    matrix) on the numeric backend, or be nonzero on the exact one.

    Returns ``(solution, defect)`` where ``solution`` sets free variables to
    zero and ``defect`` is the max residual magnitude of the eliminated
    zero-rows (exactly 0 for a consistent exact system).  ``solution`` is
    None when the system is structurally inconsistent on the exact backend.
    """
    n = len(rows[0]) if rows else 0
    a, piv_cols, _ = factored = _factor(field, [[field(v) for v in row] for row in rows])
    b = _solve(factored, [field(v) for v in rhs])
    defect = field.max_abs(b[len(piv_cols):])  # rows with no pivot
    if isinstance(field, ExactField) and defect != 0:
        return None, defect
    sol = [field.zero] * n
    for k, c in enumerate(piv_cols):
        sol[c] = b[k] / a[k][c]
    return sol, defect
