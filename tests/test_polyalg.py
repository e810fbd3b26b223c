"""Polynomial layer: Wronskians, linear ODE solves, roots, gcd, backends."""

import random
import struct
import time
from fractions import Fraction as Q
from math import gcd, isqrt

import pytest

import betheqq as bq
from betheqq import polyalg
from betheqq.bethe import _MACH, _system
from betheqq.polyalg import Poly, RationalFn, _factor, _mp_product, _solve, solve_linear_system
from fixhelp import exact_solved_fixtures, random_bijection_case

F = bq.ExactField()


def P(*coeffs):
    return Poly.make(F, coeffs)


def rand_poly(rng, deg, field=F):
    return Poly.make(field, [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
                     + [Q(rng.randint(1, 9))])


class TestWronskian:
    def test_examples(self):
        assert bq.wronskian(P(1, 1), P(1)).coeffs == (Q(-1),)
        p = P(2, 0, 3)
        assert bq.wronskian(p, p).is_zero
        assert bq.wronskian(P(1), P(0, 1)).coeffs == (Q(1),)

    def test_bilinear(self):
        rng = random.Random(11)
        for _ in range(25):
            p, q = rand_poly(rng, rng.randint(0, 4)), rand_poly(rng, rng.randint(0, 4))
            a, b = Q(rng.randint(1, 7), rng.randint(1, 3)), Q(rng.randint(-7, -1))
            lhs = bq.wronskian(p.scale(a), q.scale(b))
            rhs = bq.wronskian(p, q).scale(a * b)
            assert (lhs - rhs).is_zero

    def test_product_rule(self):
        rng = random.Random(12)
        for _ in range(25):
            p, q, r = (rand_poly(rng, rng.randint(0, 3)) for _ in range(3))
            lhs = bq.wronskian(p * r, q * r)
            rhs = (r * r) * bq.wronskian(p, q)
            assert (lhs - rhs).is_zero


class TestLinearOde:
    def test_examples(self):
        assert bq.solve_linear_ode(F, 1, P(0, 1)).coeffs == (Q(-1), Q(1))
        assert bq.solve_linear_ode(F, 0, P(1)).coeffs == (Q(0), Q(1))
        assert bq.solve_linear_ode(F, 2, Poly.zero(F)).is_zero

    def test_right_inverse_and_injectivity(self):
        rng = random.Random(13)
        for _ in range(25):
            xi = Q(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice([1, -1])
            p = rand_poly(rng, rng.randint(0, 5))
            h = bq.solve_linear_ode(F, xi, p)
            assert (h.deriv() + h.scale(xi) - p).is_zero
            assert h.degree() == p.degree()
        # kernel of h -> h' + xi h on polynomials is zero
        assert bq.solve_linear_ode(F, Q(3), Poly.zero(F)).is_zero


class TestRootsAndGcd:
    def test_poly_from_roots(self):
        assert bq.poly_from_roots(F, [0]).coeffs == (Q(0), Q(1))
        assert bq.poly_from_roots(F, [1, 2]).coeffs == (Q(2), Q(-3), Q(1))
        assert bq.poly_from_roots(F, [], lead=Q(5)).coeffs == (Q(5),)

    def test_poly_from_roots_pairs_exact_conjugates(self):
        # the linear factors in order, then one real quadratic per exact
        # conjugate pair (m, conj m), Im m > 0: a real polynomial of mpf
        # coefficients; q+ and Lambda_i are both built this way
        N = bq.NumericField(256)
        m = N([Q(5, 6), Q(1, 3)])
        p = bq.poly_from_roots(N, [m.conjugate(), N(2), m, N([1, 1])], lead=3)
        quadratic = Poly.make(N, [m.real ** 2 + m.imag ** 2, -2 * m.real, 1])
        assert p == Poly.const(N, 3) * Poly.make(N, [-2, 1]) * Poly.make(N, [-N([1, 1]), 1]) * quadratic
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(m, (1,)), (m.conjugate(), (1,))], [Q(1, 2)])
        assert bq.build_lambdas(inst)[0] == quadratic
        assert {type(c) for c in quadratic.coeffs} == {N.ctx.mpf}

    def test_checks(self):
        assert not bq.distinct_roots_check(P(0, 0, 1))  # z^2
        assert bq.coprime_check(P(1, 1), P(1))
        assert not bq.coprime_check(P(2, -3, 1), P(-1, 1))  # shared root 1
        with pytest.raises(ValueError):
            bq.distinct_roots_check(Poly.zero(F))

    def test_rational_roots(self):
        p = bq.poly_from_roots(F, [Q(1, 2), Q(-3), Q(-3)], lead=Q(4))
        assert sorted(bq.rational_roots(p)) == [Q(-3), Q(-3), Q(1, 2)]
        with pytest.raises(ValueError):
            bq.rational_roots(P(2, 0, 1))  # z^2 + 2 has no rational roots

    def test_numeric_roots_companion(self):
        N = bq.NumericField(192)
        given = [N([1, 2]), N([-3, 0]), N("1/4")]
        p = bq.poly_from_roots(N, given)
        found = bq.roots(p)
        for w in given:
            assert min(abs(w - v) for v in found) < N.ctx.mpf(2) ** -150

    def test_gcd(self):
        p = P(2, -3, 1)  # (z-1)(z-2)
        q = P(-1, 1)
        assert bq.gcd(p, q).coeffs == (Q(-1), Q(1))
        assert bq.gcd(p, P(1)).degree() == 0


def divisor_search(p):
    """The former ``rational_roots``: try every +-u/v with u | a_0 and v | a_n
    of the integer polynomial, deflating by each root found.  Time grows
    with the square roots of the end coefficients; kept as a reference."""
    roots, work = [], p
    while not work.is_zero and work.degree() > 0:
        den = 1
        for c in work.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in work.coeffs]

        def divisors(n):
            return sorted({d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})

        root = Q(0) if ints[0] == 0 else next(
            (Q(s * u, v) for u in divisors(abs(ints[0])) for v in divisors(abs(ints[-1]))
             for s in (1, -1) if work(Q(s * u, v)) == 0), None)
        if root is None:
            raise ValueError("polynomial does not split over the rationals")
        roots.append(root)
        work = work.deflate(root)
    return roots


def synthetic_division(p, root):
    """The former ``Poly.deflate``: synthetic division by (z - root), the
    remainder discarded; kept as the reference for ``divmod``."""
    if p.is_zero:
        return p
    root = p.field(root)
    n = len(p.coeffs) - 1
    out = [p.field.zero] * n
    acc = p.coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = p.coeffs[k] + acc * root
    return Poly.make(p.field, out)


class TestDeflate:
    @pytest.mark.parametrize("field", [F, bq.NumericField(80), bq.NumericField(256)], ids=["exact", "80", "256"])
    def test_matches_synthetic_division(self, field):
        # bit for bit and type for type, at a root of p and elsewhere, with
        # real and (numeric) complex roots and coefficients
        rng = random.Random(str(field))

        def scalar(kind):
            x = Q(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
            if isinstance(field, bq.ExactField):
                return x
            return field(x) if kind == "real" else field([x, Q(rng.randint(-999, 999), rng.randint(1, 99))])

        for trial in range(120):
            kinds = ["real"] if isinstance(field, bq.ExactField) or trial % 3 == 0 else ["real", "complex"]
            roots = [scalar(rng.choice(kinds)) for _ in range(rng.randint(0, 5))]
            p = bq.poly_from_roots(field, roots, lead=scalar(rng.choice(kinds)))
            if trial % 2:
                p = p + Poly.make(field, [scalar(rng.choice(kinds))])  # the quotient leaves a remainder
            for w in roots[:2] + [scalar(rng.choice(kinds))]:
                got, want = p.deflate(w), synthetic_division(p, w)
                assert [bits(c) for c in got.coeffs] == [bits(c) for c in want.coeffs], (trial, w)
        for p in (Poly.zero(field), Poly.const(field, 3)):
            assert p.deflate(1).is_zero and synthetic_division(p, 1).is_zero


#: irreducible over the rationals: complex pairs, real irrational pairs, a cubic
IRREDUCIBLE = [(1, 0, 1), (-2, 0, 1), (1, 1, 1), (-5, 0, 3), (-1, -1, 1), (-1, 3, 2), (-2, 0, 0, 1)]


def split_or_not(rng):
    """lead * prod (z - r) over up to 4 roots drawn from 3, so roots repeat,
    with a negative or fractional lead; times an irreducible factor 35% of the time."""
    pool = [Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)]
    lead = Q(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 2))
    p = bq.poly_from_roots(F, [rng.choice(pool) for _ in range(rng.randint(0, 4))], lead=lead)
    return p * P(*rng.choice(IRREDUCIBLE)) if rng.random() < 0.35 else p


def multiset_or_none(find, p):
    try:
        return sorted(find(p))
    except ValueError:
        return None


class TestRationalRoots:
    def test_matches_divisor_search(self):
        rng = random.Random(24)
        polys = [split_or_not(rng) for _ in range(2000)]
        expected = [multiset_or_none(divisor_search, p) for p in polys]
        assert [multiset_or_none(bq.rational_roots, p) for p in polys] == expected
        split = [e for e in expected if e is not None]
        assert len(split) > 1000 and len(polys) - len(split) > 500
        assert sum(len(set(e)) < len(e) for e in split) > 300  # repeated roots

    @pytest.mark.parametrize("extra", [P(1), P(1, 0, 1)], ids=["split", "times-z2+1"])
    def test_big_coefficients(self, extra):
        # 8-digit decimals: the divisor search runs for minutes on these
        p = bq.poly_from_roots(F, [Q("0.12345678"), Q("0.87654321")]) * extra
        t0 = time.perf_counter()
        if extra.degree():
            with pytest.raises(ValueError, match="does not split"):
                bq.rational_roots(p)
        else:
            assert sorted(bq.rational_roots(p)) == [Q("0.12345678"), Q("0.87654321")]
        assert time.perf_counter() - t0 < 5

    def test_exact_roots_are_ordered(self):
        given = [Q(1), Q(-1), Q(1, 2), Q(1), Q(0)]
        found = bq.roots(bq.poly_from_roots(F, given, lead=Q(-3, 2)))
        assert found == F.ordered(given) == [Q(-1), Q(0), Q(1, 2), Q(1), Q(1)]


class TestBackendAgreement:
    def test_exact_vs_numeric_on_rationals(self):
        N = bq.NumericField(256)
        rng = random.Random(14)
        for _ in range(10):
            coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] + [Q(1)]
            other = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)] + [Q(1)]
            pe, qe = Poly.make(F, coeffs), Poly.make(F, other)
            pn, qn = Poly.make(N, coeffs), Poly.make(N, other)
            we, wn = bq.wronskian(pe, qe), bq.wronskian(pn, qn)
            assert we.degree() == wn.degree()
            for k in range(len(we.coeffs)):
                assert abs(N(we.coeff(k)) - wn.coeff(k)) <= N.tau
            xi = Q(rng.randint(1, 5))
            he, hn = bq.solve_linear_ode(F, xi, pe), bq.solve_linear_ode(N, N(xi), pn)
            for k in range(len(he.coeffs)):
                assert abs(N(he.coeff(k)) - hn.coeff(k)) <= N.tau * 4


def scalar_product(p, q):
    """The schoolbook product as one scalar operation per term."""
    out = [p.field.zero] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly.make(p.field, out)


def raw_bits(p):
    """The raw (re, im) mpf tuples of every coefficient, an mpf as (x, 0)."""
    zero = (0, 0, 0, 0)
    return [getattr(c, "_mpc_", None) or (c._mpf_, zero) for c in p.coeffs]


class TestNumericProduct:
    @staticmethod
    def rand_scalar(rng, ctx, kind):
        def mag():
            x = ctx.mpf(rng.randint(1, 10 ** 12)) / rng.choice((3, 7, 11))
            return rng.choice((-1, 1)) * ctx.ldexp(x, rng.randint(-400, 400))

        if kind == "zero":
            return rng.choice((ctx.mpf(0), ctx.mpc(0)))
        if kind == "mpf":
            return mag()
        if kind == "real":
            return ctx.mpc(mag(), 0)
        if kind == "imag":
            return ctx.mpc(0, mag())
        return ctx.mpc(mag(), mag())

    def rand_poly(self, rng, field, kinds, deg):
        ctx = field.ctx
        coeffs = [self.rand_scalar(rng, ctx, rng.choice(kinds)) for _ in range(deg)]
        lead = self.rand_scalar(rng, ctx, rng.choice([k for k in kinds if k != "zero"] or ["mpc"]))
        return Poly(field, tuple(coeffs) + (lead,))

    @pytest.mark.parametrize("prec", [24, 53, 256, 512])
    def test_bit_identical_to_scalar_loop(self, prec):
        field = bq.NumericField(prec)
        rng = random.Random(prec)
        mixes = [("mpf", "real", "imag", "mpc", "zero"), ("mpf", "real", "zero"), ("imag", "zero"),
                 ("mpc",), ("mpf",), ("real",)]
        for trial in range(60):
            kinds = mixes[trial % len(mixes)]
            p = self.rand_poly(rng, field, kinds, rng.randint(0, 5))
            q = self.rand_poly(rng, field, rng.choice(mixes), rng.randint(0, 5))
            got, want = p * q, scalar_product(p, q)
            assert raw_bits(got) == raw_bits(want), (prec, trial)
            assert list(map(type, got.coeffs)) == list(map(type, want.coeffs)), (prec, trial)

    def test_kernel_takes_real_operands_only(self):
        # mpf operands only run the integer kernel; any mpc returns None, a
        # real one included, and takes the scalar loop
        ctx = bq.NumericField(256).ctx
        real = [ctx.mpf(3) / 7, ctx.mpf(-2), ctx.mpf(0)]
        assert all(type(c) is ctx.mpf for c in _mp_product(ctx, real, real))
        for odd in (ctx.mpc(5, 0), ctx.mpc(0), ctx.mpc(1, 2), ctx.mpc(0, -1), ctx.mpc(1, ctx.inf), ctx.inf):
            assert _mp_product(ctx, real + [odd], real) is None
            assert _mp_product(ctx, real, [odd]) is None

    def test_exact_zeros_inside_kept_at_the_top_trimmed(self):
        field = bq.NumericField(256)
        ctx = field.ctx
        p, r = Poly.make(field, [1, (0, 1)]), Poly.make(field, [1, (0, -1)])  # 1 + iz, 1 - iz
        assert raw_bits(p * r) == raw_bits(scalar_product(p, r))
        assert (p * r).degree() == 2 and (p * r).coeffs[1] == 0
        zero_top = Poly(field, (ctx.mpc(2, 1), ctx.mpf(0)))
        q = Poly(field, (ctx.mpf(3), ctx.mpc(0)))
        assert raw_bits(zero_top * q) == raw_bits(scalar_product(zero_top, q))
        assert (zero_top * q).degree() == 0

    def test_non_finite_and_foreign_entries_match(self):
        field = bq.NumericField(128)
        ctx = field.ctx
        other = bq.NumericField(64).ctx
        cases = [
            Poly(field, (ctx.mpf(0), ctx.inf)),
            Poly(field, (ctx.mpc(1, 0), ctx.mpc(ctx.nan, 2))),
            Poly(field, (3, ctx.mpf(2))),
            Poly(field, (other.mpf(1) / 3, ctx.mpf(1))),
        ]
        q = Poly(field, (ctx.mpc(0, 1), ctx.mpf(0), ctx.mpf(5) / 3))
        for p in cases:
            assert raw_bits(p * q) == raw_bits(scalar_product(p, q))

    @pytest.mark.parametrize("field", [F, bq.NumericField(256)], ids=["exact", "numeric"])
    def test_power_matches_repeated_products(self, field):
        rng = random.Random(15)
        p = rand_poly(rng, 3, field)
        one = Poly.const(field, 1)
        naive = one
        for n in range(6):
            got = p ** n
            if isinstance(field, bq.ExactField):
                assert got.coeffs == naive.coeffs
            else:
                assert (got - naive).norm() <= field.tau * naive.norm()
                # bit for bit: square-and-multiply from the constant 1
                want, base, k = one, p, n
                while k:
                    if k & 1:
                        want = want * base
                    base, k = base * base, k >> 1
                assert raw_bits(got) == raw_bits(want), n
            naive = naive * p
        with pytest.raises(ValueError):
            p ** -1


class TestZeroHandling:
    def test_zero_poly_is_distinguished(self):
        z = Poly.zero(F)
        assert z.is_zero
        with pytest.raises(ValueError):
            z.degree()

    def test_chop_logs_and_trims(self, caplog):
        N = bq.NumericField(64)
        noisy = Poly(N, (N(1), N(1), N.ctx.mpf(2) ** -60))
        with caplog.at_level("WARNING"):
            out = bq.chop(noisy)
        assert out.degree() == 1
        assert any("chop" in rec.message for rec in caplog.records)

    def test_chop_keeps_exact(self):
        p = P(1, 2, 3)
        assert bq.chop(p) is p


class TestRationalFn:
    def test_reduction(self):
        r = RationalFn.make(P(2, -3, 1), P(-1, 1))  # (z-1)(z-2)/(z-1)
        assert r.num.coeffs == (Q(-2), Q(1))
        assert r.den.coeffs == (Q(1),)

    def test_zero_denominator(self):
        with pytest.raises(bq.ZeroDenominator):
            RationalFn.make(P(1), Poly.zero(F))

    def test_derivative(self):
        r = RationalFn.make(P(1), P(0, 1))  # 1/z
        d = r.deriv()  # -1/z^2
        assert d.num.coeffs == (Q(-1),)
        assert d.den.coeffs == (Q(0), Q(0), Q(1))
        x = Q(3, 2)
        assert d(x) == Q(-1) / x ** 2


class TestLinearSolve:
    def test_consistent(self):
        sol, defect = solve_linear_system(F, [[1, 2], [3, 4]], [5, 6])
        assert defect == 0
        assert sol[0] * 1 + sol[1] * 2 == 5 and sol[0] * 3 + sol[1] * 4 == 6

    def test_inconsistent_exact(self):
        sol, defect = solve_linear_system(F, [[1, 1], [2, 2]], [1, 3])
        assert sol is None and defect != 0

    def test_underdetermined_particular(self):
        sol, defect = solve_linear_system(F, [[1, 1]], [4])
        assert defect == 0 and sol[0] + sol[1] == 4


def dense_gauss_jordan(field, rows, rhs):
    """The former ``_gauss_jordan``: every row update runs over every column
    from the pivot's on, zeros of the pivot row included; kept as a reference."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivot_tol = field.tau * field.max_abs([v for row in rows for v in row])
    piv_cols = []
    r = 0
    for c in range(n):
        k = field.largest([a[i][c] for i in range(r, m)])
        if k is None or field.within(a[r + k][c], pivot_tol):
            continue
        piv = r + k
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        for i in range(m):
            if i == r or a[i][c] == 0:
                continue
            factor = a[i][c] / inv
            for j in range(c, n + 1):
                a[i][j] = a[i][j] - factor * a[r][j]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return a, piv_cols


def bits(v):
    """A scalar's exact representation: mpf/mpc tuples, float bytes, or a
    Fraction's numerator and denominator.  Float zeros count as one: a
    skipped x - f*0 may keep -0.0 where the dense loop gave +0.0, and no
    result reads the sign of a zero."""
    if hasattr(v, "_mpc_") or hasattr(v, "_mpf_"):
        return type(v).__name__, getattr(v, "_mpc_", None) or v._mpf_
    if isinstance(v, (float, complex)):
        return type(v).__name__, struct.pack("dd", v.real + 0.0, v.imag + 0.0)
    return type(v).__name__, v.numerator, v.denominator


def value_bits(v):
    """``bits`` without the type: an entry the zero skips leave alone stays
    an mpf (a float) where the reference's x - f*0, f complex, makes an mpc
    (a complex) of the same value."""
    if hasattr(v, "_mpc_") or hasattr(v, "_mpf_"):
        return getattr(v, "_mpc_", None) or (v._mpf_, (0, 0, 0, 0))
    return bits(complex(v) if isinstance(v, float) else v)[1:]


def assert_same_elimination(field, rows, *rhss, key=bits):
    """``_factor`` once, then ``_solve`` for each of ``rhss``: the rows and each
    solved right-hand side are the reference's elimination of ``[rows | rhs]``,
    compared by ``key``."""
    factored = _factor(field, rows)
    reduced, pivots, _ = factored
    for rhs in rhss:
        fast = [row + [b] for row, b in zip(reduced, _solve(factored, rhs))]
        dense, dense_piv = dense_gauss_jordan(field, rows, rhs)
        assert pivots == dense_piv
        assert [[key(v) for v in row] for row in fast] == [[key(v) for v in row] for row in dense]


def completion_systems(monkeypatch, cases):
    """Every system ``complete_minus`` eliminates for the (instance, roots) ``cases``."""
    seen, factor, solve = [], polyalg._factor, polyalg._solve

    def factor_spy(field, rows):
        seen.append((field, rows))
        return factor(field, rows)

    def solve_spy(factored, rhs):
        seen[-1] += (rhs,)
        return solve(factored, rhs)

    monkeypatch.setattr(polyalg, "_factor", factor_spy)
    monkeypatch.setattr(polyalg, "_solve", solve_spy)
    for inst, roots in cases:
        bq.roots_to_solution(inst, roots)
    monkeypatch.undo()
    return seen


class TestGaussJordanZeroSkips:
    """Skipping the zero entries of the pivot row changes no bit of the reduction."""

    def test_banded_completion_systems(self, monkeypatch):
        N = bq.NumericField(256)
        rng = random.Random(25)
        cases = [(inst, roots) for inst, roots, _ in exact_solved_fixtures()]
        for rank in (1, 2, 3, 3):
            inst, part = random_bijection_case(rng, rank, N)
            cases.append((inst, bq.seed_and_continue(inst, part)))
        zero_xi = bq.QQInstance.make(bq.CartanType("A", 1), F, [], [0])  # xi = 0: one more column
        cases.append((zero_xi, bq.BetheRoots.make(F, [[]])))
        systems = completion_systems(monkeypatch, cases)
        banded = [rows for _, rows, _ in systems if any(not v for row in rows for v in row)]
        assert len(banded) > 10 and any(len(rows[0]) > 2 for rows in banded)
        for field, rows, rhs in systems:
            assert_same_elimination(field, rows, rhs)

    @pytest.mark.parametrize("precision", [53, 256])
    def test_dense_newton_jacobians(self, precision):
        # A3 with roots of colors 1 and 3 only: those columns do not couple
        field = bq.NumericField(precision)
        rng = random.Random(precision)
        for rank in (2, 3, 3):
            inst, part = random_bijection_case(rng, rank, field)
            roots = bq.BetheRoots.make(field, [[w + field("0.01") for w in ws] for ws in part.w_sets])
            if roots.total() == 0:
                continue
            res, _, jac = _system(inst).sweep(roots, jacobian=True)
            assert_same_elimination(field, jac, res)
            machine = _system(inst).to(_MACH)
            rounded = bq.BetheRoots(tuple(tuple(complex(w) for w in c) for c in roots.roots))
            jac = machine.sweep(rounded, residual=False, jacobian=True)[2]
            assert_same_elimination(_MACH, jac, [complex(v) for v in res])

    def test_machine_signed_zeros(self):
        # zero parts of either sign, structural zeros and real entries with a
        # -0.0 imaginary part: the same reduction up to the signs of zeros
        rng = random.Random(0)
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        for _ in range(300):
            n = rng.randint(1, 5)

            def entry():
                u = rng.random()
                if u < 0.4:
                    return rng.choice(zeros)
                if u < 0.7:
                    return complex(rng.uniform(-2, 2), rng.choice([0.0, -0.0]))
                return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

            rows = [[entry() for _ in range(n)] for _ in range(rng.randint(1, n))]
            assert_same_elimination(_MACH, rows, [entry() for _ in rows])

    def test_exact(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else Q(0)
                     for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
            assert_same_elimination(F, rows, [Q(rng.randint(-3, 3)) for _ in rows])


def random_entries(field, rng):
    """A draw of nonzero scalars of ``field``: rationals on ``ExactField``,
    real and complex values at mixed scales on the numeric fields."""
    if isinstance(field, bq.ExactField):
        return lambda: Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    cplx = field.ctx.mpc if field.precision > 53 else complex

    def entry():
        re = field(rng.uniform(-2, 2)) * 2 ** rng.randint(-40, 40)
        return re if rng.random() < 0.5 else cplx(re, field(rng.uniform(-2, 2)))

    return entry


class TestFactorSolve:
    """One ``_factor``, then ``_solve`` per right-hand side: bit for bit the
    reference's Gauss-Jordan elimination of each ``[rows | rhs]``."""

    @pytest.mark.parametrize("field", [bq.NumericField(256), _MACH, F], ids=["numeric", "machine", "exact"])
    def test_matches_the_augmented_elimination(self, field):
        rng = random.Random(7)
        entry, zero, deficient = random_entries(field, rng), field.zero, 0
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[entry() if rng.random() < 0.7 else zero for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.4:  # a repeated row
                rows[-1] = list(rows[0])
            if rng.random() < 0.3:  # a zero column
                col = rng.randrange(n)
                for row in rows:
                    row[col] = zero
            rhss = ([zero] * m, [entry() if rng.random() < 0.5 else zero for _ in range(m)], [entry() for _ in range(m)])
            assert_same_elimination(field, rows, *rhss, key=value_bits)
            deficient += len(_factor(field, rows)[1]) < min(m, n)
        assert deficient > 30

    @pytest.mark.parametrize("field", [bq.NumericField(256), F], ids=["numeric", "exact"])
    def test_solve_linear_system_reads_the_reference(self, field):
        # solution and defect from the reference's reduced rows, bit for bit
        rng = random.Random(8)
        entry = random_entries(field, rng)
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[entry() if rng.random() < 0.6 else field.zero for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.4:
                rows[-1] = [2 * v for v in rows[0]]
            rhs = [entry() if rng.random() < 0.7 else field.zero for _ in range(m)]
            dense, pivots = dense_gauss_jordan(field, rows, rhs)
            defect = field.max_abs([row[n] for row in dense[len(pivots):]])
            sol, got_defect = solve_linear_system(field, rows, rhs)
            assert value_bits(got_defect) == value_bits(defect)
            if isinstance(field, bq.ExactField) and defect != 0:
                assert sol is None
                continue
            want = [field.zero] * n
            for row, c in zip(dense, pivots):
                want[c] = row[n] / row[c]
            assert [value_bits(v) for v in sol] == [value_bits(v) for v in want]
