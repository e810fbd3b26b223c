"""qq-system core: residuals, nondegeneracy, completion, folding."""

import random
from fractions import Fraction as Q

import pytest

import betheqq as bq
from betheqq.polyalg import Poly, RationalFn
from betheqq.qqcore import equation_holds
from fixhelp import a1_standard, a2_rational, b2_rational, g2_rational

F = bq.ExactField()


def P(*coeffs):
    return Poly.make(F, coeffs)


def a1_instance(points, zeta):
    return bq.QQInstance.make(bq.CartanType("A", 1), F, points, zeta)


class TestBuildLambdas:
    def test_single_point(self):
        inst = a1_instance([(0, (1,))], [1])
        assert bq.build_lambdas(inst)[0].coeffs == (Q(0), Q(1))

    def test_two_points(self):
        inst = a1_instance([(1, (1,)), (2, (1,))], [1])
        assert bq.build_lambdas(inst)[0].coeffs == (Q(2), Q(-3), Q(1))

    def test_empty_color(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 2), F, [(0, (1, 0))], [1, 1])
        lams = bq.build_lambdas(inst)
        assert lams[0].coeffs == (Q(0), Q(1))
        assert lams[1].coeffs == (Q(1),)

    def test_lead_and_extra(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), F, [(0, (1,))], [1],
                                  lead=[Q(3)], extra=[P(1, 1)])
        assert bq.build_lambdas(inst)[0].coeffs == (Q(0), Q(3), Q(3))  # 3z(z+1)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            a1_instance([(1, (1,)), (1, (2,))], [1])


class TestResidual:
    def test_examples(self):
        inst = a1_instance([(0, (1,))], [Q(1, 2)])  # xi = 1
        sol = bq.QQSolution.make([P(1, 1)], [P(1)])
        assert bq.qq_residual(inst, sol, 1).is_zero

        inst0 = bq.QQInstance.make(bq.CartanType("A", 1), F, [], [0], lead=[1])
        sol0 = bq.QQSolution.make([P(1)], [P(0, 1)])
        assert bq.qq_residual(inst0, sol0, 1).is_zero

        solz = bq.QQSolution.make([P(1, 1)], [Poly.zero(F)])
        assert bq.qq_residual(inst, solz, 1).coeffs == (Q(0), Q(-1))  # -z

    def test_pair_scaling_fixes_lhs(self):
        inst, _, sol = a2_rational()
        c = Q(7, 3)
        for i in (1, 2):
            qp, qm = sol.q_plus[i - 1], sol.q_minus[i - 1]
            lhs1 = bq.wronskian(qp, qm) + (qp * qm).scale(inst.xi(i))
            qp2, qm2 = qp.scale(c), qm.scale(1 / c)
            lhs2 = bq.wronskian(qp2, qm2) + (qp2 * qm2).scale(inst.xi(i))
            assert (lhs1 - lhs2).is_zero


class TestEquationHolds:
    def test_agrees_with_residuals(self):
        for inst, _, sol in (a1_standard(), a2_rational(), b2_rational()):
            assert all(equation_holds(inst, sol, i) for i in range(1, inst.rank + 1))
            assert bq.residuals_vanish(inst, sol)
            bumped = list(sol.q_minus)
            bumped[0] = bumped[0] + P(1)
            bad = bq.QQSolution.make(sol.q_plus, bumped)
            res = bq.qq_residual(inst, bad, 1)
            assert not equation_holds(inst, bad, 1)
            assert not equation_holds(inst, bad, 1, res)
            assert not bq.residuals_vanish(inst, bad)

    def test_numeric_relative_scale(self):
        N = bq.NumericField(256)
        inst, _, sol = a2_rational(field=N)
        tiny = N.ctx.mpf(2) ** -300
        nudged = bq.QQSolution.make(sol.q_plus, [q + Poly.const(N, tiny) for q in sol.q_minus])
        assert not bq.qq_residual(inst, nudged, 1).is_zero
        assert equation_holds(inst, nudged, 1)


class TestNondegenerate:
    def test_examples(self):
        inst = a1_instance([(0, (1,))], [Q(1, 2)])
        ok = bq.check_nondegenerate(inst, [P(1, 1)])
        assert ok.ok and ok.monic == (True,)
        bad = bq.check_nondegenerate(inst, [P(0, 1)])
        assert not bad.ok and bad.coprime_to_lambda == (False,)
        inst2 = bq.QQInstance.make(bq.CartanType("A", 2), F, [(5, (1, 1))], [1, 1])
        pair = bq.check_nondegenerate(inst2, [P(0, 1), P(0, 1)])
        assert pair.pairwise_coprime == {(1, 2): False} and not pair.ok

    def test_relatively_prime_consequence(self):
        for inst, _, sol in (a1_standard(), a2_rational(), b2_rational()):
            assert bq.check_nondegenerate(inst, sol.q_plus).ok
            for qp, qm in zip(sol.q_plus, sol.q_minus):
                assert bq.gcd(qp, qm).degree() == 0


class TestExpectedDegree:
    def test_examples(self):
        inst = a1_instance([(0, (1,))], [Q(1, 2)])  # xi = 1
        assert bq.expected_minus_degree(inst, [1], 1) == 0
        inst0 = a1_instance([(0, (1,))], [0])  # xi = 0
        assert bq.expected_minus_degree(inst0, [0], 1) == 2
        inst2 = bq.QQInstance.make(bq.CartanType("A", 2), F, [(0, (1, 0))], [1, 1])
        assert inst2.xi(1) != 0
        assert bq.expected_minus_degree(inst2, [1, 0], 1) == 0


class TestCompletion:
    def test_standard(self):
        inst = a1_instance([(0, (1,))], [Q(1, 2)])
        sol = bq.complete_minus(inst, [P(1, 1)])
        assert sol.q_minus[0].coeffs == (Q(1),)

    def test_zero_pairing_constant_convention(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), F, [], [0])
        sol = bq.complete_minus(inst, [P(1)])
        assert sol.q_minus[0].coeffs == (Q(0), Q(1))  # q- = z, constant 0
        shifted = bq.complete_minus(inst, [P(1)], constants=[Q(5)])
        assert shifted.q_minus[0].coeffs == (Q(5), Q(1))

    def test_inconsistent(self):
        inst = a1_instance([(0, (1,))], [Q(1, 2)])
        with pytest.raises(bq.InconsistentSystem) as err:
            bq.complete_minus(inst, [P(-1, 1)])  # root at +1 fails Bethe
        assert err.value.color == 1

    def test_numeric_inconsistency_below_one(self):
        # Lambda = 1e-80 z, xi = 1: the root 1/2 fails Bethe, and the best
        # constant q- leaves a residual near 1e-80, negligible only against
        # a scale floored at 1; against the equation's own scale it fails
        num = bq.NumericField(256)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), num, [(0, (1,))], [Q(1, 2)], lead=[num("1e-80")])
        with pytest.raises(bq.InconsistentSystem):
            bq.complete_minus(inst, [Poly.make(num, [num("-0.5"), 1])])
        sol = bq.complete_minus(inst, [Poly.make(num, [1, 1])])  # the root -1 holds
        assert bq.residuals_vanish(inst, sol)

    def test_integration_picture_cross_check(self):
        # d/dz (q-/q+) + xi q-/q+ == RHS/(q+)^2 as rational functions
        for inst, _, sol in (a1_standard(), a2_rational(), b2_rational(), g2_rational()):
            for i in range(1, inst.rank + 1):
                qp, qm = sol.q_plus[i - 1], sol.q_minus[i - 1]
                phi = RationalFn.make(qm, qp)
                lhs = phi.deriv() + phi * RationalFn.from_poly(Poly.const(F, inst.xi(i)))
                rhs = RationalFn.make(bq.qq_rhs(inst, sol.q_plus, i), qp * qp)
                assert (lhs - rhs).is_zero

    def test_valid_solutions_have_zero_residuals(self):
        for inst, _, sol in (a1_standard(), a2_rational(), b2_rational(), g2_rational()):
            for i in range(1, inst.rank + 1):
                assert bq.qq_residual(inst, sol, i).is_zero


class TestFold:
    def test_b2_residuals_and_degeneracy(self):
        inst, _, sol = b2_rational()
        fi, fs = bq.fold(inst, sol)
        assert fi.ctype.family == "A" and fi.ctype.rank == 2
        assert bq.residuals_vanish(fi, fs)
        nd = bq.check_nondegenerate(fi, fs.q_plus)
        assert not nd.squarefree[1]  # folded short color acquires multiple roots
        # twist rule: xi~ = (1, m) * xi with m = 2 for B2
        assert fi.xis() == (inst.xi(1), 2 * inst.xi(2))

    def test_g2_residuals(self):
        inst, _, sol = g2_rational()
        fi, fs = bq.fold(inst, sol)
        assert fi.ctype.family == "A" and bq.residuals_vanish(fi, fs)
        assert fi.xis() == (inst.xi(1), 3 * inst.xi(2))

    def test_degree_scaling(self):
        inst, _, sol = b2_rational()
        _, fs = bq.fold(inst, sol)
        assert fs.q_plus[1].degree() == 2 * sol.q_plus[1].degree()
        assert fs.q_minus[1].degree() == 2 * sol.q_minus[1].degree()

    def test_trivial_instance(self):
        inst = bq.QQInstance.make(bq.CartanType("B", 2), F, [], [Q(1, 3), Q(4, 5)])
        sol = bq.complete_minus(inst, [P(1), P(1)])
        fi, fs = bq.fold(inst, sol)
        assert bq.residuals_vanish(fi, fs)

    def test_short_equation_residual_identity(self):
        # folded short-color residual = m (q+ q-)^(m-1) x original, identically,
        # even for data that does not solve the system
        inst, _, sol = b2_rational()
        broken = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0], sol.q_minus[1] + P(1)])
        orig = bq.qq_residual(inst, broken, 2)
        assert not orig.is_zero
        fi, fs = bq.fold(inst, broken)
        folded = bq.qq_residual(fi, fs, 2)
        pair = sol.q_plus[1] * broken.q_minus[1]
        assert (folded - (pair * orig).scale(2)).is_zero

    def test_zero_short_pair_is_inconsistent(self):
        # q-_2 = 0 fails equation 2 and would fold to a zero Lambda~_2
        inst, _, sol = b2_rational()
        assert inst.ctype.short_simple_root == 2
        broken = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0], Poly.zero(F)])
        with pytest.raises(bq.InconsistentSystem) as err:
            bq.fold(inst, broken)
        assert err.value.color == 2

    def test_unsupported_types(self):
        for fam, rank in (("A", 2), ("C", 3), ("F", 4), ("D", 4)):
            inst = bq.QQInstance.make(bq.CartanType(fam, rank), F, [],
                                      [Q(1)] * rank)
            sol = bq.complete_minus(inst, [P(1)] * rank)
            with pytest.raises(bq.UnsupportedType):
                bq.fold(inst, sol)
