"""Backlund steps, chains, degree maps, admissibility."""

import random
from fractions import Fraction as Q

import pytest

import betheqq as bq
import betheqq.backlund
from betheqq import fileio
from betheqq.polyalg import Poly
from fixhelp import a1_standard, a2_rational, b2_rational, exact_solved_fixtures, g2_rational

F = bq.ExactField()


def P(*coeffs):
    return Poly.make(F, coeffs)


class TestMu:
    def test_examples(self):
        inst, _, sol = a1_standard()
        m = bq.mu(inst, sol, 1)
        assert m.num.coeffs == (Q(1),) and m.den.coeffs == (Q(1), Q(1))

        inst0 = bq.QQInstance.make(bq.CartanType("A", 1), F, [], [0])
        sol0 = bq.complete_minus(inst0, [P(1)])
        m0 = bq.mu(inst0, sol0, 1)
        assert m0.num.coeffs == (Q(1),) and m0.den.coeffs == (Q(0), Q(1))

    def test_forms_agree_only_on_solutions(self):
        inst, _, sol = a2_rational()
        for i in (1, 2):
            assert bq.mu(inst, sol, i).defect(bq.mu_gauge_form(inst, sol, i)) == 0
        broken = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0] + P(1), sol.q_minus[1]])
        assert bq.mu(inst, broken, 1).defect(bq.mu_gauge_form(inst, broken, 1)) != 0


class TestApplySimple:
    def test_a1_example(self):
        inst, _, sol = a1_standard()
        ninst, nsol = bq.apply_simple(inst, sol, 1)
        assert ninst.xi(1) == -1
        assert nsol.q_plus[0].coeffs == (Q(1),)
        assert nsol.q_minus[0].coeffs == (Q(-1), Q(-1))
        assert bq.residuals_vanish(ninst, nsol)

    def test_involution(self):
        for inst, _, sol in exact_solved_fixtures():
            for i in range(1, inst.rank + 1):
                if inst.xi(i) == 0 or sol.q_minus[i - 1].is_zero:
                    continue
                ninst, nsol = bq.apply_simple(inst, sol, i)
                binst, bsol = bq.apply_simple(ninst, nsol, i)
                assert binst.twist.zeta == inst.twist.zeta
                assert bsol.q_plus[i - 1].coeffs == sol.q_plus[i - 1].coeffs
                assert all(b.coeffs == s.coeffs
                           for b, s in zip(bsol.q_plus, sol.q_plus))

    def test_validity_preserved(self):
        for inst, _, sol in exact_solved_fixtures():
            for i in range(1, inst.rank + 1):
                ninst, nsol = bq.apply_simple(inst, sol, i)
                assert bq.residuals_vanish(ninst, nsol)

    def test_rejects_nonsolution(self):
        inst, _, sol = a1_standard()
        broken = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0] + P(1)])
        with pytest.raises(ValueError):
            bq.apply_simple(inst, broken, 1)

    def test_completion_error_surfaces(self, monkeypatch):
        inst, _, sol = a2_rational()

        def boom(*args, **kwargs):
            raise bq.InconsistentSystem(2, "forced")

        monkeypatch.setattr(betheqq.backlund, "_complete_color", boom)
        with pytest.raises(bq.InconsistentSystem):
            bq.apply_simple(inst, sol, 1)


class TestDegreeMap:
    def test_examples(self):
        a1 = bq.cartan_matrix(bq.CartanType("A", 1))
        d = bq.CombinatorialDatum((1,), (1,))
        assert bq.degree_map(d, 1, a1) == (0,)
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        d2 = bq.CombinatorialDatum((1, 1), (2, 0))
        assert bq.degree_map(d2, 1, a2) == (2, 1)
        d0 = bq.CombinatorialDatum((0, 0), (0, 0))
        assert bq.degree_map(d0, 1, a2) == (0, 0)


class TestAdmissible:
    def test_examples(self):
        a1 = bq.cartan_matrix(bq.CartanType("A", 1))
        word = bq.WeylWord.make([1], 1)
        ok = bq.check_admissible(bq.CombinatorialDatum((1,), (1,)), word, a1)
        assert ok.ok and [p.holds for p in ok.prefixes] == [True, True]
        bad = bq.check_admissible(bq.CombinatorialDatum((2,), (1,)), word, a1)
        assert not bad.ok and not bad.prefixes[0].holds
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        zero = bq.check_admissible(bq.CombinatorialDatum((0, 0), (3, 1)),
                                   bq.WeylWord.make([1, 2, 1], 2), a2)
        assert zero.ok

    def test_requires_reduced_word(self):
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        with pytest.raises(ValueError):
            bq.check_admissible(bq.CombinatorialDatum((0, 0), (1, 1)),
                                bq.WeylWord.make([1, 1], 2), a2)

    def test_from_instance(self):
        inst, _, sol = a2_rational()
        datum = bq.CombinatorialDatum.from_instance(inst, [p.degree() for p in sol.q_plus])
        assert datum.n == (1, 0) and datum.d == (1, 1)


class TestChain:
    def test_empty_word_identity(self):
        inst, _, sol = a1_standard()
        tr = bq.chain(inst, sol, bq.WeylWord.make([], 1))
        assert tr.steps == ()
        assert tr.final_instance is inst and tr.final_solution is sol

    def test_a1_word(self):
        inst, _, sol = a1_standard()
        tr = bq.chain(inst, sol, bq.w0_reduced_word(inst.ctype))
        assert tr.fully_generic

    def test_twist_covariance(self):
        for inst, _, sol in (a2_rational(), b2_rational(), g2_rational()):
            word = bq.w0_reduced_word(inst.ctype)
            tr = bq.chain(inst, sol, word)
            tw = inst.twist
            cm = inst.cartan
            for letter in word.letters:  # left-to-right composition of the word
                tw = bq.reflect_twist(letter, tw, cm)
            assert tr.final_instance.twist.zeta == tw.zeta

    def test_degree_bookkeeping(self):
        for inst, _, sol in exact_solved_fixtures():
            word = bq.w0_reduced_word(inst.ctype)
            datum = bq.CombinatorialDatum.from_instance(inst, [p.degree() for p in sol.q_plus])
            cm = inst.cartan
            cur_inst, cur_d = inst, datum
            tr = bq.chain(inst, sol, word)
            for step in tr.steps:
                if cur_inst.xi(step.index) != 0:
                    predicted = bq.degree_map(cur_d, step.index, cm)
                    assert step.solution.q_plus[step.index - 1].degree() == predicted[step.index - 1]
                cur_d = bq.CombinatorialDatum(tuple(p.degree() for p in step.solution.q_plus), cur_d.n)
                cur_inst = step.instance

    def test_chain_broken_carries_trace(self, monkeypatch):
        inst, _, sol = a2_rational()
        calls = []
        real = betheqq.backlund._complete_color

        def flaky(cinst, q_plus, i, shift=None):
            calls.append(i)
            if len(calls) >= 3:
                raise bq.InconsistentSystem(i, "forced")
            return real(cinst, q_plus, i, shift=shift)

        monkeypatch.setattr(betheqq.backlund, "_complete_color", flaky)
        with pytest.raises(bq.ChainBroken) as err:
            bq.chain(inst, sol, bq.WeylWord.make([1, 2, 1], 2))
        assert err.value.step >= 1
        assert err.value.trace is not None

    def test_zero_pairing_retry_heals_degenerate_constant(self):
        # xi_2 = 0: pick the completion constant so q-_2 shares the root of
        # q+_1; the chain must shift q-_2 by c q+_2 with the first generic
        # c in 0, 1, ..., 8, here c = 1, on both backends and on every run
        inst = bq.QQInstance.make(bq.CartanType("A", 2), F, [(0, (1, 0))], [2, 1])
        assert inst.xi(2) == 0
        w1 = -1 / inst.xi(1)
        sol = bq.roots_to_solution(inst, bq.BetheRoots.make(F, [[w1], []]))
        qm2 = sol.q_minus[1]
        bad = bq.QQSolution.make(sol.q_plus,
                                 [sol.q_minus[0], qm2 + Poly.const(F, -qm2(w1))])
        assert bad.q_minus[1](w1) == 0
        word = bq.WeylWord.make([2, 1, 2], 2)
        for field in (F, bq.NumericField(256)):
            inst = bq.QQInstance.make(bq.CartanType("A", 2), field, [(0, (1, 0))], [2, 1])
            start = bq.QQSolution.make([Poly.make(field, p.coeffs) for p in bad.q_plus],
                                       [Poly.make(field, p.coeffs) for p in bad.q_minus])
            tr = bq.chain(inst, start, word)
            assert tr.fully_generic
            kept = (start.q_minus[1] + start.q_plus[1]).monic()
            assert tr.steps[0].solution.q_plus[1].coeffs == kept.coeffs
            assert fileio.trace_to_doc(bq.chain(inst, start, word)) == fileio.trace_to_doc(tr)
