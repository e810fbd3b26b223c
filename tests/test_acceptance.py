"""Acceptance criteria for the full library, one test per criterion.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live).  Exact-backend criteria assert identities exactly; numeric
criteria use 256-bit arithmetic with the stated thresholds.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest

import betheqq as bq
from betheqq.opermat import RatMatrix, gauge_transform, rf_const, rf_zero
from fixhelp import (
    a1_standard,
    a2_rational,
    b2_rational,
    exact_solved_fixtures,
    random_bijection_case,
    random_valid_roots,
)

F = bq.ExactField()
N = bq.NumericField(256)


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}", flush=True)
        raise
    dt = time.monotonic() - t0
    print(f"[PASS] {name} ({dt:.2f}s)", flush=True)
    assert dt < budget_s, f"runtime {dt:.2f}s exceeded the {budget_s}s budget"


def test_criterion_1_exact_sl2_fixture():
    with criterion("1. exact SL(2) fixture: all four residual notions vanish", 1.0):
        inst, roots, sol = a1_standard()
        assert sol.q_minus[0].coeffs == (Q(1),)
        assert bq.qq_residual(inst, sol, 1).is_zero
        assert bq.bethe_residual(inst, roots, 1, 1) == 0
        assert bq.verify_mp_twist(inst, sol, 1) == 0
        assert bq.regularity_residues(inst, sol, roots) == {(1, 1): Q(0)}


def test_criterion_2_bijection_100_random_instances():
    with criterion("2. qq/Bethe bijection on 100 random A1-A3 instances "
                   "(residuals < 1e-30; 1e-6 perturbations break both sides)", 120.0):
        thresh = N.ctx.mpf("1e-30")
        pert_floor = N.ctx.mpf("1e-8")
        for trial in range(100):
            rng = random.Random(9000 + trial)
            rank = trial % 3 + 1
            inst, part = random_bijection_case(rng, rank, N)
            roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=trial))
            rep = bq.verify_bethe(inst, roots)
            assert rep.max_residual < thresh, (trial, rep.max_residual)
            sol = bq.roots_to_solution(inst, roots)
            assert bq.residuals_vanish(inst, sol), trial
            flat = roots.flat()
            for k in range(len(flat)):
                bumped = list(flat)
                bumped[k] += N("1e-6")
                pert = roots.replace_flat(bumped)
                try:
                    assert bq.verify_bethe(inst, pert).max_residual > pert_floor
                except bq.PoleCollision:
                    pass  # the bump landed on a singularity: equations undefined
                with pytest.raises((bq.InconsistentSystem, bq.PoleCollision)):
                    bq.roots_to_solution(inst, pert)
                    raise AssertionError(f"perturbed completion succeeded on trial {trial}")


def test_criterion_3_backlund_validity_and_involution():
    with criterion("3. Backlund steps: zero residuals under the reflected twist; "
                   "double application restores q+ and twist exactly", 30.0):
        for inst, _, sol in exact_solved_fixtures():
            for i in range(1, inst.rank + 1):
                if inst.xi(i) == 0 or sol.q_minus[i - 1].is_zero:
                    continue
                ninst, nsol = bq.apply_simple(inst, sol, i)
                assert ninst.twist.zeta == bq.reflect_twist(i, inst.twist, inst.cartan).zeta
                assert bq.residuals_vanish(ninst, nsol)
                binst, bsol = bq.apply_simple(ninst, nsol, i)
                assert binst.twist.zeta == inst.twist.zeta
                assert all(b.coeffs == s.coeffs for b, s in zip(bsol.q_plus, sol.q_plus))


def test_criterion_4_degree_bookkeeping():
    with criterion("4. degrees after each step match the degree map (xi != 0)", 30.0):
        for inst, _, sol in exact_solved_fixtures():
            word = bq.w0_reduced_word(inst.ctype)
            trace = bq.chain(inst, sol, word)
            cur_inst = inst
            cur_d = bq.CombinatorialDatum.from_instance(inst, [p.degree() for p in sol.q_plus])
            cm = inst.cartan
            for step in trace.steps:
                if cur_inst.xi(step.index) != 0:
                    predicted = bq.degree_map(cur_d, step.index, cm)
                    actual = step.solution.q_plus[step.index - 1].degree()
                    assert actual == predicted[step.index - 1], (str(inst.ctype), step.index)
                cur_d = bq.CombinatorialDatum(tuple(p.degree() for p in step.solution.q_plus), cur_d.n)
                cur_inst = step.instance


def test_criterion_5_admissibility_matches_chains():
    with criterion("5. A2 N=(1,1): inequality report == solved-chain genericity, "
                   "all degree vectors d <= (1,1), word (1,2,1)", 60.0):
        word = bq.WeylWord.make([1, 2, 1], 2)
        z1, z2 = Q(0), Q(3)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(z1, (1, 0)), (z2, (0, 1))], [Q(2, 3), Q(1, 5)])
        cm = inst.cartan
        for d in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            datum = bq.CombinatorialDatum.from_instance(inst, d)
            adm = bq.check_admissible(datum, word, cm)
            w_sets = [[z1] if d[0] else [], [z2] if d[1] else []]
            part = bq.InfinitePartition.make(N, w_sets)
            try:
                roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=17))
                sol = bq.roots_to_solution(inst, roots)
                trace = bq.chain(inst, sol, word)
                achieved = trace.fully_generic
            except (bq.BetheqqError, ValueError):
                achieved = False
            assert adm.ok == achieved, (d, adm.ok, achieved)


def test_criterion_6_w0_diagonalization_type_a():
    with criterion("6. type-A diagonalization: A - v(d+Z)v^-1 identically zero", 30.0):
        fixtures = [a1_standard(), a2_rational(), a2_rational(zeta=(Q(-2, 5), Q(7, 3)))]
        for inst, _, sol in fixtures:
            word = bq.w0_reduced_word(inst.ctype)
            out = bq.diagonalize_type_a(inst, sol, word)
            assert len(out.trace.steps) == len(word)
            assert out.residual == 0, str(inst.ctype)
            assert out.v.is_upper_triangular()


def test_criterion_7_folding():
    with criterion("7. B2 folds to A2 with zero residuals; folded solutions "
                   "are degenerate whenever deg q_short >= 1", 30.0):
        for zeta in [(Q(1, 3), Q(4, 5)), (Q(-1, 2), Q(2, 7))]:
            inst, _, sol = b2_rational(zeta=zeta)
            folded_inst, folded_sol = bq.fold(inst, sol)
            assert folded_inst.ctype.family == "A" and folded_inst.ctype.rank == 2
            assert bq.residuals_vanish(folded_inst, folded_sol)
            k = inst.ctype.short_simple_root
            assert sol.q_plus[k - 1].degree() >= 1
            nd = bq.check_nondegenerate(folded_inst, folded_sol.q_plus)
            assert not nd.squarefree[k - 1]
        # trivial fixture: no points, degree-zero solution still folds cleanly
        triv = bq.QQInstance.make(bq.CartanType("B", 2), F, [], [Q(1, 3), Q(4, 5)])
        tsol = bq.complete_minus(triv, [bq.Poly.const(F, 1), bq.Poly.const(F, 1)])
        fi, fs = bq.fold(triv, tsol)
        assert bq.residuals_vanish(fi, fs)


def test_criterion_8_oracle_equivalences():
    with criterion("8. oracles: regularity == Bethe residual and log == explicit "
                   "form on 1000 random inputs; Jacobian vs central differences "
                   "(rel err < 1e-20 at h = 2^-64)", 120.0):
        rng = random.Random(777)
        compared = 0
        while compared < 1000:
            inst, roots = random_valid_roots(rng, F, rank=rng.randint(1, 3))
            if roots.total() == 0:
                continue
            sol = bq.QQSolution.make([bq.poly_from_roots(F, c) for c in roots.roots],
                                     [bq.Poly.zero(F)] * inst.rank)
            reg = bq.regularity_residues(inst, sol, roots)
            for (i, ell), val in reg.items():
                explicit = bq.bethe_residual(inst, roots, i, ell)
                logform = bq.bethe_residual_log_form(inst, roots, i, ell)
                assert val == explicit == logform
                compared += 1

        h = N.ctx.mpf(2) ** -64
        bound = N.ctx.mpf("1e-20")
        for _ in range(3):
            inst_q, roots_q = random_valid_roots(rng, F, rank=2)
            if roots_q.total() == 0:
                continue
            inst = bq.QQInstance.make(inst_q.ctype, N, list(inst_q.points),
                                      [N(z) for z in inst_q.twist.zeta])
            roots = bq.BetheRoots.make(N, [[N(w) for w in c] for c in roots_q.roots])
            jac = bq.bethe_jacobian(inst, roots)
            labels = [(i, s + 1) for i in (1, 2) for s in range(len(roots.roots[i - 1]))]
            flat = roots.flat()
            for col in range(len(labels)):
                for row, (i, ell) in enumerate(labels):
                    up, dn = list(flat), list(flat)
                    up[col] += h
                    dn[col] -= h
                    fd = (bq.bethe_residual(inst, roots.replace_flat(up), i, ell)
                          - bq.bethe_residual(inst, roots.replace_flat(dn), i, ell)) / (2 * h)
                    rel = abs(fd - jac[row][col]) / max(N.ctx.mpf(1), abs(jac[row][col]))
                    assert rel < bound


def test_criterion_9_twist_reduction():
    with criterion("9. 100 random upper-triangular 3x3/4x4 twists conjugate "
                   "to their diagonal, by direct matrix computation", 60.0):
        rng = random.Random(555)
        for trial in range(100):
            n = 3 if trial % 2 == 0 else 4
            z = [[Q(rng.randint(-9, 9), rng.randint(1, 4)) if j >= i else Q(0)
                  for j in range(n)] for i in range(n)]
            u, _ = bq.reduce_twist_type_a(F, z)
            zmat = RatMatrix.build([[rf_const(F, z[i][j]) if j >= i else rf_zero(F)
                                     for j in range(n)] for i in range(n)])
            target = RatMatrix.diagonal([rf_const(F, z[i][i]) for i in range(n)])
            conj = gauge_transform(zmat, u)
            assert conj.defect(target) == 0, trial
