"""Connections, rank-2 restrictions, regularity, type-A matrix computations."""

import hashlib
import random
from fractions import Fraction as Q

import pytest

import betheqq as bq
from betheqq.opermat import (
    RatMatrix,
    bruhat_factor_w0,
    framing_block,
    gauge_transform,
    mp_twist_block,
    rf_const,
    rf_zero,
    w0_permutation,
)
from betheqq.polyalg import Poly, RationalFn
from fixhelp import a1_standard, a2_rational, b2_rational, g2_rational, random_valid_roots

F = bq.ExactField()


def P(*coeffs):
    return Poly.make(F, coeffs)


class TestBuildConnection:
    def test_log_derivative(self):
        inst, _, sol = a1_standard()
        conn = bq.build_connection(inst, sol.q_plus)
        # g = 1/2 - 1/(z+1) = (z - 1)/(2(z+1))
        g = conn.g[0]
        expect = RationalFn.make(P(Q(-1, 2), Q(1, 2)), P(1, 1))
        assert g.defect(expect) == 0

    def test_constant_q_plus(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 2), F, [(0, (1, 1))], [Q(2), Q(3)])
        conn = bq.build_connection(inst, [P(1), P(1)])
        assert conn.g[0].defect(rf_const(F, Q(2))) == 0
        assert conn.g[1].defect(rf_const(F, Q(3))) == 0

    def test_zero_twist_constant_q(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), F, [(0, (1,))], [0])
        conn = bq.build_connection(inst, [P(1)])
        assert conn.g[0].is_zero


class TestConnectionResidues:
    def test_g_has_residue_minus_one_at_simple_roots(self):
        for inst, roots, sol in (a1_standard(), a2_rational()):
            conn = bq.build_connection(inst, sol.q_plus)
            for i in range(1, inst.rank + 1):
                for w in roots.roots[i - 1]:
                    r = conn.g[i - 1] * RationalFn.from_poly(P(-w, 1))
                    assert r(w) == Q(-1)


class TestGl2Oper:
    def test_a1_shapes(self):
        inst, _, sol = a1_standard()
        conn = bq.build_connection(inst, sol.q_plus)
        op = bq.gl2_oper(conn, inst.cartan, 1)
        assert op.raw.entries[0][1].defect(RationalFn.from_poly(conn.lambdas[0])) == 0
        assert (op.raw.entries[0][0] + op.raw.entries[1][1]).is_zero  # trace 0 in rank 1
        assert op.rho.coeffs == conn.lambdas[0].coeffs

    def test_a2_rho(self):
        inst, _, sol = a2_rational()
        conn = bq.build_connection(inst, sol.q_plus)
        op = bq.gl2_oper(conn, inst.cartan, 1)
        expect = conn.lambdas[0] * sol.q_plus[1]
        assert (op.rho - expect).is_zero

    def test_rho_polynomial_b2(self):
        inst, _, sol = b2_rational()
        conn = bq.build_connection(inst, sol.q_plus)
        rho1 = bq.gl2_oper(conn, inst.cartan, 1).rho
        assert (rho1 - conn.lambdas[0] * sol.q_plus[1] ** 2).is_zero
        rho2 = bq.gl2_oper(conn, inst.cartan, 2).rho
        assert (rho2 - conn.lambdas[1] * sol.q_plus[0]).is_zero

    def test_tilde_is_diagonal_gauge_of_raw(self):
        for inst, _, sol in (a2_rational(), b2_rational()):
            conn = bq.build_connection(inst, sol.q_plus)
            cmat = inst.cartan
            for i in range(1, inst.rank + 1):
                op = bq.gl2_oper(conn, cmat, i)
                prod = Poly.const(F, 1)
                for j in range(1, inst.rank + 1):
                    if j != i:
                        e = cmat.a(j, i)
                        if e:
                            prod = prod * sol.q_plus[j - 1] ** (-e)
                # u = diag(1, prod^(-1)): conjugating raw must give tilde
                u = RatMatrix.build([[rf_const(F, 1), rf_zero(F)],
                                     [rf_zero(F), RationalFn.make(Poly.const(F, 1), prod)]])
                gauged = gauge_transform(op.raw, u)
                assert gauged.defect(op.tilde) == 0


class TestMpTwist:
    def test_zero_on_solutions(self):
        for inst, _, sol in (a1_standard(), a2_rational(), b2_rational()):
            for i in range(1, inst.rank + 1):
                assert bq.verify_mp_twist(inst, sol, i) == 0

    def test_perturbation_detected(self):
        inst, _, sol = a1_standard()
        broken = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0] + P(1)])
        assert bq.verify_mp_twist(inst, broken, 1) != 0

    def test_zero_degree_solution(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), F, [], [Q(2, 3)])
        sol = bq.complete_minus(inst, [P(1)])
        assert bq.verify_mp_twist(inst, sol, 1) == 0

    def test_block_data(self):
        inst, _, sol = a2_rational()
        z1 = mp_twist_block(inst, 1)
        # diag(zeta_1, -zeta_1 - a_{21} zeta_2) with a_{21} = -1
        assert z1.entries[0][0].defect(rf_const(F, inst.twist.zeta[0])) == 0
        expect = -inst.twist.zeta[0] + inst.twist.zeta[1]
        assert z1.entries[1][1].defect(rf_const(F, expect)) == 0
        v = framing_block(inst, sol, 1)
        assert v.entries[1][0].is_zero


def _assert_two_product_gauge(a_mat, v):
    """gauge_transform(A, v) equals v A v^-1 - v' v^-1, written out, entry for entry."""
    vi = v.inverse_triangular()
    expected = (v @ a_mat @ vi) - (v.deriv() @ vi)
    got = gauge_transform(a_mat, v)
    for r in range(v.n):
        for c in range(v.n):
            assert got.entries[r][c] == expected.entries[r][c]


class TestDefect:
    def test_numeric_relative_defect_bit_for_bit(self):
        # A against v (d + Z) v^-1 of a numeric diagonalization, entry by entry:
        # |a_num b_den - b_num a_den| / max(|a_num b_den|, |b_num a_den|, |a_den| |b_den|, 1)
        N = bq.NumericField(256)
        inst, _, sol = a2_rational(N)
        out = bq.diagonalize_type_a(inst, sol, bq.w0_reduced_word(inst.ctype))
        a_mat = bq.connection_matrix(inst, sol)
        gauged = gauge_transform(bq.twist_matrix(N, inst.twist), out.v)
        expected = []
        for ra, rb in zip(a_mat.entries, gauged.entries):
            for a, b in zip(ra, rb):
                lhs, rhs = a.num * b.den, b.num * a.den
                scale = max(lhs.norm(), rhs.norm(), a.den.norm() * b.den.norm(), N.abs(N.one))
                expected.append((lhs - rhs).norm() / scale)
        got = a_mat.defect(gauged)
        assert got == max(expected) and got == out.residual
        assert 0 < got <= N.tau


class TestTypeAMatrices:
    def test_a3_diagonal_and_superdiagonal(self):
        # zeta = (3, 2, 5/2), Lambda = (z, 1, 1) and one root per color, so
        # g_a = zeta_a - 1/(z - w_a) and the diagonal reads g_a - g_{a-1}
        inst = bq.QQInstance.make(bq.CartanType("A", 3), F, [(0, (1, 0, 0))], [3, 2, Q(5, 2)])
        w = [Q(-2, 11), Q(-28, 33), Q(-13, 11)]
        sol = bq.roots_to_solution(inst, bq.BetheRoots.make(F, [[x] for x in w]))

        def pole(x):
            return RationalFn.make(P(1), P(-x, 1))

        diag = [rf_const(F, 3) - pole(w[0]),
                rf_const(F, -1) + pole(w[0]) - pole(w[1]),
                rf_const(F, Q(1, 2)) + pole(w[1]) - pole(w[2]),
                rf_const(F, Q(-5, 2)) + pole(w[2])]
        upper = {(0, 1): P(0, 1), (1, 2): P(1), (2, 3): P(1)}
        a_mat = bq.connection_matrix(inst, sol)
        z_mat = bq.twist_matrix(F, inst.twist)
        for r in range(4):
            for c in range(4):
                want = diag[r] if r == c else RationalFn.from_poly(upper.get((r, c), P()))
                assert a_mat.entries[r][c].defect(want) == 0, (r, c)
                want = rf_const(F, [3, -1, Q(1, 2), Q(-5, 2)][r]) if r == c else rf_zero(F)
                assert z_mat.entries[r][c].defect(want) == 0, (r, c)


class TestGaugeTransform:
    def test_diagonal_twist_of_diagonalize(self):
        for inst, _, sol in (a1_standard(), a2_rational(), a2_rational(zeta=(Q(-2, 5), Q(7, 3)))):
            out = bq.diagonalize_type_a(inst, sol, bq.w0_reduced_word(inst.ctype))
            _assert_two_product_gauge(bq.twist_matrix(F, inst.twist), out.v)

    def test_gl2_blocks_of_verify_mp_twist(self):
        for inst, _, sol in (a1_standard(), a2_rational(), b2_rational(), g2_rational()):
            conn = bq.build_connection(inst, sol.q_plus)
            for i in range(1, inst.rank + 1):
                v = framing_block(inst, sol, i)
                assert not v.entries[0][1].is_zero  # a non-diagonal gauge
                _assert_two_product_gauge(mp_twist_block(inst, i), v)
                raw = bq.gl2_oper(conn, inst.cartan, i).raw
                assert not raw.entries[0][1].is_zero  # a non-diagonal connection
                _assert_two_product_gauge(raw, v)

    def test_numeric_mp_twist_below_tau(self):
        N = bq.NumericField(256)
        for build in (a1_standard, a2_rational, b2_rational, g2_rational):
            inst, _, sol = build(N)
            for i in range(1, inst.rank + 1):
                assert bq.verify_mp_twist(inst, sol, i) <= N.tau


class TestRegularity:
    def test_standard_zero(self):
        inst, roots, sol = a1_standard()
        res = bq.regularity_residues(inst, sol, roots)
        assert res == {(1, 1): Q(0)}

    def test_equals_bethe_residual(self):
        rng = random.Random(41)
        for _ in range(40):
            inst, roots = random_valid_roots(rng, F, rank=rng.randint(1, 3))
            sol = bq.QQSolution.make(
                [bq.poly_from_roots(F, c) for c in roots.roots],
                [Poly.zero(F)] * inst.rank)
            reg = bq.regularity_residues(inst, sol, roots)
            for (i, ell), val in reg.items():
                assert val == bq.bethe_residual(inst, roots, i, ell)

    def test_empty(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), F, [], [1])
        sol = bq.complete_minus(inst, [P(1)])
        assert bq.regularity_residues(inst, sol, bq.BetheRoots.make(F, [[]])) == {}

    def test_rational_root_extraction_route(self):
        inst, roots, sol = a2_rational()
        res = bq.regularity_residues(inst, sol)  # roots extracted from q+
        assert all(v == 0 for v in res.values())

    @pytest.mark.parametrize("field", [F, bq.NumericField(256)], ids=["exact", "numeric"])
    def test_pole_collisions_name_the_pole(self, field):
        # a root on a marked point, a root of one color at a root of a
        # neighbor, and a double root of q+ each raise with their own label
        inst, _, sol = a1_standard(field)  # Lambda = z, q+ = z + 1
        with pytest.raises(bq.PoleCollision, match=r"^root \(1,1\) lies on Lambda_1$"):
            bq.regularity_residues(inst, sol, bq.BetheRoots.make(field, [[0]]))
        double = bq.QQSolution.make([sol.q_plus[0] * sol.q_plus[0]], sol.q_minus)
        with pytest.raises(bq.PoleCollision, match=r"^q\+_1 has a multiple root at \(1,1\)$"):
            bq.regularity_residues(inst, double, bq.BetheRoots.make(field, [[-1]]))
        inst, roots, sol = a2_rational(field)
        w2 = roots.roots[1][0]
        with pytest.raises(bq.PoleCollision, match=r"^root \(1,1\) meets a root of q\+_2$"):
            bq.regularity_residues(inst, sol, bq.BetheRoots.make(field, [[w2], [w2]]))

    def test_exact_ratios_take_no_gcd(self, monkeypatch):
        # reducing p'/p first costs an exact Euclid gcd per root, whose
        # Fraction coefficients blow up: minutes at degree 20, not milliseconds
        import betheqq.polyalg

        def refuse(*args):
            raise AssertionError("gcd called")

        inst, roots, sol = a2_rational()
        monkeypatch.setattr(betheqq.polyalg, "gcd", refuse)
        assert all(v == 0 for v in bq.regularity_residues(inst, sol, roots).values())


class TestBruhat:
    def test_random_factorizations(self):
        rng = random.Random(42)
        for n in (2, 3, 4):
            for _ in range(6):
                entries = [[rf_const(F, Q(rng.randint(-9, 9), rng.randint(1, 3)))
                            for _ in range(n)] for _ in range(n)]
                m = RatMatrix.build(entries)
                try:
                    b_plus, n_plus = bruhat_factor_w0(m)
                except bq.FactorizationFailed:
                    continue
                recon = b_plus @ w0_permutation(F, n) @ n_plus
                assert recon.defect(m) == 0
                assert b_plus.is_upper_triangular()
                for k in range(n):
                    assert n_plus.entries[k][k].defect(rf_const(F, 1)) == 0

    def test_identity_not_in_cell(self):
        with pytest.raises(bq.FactorizationFailed):
            bruhat_factor_w0(RatMatrix.identity(F, 2))

    def test_diagonalize_inverts_once(self, monkeypatch):
        # only gauge_transform's v^-1: the elimination forms b+ alone
        calls, real = [], RatMatrix.inverse_triangular
        monkeypatch.setattr(RatMatrix, "inverse_triangular", lambda m: calls.append(m) or real(m))
        inst, _, sol = a2_rational()
        bq.diagonalize_type_a(inst, sol, bq.WeylWord.make([1, 2, 1], 2))
        assert len(calls) == 1

    @pytest.mark.parametrize("field", [F, bq.NumericField(256)], ids=["exact", "numeric"])
    def test_diagonalize_b_plus_is_the_public_factor(self, field, monkeypatch):
        import betheqq.opermat

        seen, real = [], betheqq.opermat._bruhat_eliminate
        monkeypatch.setattr(betheqq.opermat, "_bruhat_eliminate", lambda m: seen.append(m) or real(m))
        inst, _, sol = a2_rational(field)
        out = bq.diagonalize_type_a(inst, sol, bq.WeylWord.make([1, 2, 1], 2))
        b_plus = bruhat_factor_w0(seen[0])[0]

        def coeffs(m):  # exact values: equal mpc values are equal bits
            return [[(e.num.coeffs, e.den.coeffs) for e in row] for row in m.entries]

        assert coeffs(out.v) == coeffs(b_plus)


#: Z_11 = Z_44 = 3/2 is the only repeated diagonal entry
ZERO_GAP_4X4 = [[Q(3, 2), Q(-3, 2), Q(0), Q(-2)], [Q(0), Q(-3), Q(-2), Q(3, 2)],
                [Q(0), Q(0), Q(-3, 2), Q(-1, 2)], [Q(0), Q(0), Q(0), Q(3, 2)]]


class TestReduceTwist:
    def test_diagonal_input(self):
        u, tw = bq.reduce_twist_type_a(F, [[Q(1), 0], [0, Q(2)]])
        assert u.defect(RatMatrix.identity(F, 2)) == 0
        assert bq.pairing(1, tw, bq.cartan_matrix(bq.CartanType("A", 1))) == Q(-1)

    def test_2x2_nonzero_gap(self):
        z = [[Q(3), Q(4)], [0, Q(-3)]]
        u, _ = bq.reduce_twist_type_a(F, z)
        # constant shear c/(2 zeta) = 4/6; [e, Z^H] = -<alpha, Z^H> e fixes the sign
        assert u.entries[0][1].defect(rf_const(F, Q(4, 6))) == 0
        _assert_diagonalizes(z, u)

    def test_2x2_zero_gap(self):
        z = [[Q(1), Q(5)], [0, Q(1)]]
        u, _ = bq.reduce_twist_type_a(F, z)
        # u = exp(z c e): entry 5z, cleared through the derivative term
        assert u.entries[0][1].defect(RationalFn.from_poly(P(0, 5))) == 0
        _assert_diagonalizes(z, u)

    def test_zero_gap_4x4(self):
        z = ZERO_GAP_4X4
        u, _ = bq.reduce_twist_type_a(F, z)
        _assert_gauge_identity(z, u)
        _assert_diagonalizes(z, u)
        # Z_11 = Z_44: u_14 is the antiderivative of its right side with no constant term
        assert u.entries[0][3].num.coeffs == (0, Q(-47, 18))
        for i, j in [(i, j) for j in range(4) for i in range(j) if z[i][i] == z[j][j]]:
            assert u.entries[i][j].num.coeff(0) == 0, (i, j)

    def test_numeric_matches_exact(self):
        N = bq.NumericField(256)
        rng = random.Random(44)  # 3 of its 8 draws repeat a diagonal entry
        zs = [ZERO_GAP_4X4] + [[[Q(rng.randint(-3, 3), rng.randint(1, 2)) if j >= i else Q(0)
                                 for j in range(4)] for i in range(4)] for _ in range(8)]
        for z in zs:
            exact, _ = bq.reduce_twist_type_a(F, z)
            num, _ = bq.reduce_twist_type_a(N, z)
            for row_e, row_n in zip(exact.entries, num.entries):
                for e, m in zip(row_e, row_n):
                    assert m.den.coeffs == (1,)
                    for k in range(max(len(e.num.coeffs), len(m.num.coeffs))):
                        x = e.num.coeff(k)
                        assert N.is_zero(N(x) - m.num.coeff(k), scale=max(abs(x), 1))

    def test_random_3x3_4x4(self):
        rng = random.Random(43)
        for n in (3, 4):
            for _ in range(8):
                z = [[Q(rng.randint(-6, 6), rng.randint(1, 3)) if j >= i else Q(0)
                      for j in range(n)] for i in range(n)]
                u, tw = bq.reduce_twist_type_a(F, z)
                _assert_diagonalizes(z, u)
                _assert_gauge_identity(z, u)
                cm = bq.cartan_matrix(bq.CartanType("A", n - 1))
                for i in range(1, n):
                    assert bq.pairing(i, tw, cm) == z[i - 1][i - 1] - z[i][i]

    def test_rejects_lower_entries(self):
        with pytest.raises(ValueError):
            bq.reduce_twist_type_a(F, [[Q(1), 0], [Q(1), Q(2)]])


def _assert_gauge_identity(z, u):
    """u Z - u' = diag(Z) u, entry by entry as polynomials."""
    n = len(z)
    assert all(e.den.coeffs == (1,) for row in u.entries for e in row)
    p = [[e.num for e in row] for row in u.entries]
    for i in range(n):
        for j in range(n):
            lhs = sum((p[i][k].scale(z[k][j]) for k in range(n)), -p[i][j].deriv())
            assert (lhs - p[i][j].scale(z[i][i])).is_zero, (i, j)


def _assert_diagonalizes(z, u):
    n = len(z)
    zmat = RatMatrix.build([[rf_const(F, z[i][j]) if j >= i else rf_zero(F)
                             for j in range(n)] for i in range(n)])
    target = RatMatrix.diagonal([rf_const(F, z[i][i]) for i in range(n)])
    assert gauge_transform(zmat, u).defect(target) == 0


class TestDiagonalize:
    def test_a1(self):
        inst, _, sol = a1_standard()
        out = bq.diagonalize_type_a(inst, sol, bq.w0_reduced_word(inst.ctype))
        assert out.residual == 0
        assert out.v.is_upper_triangular()
        # rank 1: v agrees with the framing gauge up to a constant diagonal
        v = framing_block(inst, sol, 1)
        ratio = v.inverse_triangular() @ out.v
        assert ratio.entries[0][1].is_zero and ratio.entries[1][0].is_zero
        for k in (0, 1):
            assert ratio.entries[k][k].num.degree() == 0
            assert ratio.entries[k][k].den.degree() == 0

    def test_a2_both_words(self):
        inst, _, sol = a2_rational()
        for letters in ([1, 2, 1], [2, 1, 2]):
            out = bq.diagonalize_type_a(inst, sol, bq.WeylWord.make(letters, 2))
            assert out.residual == 0
        inst, _, sol = a2_rational(zeta=(Q(1), Q(2)))  # xi_1 = 0: not a regular twist
        assert inst.xi(1) == 0
        for letters in ([1, 2, 1], [2, 1, 2]):
            out = bq.diagonalize_type_a(inst, sol, bq.WeylWord.make(letters, 2))
            assert out.residual == 0
            assert out.v.is_upper_triangular()
        # xi_2 = 0 with a q-_2 that shares the root of q+_1: v comes from the
        # shifted first step that the chain keeps
        inst = bq.QQInstance.make(bq.CartanType("A", 2), F, [(0, (1, 0))], [2, 1])
        w1 = -1 / inst.xi(1)
        sol = bq.roots_to_solution(inst, bq.BetheRoots.make(F, [[w1], []]))
        bad = bq.QQSolution.make(sol.q_plus, [sol.q_minus[0], sol.q_minus[1] - P(sol.q_minus[1](w1))])
        out = bq.diagonalize_type_a(inst, bad, bq.WeylWord.make([2, 1, 2], 2))
        assert out.trace.steps[0].solution.q_plus[1] != bad.q_minus[1].monic()
        assert out.residual == 0
        assert out.v.is_upper_triangular()

    def test_runs_the_chain_once(self, monkeypatch):
        import betheqq.backlund

        calls = []
        original = betheqq.backlund.mu

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(betheqq.backlund, "mu", counted)
        inst, _, sol = a2_rational()
        word = bq.WeylWord.make([1, 2, 1], 2)
        bq.diagonalize_type_a(inst, sol, word)
        assert len(calls) == len(word)

    def test_wrong_word_length(self):
        inst, _, sol = a2_rational()
        with pytest.raises(ValueError):
            bq.diagonalize_type_a(inst, sol, bq.WeylWord.make([1], 2))

    def test_type_restriction(self):
        inst, _, sol = b2_rational()
        with pytest.raises(bq.UnsupportedType):
            bq.diagonalize_type_a(inst, sol, bq.w0_reduced_word(inst.ctype))

    def test_chain_broken_propagates(self, monkeypatch):
        import betheqq.backlund

        inst, _, sol = a2_rational()

        def boom(*args, **kwargs):
            raise bq.InconsistentSystem(1, "forced")

        monkeypatch.setattr(betheqq.backlund, "_complete_color", boom)
        with pytest.raises(bq.ChainBroken):
            bq.diagonalize_type_a(inst, sol, bq.WeylWord.make([1, 2, 1], 2))

    def test_numeric_a2_as_before(self):
        # the bits behind the benchmark's accuracy reading: v and the
        # conjugation residual of a 256-bit A2 diagonalization at the default
        # tau (digest of the type name and mpf or (re, im) tuple of each
        # coefficient, taken before structure read the precision's tolerance)
        inst, _, sol = a2_rational(bq.NumericField(256))
        out = bq.diagonalize_type_a(inst, sol, bq.WeylWord.make([1, 2, 1], 2))
        digest = hashlib.sha256()
        for c in [c for row in out.v.entries for e in row for p in (e.num, e.den) for c in p.coeffs] + [out.residual]:
            digest.update(repr((type(c).__name__, getattr(c, "_mpc_", None) or c._mpf_)).encode())
        assert digest.hexdigest()[:16] == "07c5f08800802ad7"

    def test_numeric_backend_sample_points(self):
        # v(x) Z v(x)^-1 - v'(x) v(x)^-1 == A(x) at 16 random points off the poles
        N = bq.NumericField(256)
        ctx = N.ctx
        rng = random.Random(91)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], [3]]),
                                     bq.SolveOptions(seed=5))
        sol = bq.roots_to_solution(inst, roots)
        out = bq.diagonalize_type_a(inst, sol, bq.WeylWord.make([1, 2, 1], 2))
        assert N.ctx.mpf(out.residual) < ctx.mpf("1e-40")
        a_mat = bq.connection_matrix(inst, sol)
        zc = [[bq.twist_matrix(N, inst.twist).entries[r][c](ctx.mpf(0)) for c in range(3)]
              for r in range(3)]
        vd = RatMatrix.build([[e.deriv() for e in row] for row in out.v.entries])

        def mat_eval(m, x):
            return ctx.matrix([[m.entries[r][c](x) if not m.entries[r][c].is_zero else N.zero
                                for c in range(3)] for r in range(3)])

        checked = 0
        while checked < 16:
            x = ctx.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
            try:
                vx = mat_eval(out.v, x)
                vpx = mat_eval(vd, x)
                ax = mat_eval(a_mat, x)
            except bq.PoleCollision:
                continue
            vinv = vx ** -1
            res = vx * ctx.matrix(zc) * vinv - vpx * vinv - ax
            scale = max(abs(ax[r, c]) for r in range(3) for c in range(3))
            worst = max(abs(res[r, c]) for r in range(3) for c in range(3))
            assert worst <= ctx.mpf("1e-40") * max(1, scale)
            checked += 1
