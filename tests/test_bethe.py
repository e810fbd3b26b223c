"""Bethe residuals, Newton solving, infinite-system seeding, continuation."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction as Q
from itertools import combinations, groupby, product

import pytest

import betheqq as bq
from betheqq.scalars import residual_repr
from fixhelp import a1_standard, a2_rational, random_bijection_case, random_valid_roots

F = bq.ExactField()
N = bq.NumericField(256)


def a1_two_points(field):
    return bq.QQInstance.make(bq.CartanType("A", 1), field, [(1, (1,)), (2, (1,))], [Q(3, 4)])


class TestResidual:
    def test_examples(self):
        inst, roots, _ = a1_standard()
        assert bq.bethe_residual(inst, roots, 1, 1) == 0
        plus_one = bq.BetheRoots.make(F, [[1]])
        assert bq.bethe_residual(inst, plus_one, 1, 1) == 2
        empty = bq.BetheRoots.make(F, [[]])
        assert bq.verify_bethe(inst, empty).ok

    def test_pole_collision(self):
        inst, _, _ = a1_standard()
        with pytest.raises(bq.PoleCollision):
            bq.bethe_residual(inst, bq.BetheRoots.make(F, [[0]]), 1, 1)
        inst2, _, _ = a2_rational()
        shared = bq.BetheRoots.make(F, [[5], [5]])  # adjacent colors share a root
        with pytest.raises(bq.PoleCollision):
            bq.verify_bethe(inst2, shared)

    def test_verify_perturbed(self):
        inst, roots, _ = a1_standard()
        pert = bq.BetheRoots.make(F, [[Q(-1) + Q(1, 1000)]])
        rep = bq.verify_bethe(inst, pert)
        assert not rep.ok and rep.max_residual > 0

    @pytest.mark.parametrize("call", ["solve_newton", "verify_bethe", "bethe_residual", "roots_to_solution"])
    def test_roots_need_one_set_per_color(self, call):
        # one root set for the two colors of A2 is refused up front, not
        # met as an IndexError or a missing q-_1
        inst, _, _ = a2_rational(N)
        args = (1, 1) if call == "bethe_residual" else ()
        with pytest.raises(ValueError, match="has 2 colors, the roots 1"):
            getattr(bq, call)(inst, bq.BetheRoots.make(N, [["0.1"]]), *args)

    def test_log_form_equals_explicit(self):
        rng = random.Random(31)
        for _ in range(40):
            inst, roots = random_valid_roots(rng, F, rank=rng.randint(1, 3))
            for i in range(1, inst.rank + 1):
                for ell in range(1, len(roots.roots[i - 1]) + 1):
                    a = bq.bethe_residual(inst, roots, i, ell)
                    b = bq.bethe_residual_log_form(inst, roots, i, ell)
                    assert a == b


class TestJacobian:
    def test_matches_central_differences(self):
        rng = random.Random(32)
        h = N.ctx.mpf(2) ** -64
        for _ in range(4):
            inst, roots_q = random_valid_roots(rng, F, rank=2)
            if roots_q.total() == 0:
                continue
            inst = bq.QQInstance.make(inst.ctype, N,
                                      [(z, e) for z, e in inst.points],
                                      [N(z) for z in inst.twist.zeta])
            roots = bq.BetheRoots.make(N, [[N(w) for w in c] for c in roots_q.roots])
            jac = bq.bethe_jacobian(inst, roots)
            labels = [(i, s + 1) for i in range(1, 3) for s in range(len(roots.roots[i - 1]))]
            flat = roots.flat()
            for col in range(len(labels)):
                for row, (i, ell) in enumerate(labels):
                    up = list(flat)
                    dn = list(flat)
                    up[col] += h
                    dn[col] -= h
                    fd = (bq.bethe_residual(inst, roots.replace_flat(up), i, ell)
                          - bq.bethe_residual(inst, roots.replace_flat(dn), i, ell)) / (2 * h)
                    err = abs(fd - jac[row][col]) / max(N.ctx.mpf(1), abs(jac[row][col]))
                    assert err < N.ctx.mpf("1e-20")


class TestNewton:
    def test_converges_from_nearby(self):
        inst, _, _ = a1_standard()
        inst_n = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(1, 2)])
        out = bq.solve_newton(inst_n, bq.BetheRoots.make(N, [[N("-0.9")]]))
        assert abs(out.roots[0][0] + 1) < N.tau * 10

    def test_fixed_point_returns_unchanged(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(1, 2)])
        start = bq.BetheRoots.make(N, [[-1]])
        out = bq.solve_newton(inst, start)
        assert out.roots[0][0] == start.roots[0][0]

    def test_newton_keeps_the_input_order(self):
        # the Newton core returns the roots in the order it was given;
        # solve_newton orders once, canonically
        from betheqq import bethe

        inst = a1_two_points(N)
        start = bq.BetheRoots.make(N, [[N([1, 1]), N([1, -1])]])
        kept = bethe._newton(bethe._system(inst), start, N.tau, bethe._ITERATIONS, None, True, None)[0]
        assert [w.imag > 0 for w in kept.roots[0]] == [True, False]
        assert bq.solve_newton(inst, start).roots == kept.canonical(N).roots
        assert [w.imag > 0 for w in kept.canonical(N).roots[0]] == [False, True]

    def test_polish_stops_at_the_precision_floor(self):
        # a pool case whose polish ran 21 steps down to float underflow:
        # past eps times max|xi| it stops
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N, [(Q(-18, 5), (1, 0)), (Q(-3, 20), (0, 1))],
                                  [Q(21, 5), Q(-11, 20)])
        log = []
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[], [Q(-3, 20)]]),
                                     bq.SolveOptions(seed=14400), log=log)
        assert bq.verify_bethe(inst, roots).ok
        assert 0 < sum(1 for r in log if r["phase"] == "refine" and not r.get("converged")) <= 7

    def test_collision_init(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(1, 2)])
        with pytest.raises(bq.PoleCollision):
            bq.solve_newton(inst, bq.BetheRoots.make(N, [[0]]))

    def test_singular_jacobian(self, monkeypatch):
        # 1 + 1/(w - 1) + 1/(w + 1): the Jacobian is exactly 0 at w = i, and
        # the step cap refuses a step toward infinity before any root gets there
        import betheqq.bethe

        sweep = betheqq.bethe._System.sweep
        seen = []

        def spying(system, roots, residual=True, jacobian=False):
            if residual:
                seen.extend(abs(w) for w in roots.flat())
            return sweep(system, roots, residual, jacobian)

        monkeypatch.setattr(betheqq.bethe._System, "sweep", spying)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1, (1,)), (-1, (1,))], [Q(1, 2)])
        log = []
        with pytest.raises(bq.SingularJacobian):
            bq.solve_newton(inst, bq.BetheRoots.make(N, [[[0, 1]]]), log)
        assert log == []
        assert seen and max(seen) < 2

    @pytest.mark.parametrize("machine", ["singular", "useless"])
    def test_machine_direction_fallback(self, machine, monkeypatch):
        # a machine-float direction that is singular, or along which no damped
        # step is accepted, gives way to the full-precision direction within
        # the same iteration; past the tolerance a useless one ends the polish
        import betheqq.bethe

        def fake(field, system, rts, res, worst):
            if machine == "singular":
                raise bq.SingularJacobian("machine Jacobian refused")
            return [field.zero] * len(res)

        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        part = bq.InfinitePartition.make(N, [[0], [3]])
        expected = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=3))
        monkeypatch.setattr(betheqq.bethe, "_machine_direction", fake)
        log = []
        roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=3), log=log)
        assert bq.verify_bethe(inst, roots).ok
        refine = [r for r in log if r["phase"] == "refine" and r["precision"] == 256]
        assert refine and {r["jacobian_precision"] for r in refine} == {256}
        for a, b in zip(roots.roots, expected.roots):
            for w, v in zip(a, b):
                assert abs(w - v) < N.ctx.mpf("1e-60" if machine == "singular" else "1e-40")

    def test_one_factorization_per_rounded_root_set(self, monkeypatch):
        # the README A1 example: the 256-bit refinement factors the machine
        # Jacobian once for each set of roots rounded to floats, and reuses
        # it while the rounded roots repeat
        import betheqq.bethe

        direction, factor = betheqq.bethe._machine_direction, betheqq.bethe._factor
        rounded, factored, inside = [], [], []

        def spying_direction(field, factors, rts, res, worst):
            rounded.append(tuple(complex(w) for w in rts.flat()))
            inside.append(True)
            try:
                return direction(field, factors, rts, res, worst)
            finally:
                inside.pop()

        def spying_factor(field, rows):
            if inside:
                factored.append(rounded[-1])
            return factor(field, rows)

        monkeypatch.setattr(betheqq.bethe, "_machine_direction", spying_direction)
        monkeypatch.setattr(betheqq.bethe, "_factor", spying_factor)
        inst = a1_two_points(N)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[1, 2]]), bq.SolveOptions(seed=1))
        assert bq.verify_bethe(inst, roots).ok
        assert len(factored) == len(set(factored)) == len(set(rounded)) < len(rounded)

    def test_refinement_beyond_the_float_range(self):
        # residuals are scaled into the float range before they are rounded:
        # at 1200 bits the README example refines to its floor, eps max|xi|
        # (the unscaled floats stalled near 1.5e-324)
        field = bq.NumericField(1200)
        inst = a1_two_points(field)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(field, [[1, 2]]), bq.SolveOptions(seed=1))
        worst = bq.verify_bethe(inst, roots).max_residual
        assert worst <= 2 * field.ctx.eps * field.max_abs(inst.xis())

    @pytest.mark.parametrize("offset, precisions", [(0, {53}), (10 ** 9, {256})])
    def test_machine_directions_need_resolved_differences(self, offset, precisions):
        # 3/2 + 1/(w - z) + 1/(w - z - 1) = 0 has the root z + 2/3.  Rounded
        # to floats 10^9 out, the differences keep too few digits, so the
        # steps take full-precision Jacobians there
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(offset, (1,)), (offset + 1, (1,))], [Q(3, 4)])
        log = []
        roots = bq.solve_newton(inst, bq.BetheRoots.make(N, [[N(offset) + N("0.6")]]), log)
        assert abs(roots.roots[0][0] - offset - N(2) / 3) < N.ctx.mpf("1e-60")
        assert {r["jacobian_precision"] for r in log if not r.get("converged")} == precisions

    def test_cofactor_machine_directions(self):
        # 3 + 1/w + 2w/(w^2 + 1) = 0: above 53 bits the nonconstant cofactor's
        # p, p' and (p'/p)' are coerced to machine floats for the directions
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(3, 2)],
                                  extra=[bq.Poly.make(N, [1, 0, 1])])
        root = N("-0.44249333402444210332816501066469")
        log = []
        roots = bq.solve_newton(inst, bq.BetheRoots.make(N, [[root + N("1e-3")]]), log=log)
        assert bq.verify_bethe(inst, roots).ok
        assert abs(roots.roots[0][0] - root) < N.ctx.mpf("1e-30")
        assert log and all(r["jacobian_precision"] == 53 for r in log)

    def test_max_residual_is_max_abs(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1)), (N([1, 2]), (1, 1))], [Q(2, 3), Q(1, 5)])
        roots = bq.BetheRoots.make(N, [[N("0.3"), N([-1, "0.25"])], [N([2, -1])]])
        rep = bq.verify_bethe(inst, roots)
        assert rep.max_residual == max(abs(v) for v in rep.residuals.values())

    def test_anchored_equations_agree(self):
        # roots as offsets from the origin give the public residuals bit for
        # bit; as offsets from marked points, the same residuals to 1e-70
        from betheqq import bethe

        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1)), (N([1, 2]), (1, 1))], [Q(2, 3), Q(1, 5)])
        roots = bq.BetheRoots.make(N, [[N("0.3"), N([-1, "0.25"])], [N([2, -1])]])
        system = bethe._system(inst)
        public = system.sweep(roots, jacobian=True)
        origin = replace(system, anchors=((0, 0), (0,))).sweep(roots, jacobian=True)
        assert public == origin
        assert public[0] == list(bq.verify_bethe(inst, roots).residuals.values())
        anchors = ((1, 3), (2,))
        offsets = bq.BetheRoots(tuple(tuple(w - system.diff[a][0] for w, a in zip(color, ids))
                                      for color, ids in zip(roots.roots, anchors)))
        res, _, jac = replace(system, anchors=anchors).sweep(offsets, jacobian=True)
        assert max(abs(a - b) for a, b in zip(res, public[0])) < 1e-70
        assert max(abs(a - b) for r, s in zip(jac, public[2]) for a, b in zip(r, s)) < 1e-70

    def test_iteration_log(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,))], [Q(1, 2)])
        log = []
        bq.solve_newton(inst, bq.BetheRoots.make(N, [[N("-0.8")]]), log=log)
        assert log and all({"step", "max_residual", "damping", "precision"} <= set(r) for r in log)
        assert {r["precision"] for r in log} == {256}

    def test_continuation_log_context(self):
        # each record names its phase and the precision of the Jacobian that
        # made the step; tracking records also carry s, the
        # step h and the coordinate scale k.  The refinement polishes in
        # machine floats, then at 256 bits.  Records repeat byte for byte.
        inst = a1_two_points(N)
        logs = []
        for _ in range(2):
            logs.append([])
            bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[2]]), bq.SolveOptions(seed=3),
                                 log=logs[-1])
        log = logs[0]
        assert json.dumps(logs[0]) == json.dumps(logs[1])
        track = [r for r in log if r["phase"] == "track"]
        refine = [r for r in log if r["phase"] == "refine"]
        assert track and refine and len(track) + len(refine) == len(log)
        assert all({"s", "h", "k"} <= set(r) for r in track)
        assert track[-1]["s"] == 1 and all(0 <= r["s"] <= 1 and r["h"] >= 0 and r["k"] > 0 for r in track)
        precisions = [r["precision"] for r in refine]
        assert set(precisions) == {53, 256} and precisions == sorted(precisions)
        # the records of one Newton call share phase, s, h, k and precision:
        # a call that took steps logs them at 53 bits; one that took none,
        # such as the 256-bit refinement of this real root, logs no precision
        for _, call in groupby(log, key=lambda r: [r.get(k) for k in ("phase", "s", "h", "k", "precision")]):
            call = list(call)
            stepped = any(not r.get("converged") for r in call)
            assert all(r["jacobian_precision"] == (53 if stepped else None) for r in call)
        assert refine[-1]["jacobian_precision"] is None and refine[-2]["jacobian_precision"] == 53

    @staticmethod
    def refine_at_2048_bits(twist):
        """Solve the A1 pair of a1_two_points at 2048 bits under the twist
        ``twist``; the field and the max residuals of the refinement records."""
        field = bq.NumericField(2048)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), field, [(1, (1,)), (2, (1,))], [field(twist)])
        log = []
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(field, [[1, 2]]),
                                     bq.SolveOptions(seed=1), log=log)
        assert all(isinstance(r["max_residual"], str) for r in log)
        final = bq.verify_bethe(inst, roots).max_residual
        assert log[-1]["converged"] and log[-1]["max_residual"] == residual_repr(field, final)
        return field, [field.ctx.mpf(r["max_residual"]) for r in log if r["phase"] == "refine"]

    def test_log_residuals_below_float_range(self):
        # at 2048 bits the polish goes far below 1e-308; the records keep
        # 8 significant digits there instead of a float that reads 0.0.  On
        # this real instance the refinement, in real arithmetic on an exact
        # conjugate pair, ends on an exactly zero residual
        field, worst = self.refine_at_2048_bits(Q(3, 4))
        assert all(0 <= b <= a for a, b in zip(worst, worst[1:])) and worst[-1] == 0
        assert any(0 < b < field.ctx.mpf("1e-600") for b in worst)

    def test_log_residuals_below_float_range_complex_twist(self):
        # the same with a complex twist: the residuals stay positive
        field, worst = self.refine_at_2048_bits([Q(3, 4), Q(1, 2)])
        assert all(0 < b <= a for a, b in zip(worst, worst[1:]))
        assert worst[-1] < field.ctx.mpf("1e-600")


class TestInfiniteSystem:
    def test_a1_split(self):
        inst = a1_two_points(N)
        sol = bq.infinite_solution(inst, bq.InfinitePartition.make(N, [[1]]))
        prod = sol.q_plus[0] * sol.q_minus[0]
        lam = bq.build_lambdas(inst)[0]
        assert (prod - lam).norm() <= N.tau

    def test_conjugate_marked_points_pair_up(self):
        # a complex twist, so the instance is not real: W and the rest are
        # poly_from_roots of their roots, an exact conjugate pair as the real
        # quadratic z^2 - 2z + 5 after the linear factors, a split pair as
        # two complex linear factors
        i = N([0, 1])
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(1 + 2 * i, (1,)), (3, (1,)), (1 - 2 * i, (1,))],
                                  [Q(3, 4) + i / 2])
        cases = [([1 + 2 * i, 3, 1 - 2 * i], [[-15, 11, -5, 1], [1]]),
                 ([3], [[-3, 1], [5, -2, 1]]),
                 ([1 - 2 * i, 3], [[3 - 6 * i, -4 + 2 * i, 1], [-1 - 2 * i, 1]])]
        for w, expected in cases:
            sol = bq.infinite_solution(inst, bq.InfinitePartition.make(N, [w]))
            got = [list(q.coeffs) for q in sol.q_plus + sol.q_minus]
            assert got == expected
            assert [[type(c).__name__ for c in q] for q in got] == [
                ["mpf" if c.imag == 0 else "mpc" for c in q] for q in expected]

    def test_empty_w(self):
        inst = a1_two_points(N)
        sol = bq.infinite_solution(inst, bq.InfinitePartition.make(N, [[]]))
        assert sol.q_plus[0].degree() == 0
        assert sol.q_minus[0].degree() == 2

    def test_multiplicity_rejected(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (2,))], [1])
        with pytest.raises(bq.BadPartition):
            bq.infinite_solution(inst, bq.InfinitePartition.make(N, [[0]]))

    def test_containment_rejected(self):
        inst = a1_two_points(N)
        with pytest.raises(bq.BadPartition):
            bq.infinite_solution(inst, bq.InfinitePartition.make(N, [[5]]))

    def test_cyclic_source_rejected(self):
        # W_1 = W_2 = {5}: satisfies containment/multiplicity but has no
        # large-twist branch (cyclic source assignment)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        part = bq.InfinitePartition.make(N, [[5], [5]])
        bq.infinite_solution(inst, part)  # product identity itself is fine
        with pytest.raises(bq.BadPartition):
            bq.seed_and_continue(inst, part)

    def test_seeds_are_first_order(self, monkeypatch):
        # each root of W_j starts at offset -1/xi_j of the top scale from its
        # marked point: the first corrector receives u with u xi_j = -1, each
        # root anchored at the point it is drawn from
        from betheqq import bethe

        calls, real = [], bethe._newton

        def spy(system, init, *args):
            calls.append((system, init))
            return real(system, init, *args)

        monkeypatch.setattr(bethe, "_newton", spy)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N, [(0, (1, 0)), (3, (0, 1))], [3, 2])
        assert inst.xis() == (4, 1)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], [3]]), bq.SolveOptions(seed=3))
        assert bq.verify_bethe(inst, roots).ok
        system, seeds = calls[0]
        assert system.anchors == ((1,), (2,))
        for (u,), xi in zip(seeds.roots, system.xis):
            assert abs(u * xi + 1) < 1e-9  # a second-order term would be ~1e-3

    def test_root_sourced_roots_only_in_cycles(self):
        # A2 over the points {0, 1, 9}, every assignment of them to colors (or
        # to none, at least one marked), every pair of W sets: each partition
        # that infinite_solution accepts with a root outside its own Z_j is
        # a cycle, which seed_and_continue rejects before tracking
        from betheqq.bethe import _partition_sources

        pts = (0, 1, 9)
        subsets = [list(c) for n in range(4) for c in combinations(pts, n)]
        accepted = root_sourced = 0
        for colors in product((0, 1, 2), repeat=3):
            if not any(colors):
                continue
            inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                      [(z, (int(c == 1), int(c == 2))) for z, c in zip(pts, colors) if c], [1, 3])
            for w_sets in product(subsets, repeat=2):
                part = bq.InfinitePartition.make(N, w_sets)
                try:
                    bq.infinite_solution(inst, part)
                except bq.BadPartition:
                    continue
                accepted += 1
                from_points = all(colors[pts.index(w)] == j for j, ws in enumerate(w_sets, start=1) for w in ws)
                anchors = _partition_sources(inst, part)[1]
                assert all(a is not None for color in anchors for a in color) == from_points
                if from_points:  # each anchor is the root's own marked point
                    assert tuple(tuple(inst.points[a - 1][0] for a in color) for color in anchors) == part.w_sets
                else:
                    root_sourced += 1
                    with pytest.raises(bq.BadPartition, match="cyclic"):
                        bq.seed_and_continue(inst, part)
        assert (accepted, root_sourced) == (208, 84)


class TestContinuation:
    def test_a1_drift(self):
        inst = a1_two_points(N)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[2]]),
                                     bq.SolveOptions(seed=3))
        assert bq.verify_bethe(inst, roots).ok
        assert abs(roots.roots[0][0] - N("5/3")) < N.ctx.mpf("1e-40")

    def test_empty_partition(self):
        inst = a1_two_points(N)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[]]),
                                     bq.SolveOptions(seed=3))
        assert roots.total() == 0

    def test_a2_single_root(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], []]),
                                     bq.SolveOptions(seed=3))
        assert bq.verify_bethe(inst, roots).ok
        assert abs(roots.roots[0][0] + 1 / inst.xi(1)) < N.ctx.mpf("1e-40")

    def test_zero_pairing_target_rejected(self):
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N, [(0, (1, 0))], [2, 1])
        assert inst.xi(2) == 0
        with pytest.raises(ValueError):
            bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], []]))

    def test_turning_point_branch(self):
        # the deg-2 branch passes a real turning point and lands on a
        # conjugate pair of roots
        inst = a1_two_points(N)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[1, 2]]),
                                     bq.SolveOptions(seed=1))
        assert bq.verify_bethe(inst, roots).ok
        w = roots.roots[0][0]
        assert abs(w.imag) > N.ctx.mpf("0.1")

    def test_precision_range(self):
        # the criterion-2 cases solve at every documented precision, and the
        # 256- and 512-bit answers lie on the same branch
        found = {}
        for prec in (53, 128, 256, 512):
            field = bq.NumericField(prec)
            for k in range(12):
                inst, part = random_bijection_case(random.Random(9000 + k), k % 3 + 1, field)
                roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=k))
                assert bq.verify_bethe(inst, roots).ok, (prec, k)
                found[prec, k] = roots
        hi = bq.NumericField(512)
        for k in range(12):
            for lo_color, hi_color in zip(found[256, k].roots, found[512, k].roots):
                for w in lo_color:
                    assert min(abs(hi(w) - v) for v in hi_color) < hi.ctx.mpf("1e-40"), k

    @pytest.mark.parametrize("prec, xi", [pytest.param(256, x, id=x) for x in ("1e-6", "1000", "1e6")]
                             + [pytest.param(53, x, id=f"53-{x}") for x in ("1e-6", "1e-9")])
    def test_twist_magnitude(self, prec, xi):
        # one point at 0: the root is -1/xi at any magnitude of the twist; at
        # 53 bits the Jacobian -xi^2 is far below 1, and the pivot threshold,
        # relative to the matrix, does not mistake it for singular
        field = bq.NumericField(prec)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), field, [(0, (1,))], [field(xi) / 2])
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(field, [[0]]),
                                     bq.SolveOptions(seed=1))
        bound = field.ctx.mpf("1e-40" if prec == 256 else "1e-12")
        assert abs(roots.roots[0][0] * field(xi) + 1) < bound

    @pytest.mark.parametrize("d", ["1e-4", "1e-9"])
    def test_close_points(self, d):
        # xi = 1 and points 0, d: the root drawn from d solves
        # w^2 + (2 - d) w - d = 0 and sits between the points
        d = N(d)
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,)), (d, (1,))], [Q(1, 2)])
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[d]]),
                                     bq.SolveOptions(seed=1))
        exact = (d - 2 + N.ctx.sqrt((2 - d) ** 2 + 4 * d)) / 2
        assert abs(roots.roots[0][0] - exact) < d * N.ctx.mpf("1e-40")

    @pytest.mark.parametrize("d, expected", [("1e-4", ("-1.5919042", "6.7876497")),
                                             ("1e-9", ("-1.591905749", "6.787588697"))])
    def test_close_points_wide_spread(self, d, expected):
        # points d apart against a unit spread: the differences of the points
        # are formed at 256 bits, so machine floats track the offsets
        d = N(d)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N, [(0, (1, 0)), (d, (0, 1)), (1, (1, 0))],
                                  [Q(2, 3), Q(1, 5)])
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], [d]]),
                                     bq.SolveOptions(seed=1))
        assert bq.verify_bethe(inst, roots).ok
        for color, value in zip(roots.roots, expected):
            assert abs(color[0] - N(value)) < N.ctx.mpf("1e-6")

    def test_target_precision_only_refines(self, monkeypatch):
        # the path is tracked at machine precision, also when the points
        # spread far wider than their closest distance (the geometry of
        # test_close_points_wide_spread); the caller's 256 bits only see the
        # final refinement, whose Newton directions come from Jacobians in
        # machine floats: no 256-bit Jacobian or elimination, and at most 5
        # residual sweeps at 256 bits from the endpoint polished in machine
        # floats (6-7 from the endpoint at the tracking tolerance; quadratic
        # 256-bit Newton needs 7, each step with a 256-bit Jacobian and elimination)
        import betheqq.bethe

        jacobian, sweep, eliminate = (betheqq.bethe.bethe_jacobian, betheqq.bethe._System.sweep,
                                      betheqq.bethe._factor)
        jacobians, residuals = [], []

        def counting_jacobian(inst, roots):
            if inst.field.precision == 256:
                jacobians.append(roots)
            return jacobian(inst, roots)

        def counting_sweep(system, roots, residual=True, jacobian=False):
            if system.field.precision == 256:
                (jacobians if jacobian else residuals).append(roots)
            return sweep(system, roots, residual, jacobian)

        def counting_elimination(field, rows):
            if field.precision == 256:
                jacobians.append(rows)
            return eliminate(field, rows)

        monkeypatch.setattr(betheqq.bethe, "bethe_jacobian", counting_jacobian)
        monkeypatch.setattr(betheqq.bethe._System, "sweep", counting_sweep)
        monkeypatch.setattr(betheqq.bethe, "_factor", counting_elimination)
        cases = [([(0, (1, 0)), (3, (0, 1))], [[0], [3]], 3)]
        cases += [([(0, (1, 0)), (N(d), (0, 1)), (1, (1, 0))], [[0], [N(d)]], 1) for d in ("1e-9", "1e-12")]
        for points, w_sets, seed in cases:
            jacobians.clear()
            residuals.clear()
            inst = bq.QQInstance.make(bq.CartanType("A", 2), N, points, [Q(2, 3), Q(1, 5)])
            roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, w_sets), bq.SolveOptions(seed=seed))
            assert jacobians == [], points
            assert 0 < len(residuals) <= 5, points
            assert bq.verify_bethe(inst, roots).ok

    def test_tracking_builds_no_instance(self, monkeypatch):
        # the path runs on the caller's Bethe equations, shifted, rescaled and
        # coerced once: no tracked copy and no instance per scale is built
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        part = bq.InfinitePartition.make(N, [[0], [3]])
        init, built = bq.QQInstance.__init__, []

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(bq.QQInstance, "__init__", counting)
        roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=3))
        assert len(built) == 0
        assert bq.verify_bethe(inst, roots).ok

    def test_newton_work_per_path(self):
        # the A2 fixture of test_target_precision_only_refines: the Euler
        # predictor with an adaptive step needs at most 96 Newton iterations
        # (192 with the fixed 64-step schedule)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N,
                                  [(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)])
        log = []
        bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], [3]]),
                             bq.SolveOptions(seed=3), log=log)
        assert 0 < sum(1 for r in log if not r.get("converged")) <= 96

    def test_whole_path_first_step(self):
        # well separated, the first step (h = 1) crosses the whole path, so
        # tracking accepts s = 0 and s = 1 only; the endpoint is polished in
        # machine floats, and the first 256-bit refinement record reads below
        # 1e-28 (7.6e-14 when refined straight from the tracking tolerance)
        inst = bq.QQInstance.make(bq.CartanType("A", 2), N, [(0, (1, 0)), (10, (0, 1))], [Q(2, 3), Q(1, 5)])
        log = []
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[0], [10]]),
                                     bq.SolveOptions(seed=3), log=log)
        assert [r["s"] for r in log if r["phase"] == "track" and r.get("converged")] == [0, 1]
        refine = [r for r in log if r["phase"] == "refine" and r["precision"] == 256]
        assert N(refine[0]["max_residual"]) < N("1e-28")
        assert bq.verify_bethe(inst, roots).ok

    def test_polish_starts_from_the_last_sweep(self, monkeypatch):
        # the endpoint polish takes the residuals and Jacobian on which the
        # correction at s = 1 ended: no sweep repeats the one before it
        from betheqq import bethe

        sweep, sweeps = bethe._System.sweep, []

        def spying(system, roots, residual=True, jacobian=False):
            sweeps.append((id(system), roots))
            return sweep(system, roots, residual, jacobian)

        monkeypatch.setattr(bethe._System, "sweep", spying)
        inst = a1_two_points(N)
        log = []
        bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[1, 2]]), bq.SolveOptions(seed=1), log=log)
        assert any(r["phase"] == "refine" and r["precision"] == 53 for r in log)
        assert all(a != b for a, b in zip(sweeps, sweeps[1:]))

    def test_exact_path_needs_no_newton(self):
        # one point and one root: u = -1/(xi t) exactly, which the predictor
        # for t u extrapolates without error, so every correction converges
        # at its first residual
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(Q(1, 3), (1,))], [Q(7, 5)])
        log = []
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[Q(1, 3)]]),
                                     bq.SolveOptions(seed=1), log=log)
        track = [r for r in log if r["phase"] == "track"]
        assert track and all(r.get("converged") for r in track)
        assert abs(roots.roots[0][0] - (N(Q(1, 3)) - 1 / inst.xi(1))) <= N.tau

    def test_tracking_work_on_criterion_2(self):
        # the criterion-2 cases take 860 tracking Newton iterations with the
        # predictor in the frame that moves with 1/t and a first step of the
        # whole path (931 from a first step of 1/63, 2520 with u extrapolated
        # linearly in s); a count, so it does not depend on the host
        iterations = 0
        for t in range(100):
            inst, part = random_bijection_case(random.Random(9000 + t), t % 3 + 1, N)
            log = []
            bq.seed_and_continue(inst, part, bq.SolveOptions(seed=t), log=log)
            iterations += sum(1 for r in log if r["phase"] == "track" and not r.get("converged"))
        assert iterations <= 1100

    def test_failed_step_is_not_retried(self, monkeypatch):
        # a step's prediction depends on its target min(1, s + h) alone, so
        # after a failure h halves until the target moves: here steps to s = 1
        # fail from s = 0, 1/2 and 3/4, and the two clamped ones (s + h > 1)
        # were each retried once with the same prediction
        from betheqq import bethe

        newton, calls = bethe._newton, []

        def spying(system, init, tol, iterations, log, polish, context, swept=None):
            calls.append([context, init, True])
            out = newton(system, init, tol, iterations, log, polish, context, swept)
            calls[-1][2] = False
            return out

        monkeypatch.setattr(bethe, "_newton", spying)
        inst = a1_two_points(N)
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[1, 2]]), bq.SolveOptions(seed=1))
        assert bq.verify_bethe(inst, roots).ok
        track = [c for c in calls if c[0]["phase"] == "track"]
        assert sum(1 for context, _, failed in track if failed and context["s"] == 1) >= 2
        assert not any(a[2] and (a[0]["s"], a[1]) == (b[0]["s"], b[1]) for a, b in zip(track, track[1:]))

    def test_points_closer_than_tau_root(self):
        # marked points coincide under the rule the partition check uses:
        # 1e-30 apart at 256 bits (tau_root 2^-80) is refused when the
        # instance is built, 1e-20 apart builds and solves
        points = [(0, (1,)), (N("1e-30"), (1,))]
        with pytest.raises(ValueError, match="distinct"):
            bq.QQInstance.make(bq.CartanType("A", 1), N, points, [Q(1, 2)])
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(0, (1,)), (N("1e-20"), (1,))], [Q(1, 2)])
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[N("1e-20")]]), bq.SolveOptions(seed=1))
        assert bq.verify_bethe(inst, roots).ok

    def test_exact_backend_rejected(self):
        inst = a1_two_points(F)
        with pytest.raises(bq.NoConvergence):
            bq.seed_and_continue(inst, bq.InfinitePartition.make(F, [[1]]))


class TestRealInstances:
    """Real points and twist: the refinement keeps real roots real."""

    def test_solved_roots_are_real_or_exact_pairs(self):
        # every root is an mpf, or a non-real root whose exact conjugate is a
        # root of its color; q+ and q- then have real coefficients
        cases = [(a1_two_points(N), bq.InfinitePartition.make(N, ws), 1) for ws in ([[1]], [[2]], [[1, 2]])]
        cases += [(*random_bijection_case(random.Random(9000 + k), k % 3 + 1, N), k) for k in range(12)]
        pairs = 0
        for inst, part, seed in cases:
            roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=seed))
            assert bq.verify_bethe(inst, roots).ok
            for color in roots.roots:
                for w in color:
                    assert type(w) is N.ctx.mpf or (w.imag != 0 and w.conjugate() in color), (seed, w)
                pairs += sum(1 for w in color if w.imag > 0)
            sol = bq.roots_to_solution(inst, roots)
            assert all(c.imag == 0 for q in sol.q_plus + sol.q_minus for c in q.coeffs)
        assert pairs  # the turning-point branch of a1_two_points

    @pytest.mark.parametrize("spread", [1.01, 2.02])
    def test_near_real_pair_stays_a_pair(self, spread):
        # the conjugate pair 5/6 +- i sqrt(7)/6 of a1_two_points, shifted so
        # far out that |w - conj w| (spread 1.01) or |Im w| (2.02) is just
        # above the tolerance of the projection, _MACH.tau (1 + max|w|): it
        # is refined as an exact pair, not put on the real line; a lone root
        # that far off the line is not projected at all
        from betheqq import bethe

        im, tau = N.ctx.sqrt(7) / 6, bethe._MACH.tau
        shift = int(2 * im / (spread * tau)) - 2
        inst = bq.QQInstance.make(bq.CartanType("A", 1), N, [(shift + 1, (1,)), (shift + 2, (1,))], [Q(3, 4)])
        start = bq.BetheRoots.make(N, [[N(shift) + N([Q(5, 6) + Q(1, 1000), "0.44"]),
                                        N(shift) + N([Q(5, 6) - Q(1, 1000), "-0.441"])]])
        assert 1 < 2 * im / (spread * tau * (1 + N.max_abs(start.flat()))) < 1.001
        w, v = bq.solve_newton(inst, start).roots[0]
        assert v == w.conjugate() and abs(v.imag - im) < N.ctx.mpf("1e-60")
        lone = bq.BetheRoots(((start.roots[0][0],),))
        assert bethe._conjugation(lone) is None

    def test_real_solutions_have_mpf_coefficients(self):
        # real roots and exact pairs give real q+, and the completion keeps
        # them real: every coefficient of q+ and q- is an mpf, none an mpc
        cases = [(a1_two_points(N), bq.InfinitePartition.make(N, ws), 1) for ws in ([[1]], [[2]], [[1, 2]])]
        cases += [(*random_bijection_case(random.Random(9100 + k), k % 3 + 1, N), k) for k in range(6)]
        for inst, part, seed in cases:
            sol = bq.roots_to_solution(inst, bq.seed_and_continue(inst, part, bq.SolveOptions(seed=seed)))
            assert bq.residuals_vanish(inst, sol)
            assert {type(c) for q in sol.q_plus + sol.q_minus for c in q.coeffs} == {N.ctx.mpf}, seed

    def test_complex_fallback(self, monkeypatch):
        # a symmetric refinement that does not converge is retried once from
        # the start as given, in complex arithmetic: here every trial the
        # projection makes is spoiled by a shift of 1/10
        from betheqq import bethe

        conjugation, spoiled = bethe._conjugation, []

        def spoiling(roots):
            symmetric = conjugation(roots)

            def spoil(flat):
                spoiled.append(len(flat))
                return symmetric([w + N("0.1") for w in flat])

            return symmetric and spoil

        inst, part = a1_two_points(N), bq.InfinitePartition.make(N, [[1, 2]])
        expected = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=1))
        monkeypatch.setattr(bethe, "_conjugation", spoiling)
        roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=1))
        assert spoiled and bq.verify_bethe(inst, roots).ok
        assert any(type(w) is N.ctx.mpc for w in roots.flat())  # complex arithmetic, not the projection
        for w, v in zip(roots.flat(), expected.flat()):
            assert abs(w - v) < N.ctx.mpf("1e-60")

    def test_non_real_instances_solve_as_before(self):
        # a complex marked point or a complex twist: the equations are not
        # real, so roots, q+ and q- are those of the complex refinement bit
        # for bit (digest of the (re, im) mpf tuples, an mpf as (x, 0), taken
        # before real instances refined in real arithmetic)
        digest = hashlib.sha256()
        i = N([0, 1])
        cases = [([(0, (1, 0)), (3 + i / 2, (0, 1))], [Q(2, 3), Q(1, 5)], [[0], [3 + i / 2]]),
                 ([(0, (1, 0)), (3, (0, 1)), (1, (1, 0))], [Q(2, 3) + i / 7, Q(1, 5)], [[0, 1], [3]]),
                 ([(1, (1,)), (2, (1,))], [Q(3, 4) + i / 2], [[1, 2]])]
        for points, twist, w_sets in cases:
            inst = bq.QQInstance.make(bq.CartanType("A", len(twist)), N, points, twist)
            roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, w_sets), bq.SolveOptions(seed=3))
            sol = bq.roots_to_solution(inst, roots)
            for v in roots.flat() + [c for q in sol.q_plus + sol.q_minus for c in q.coeffs]:
                digest.update(repr(getattr(v, "_mpc_", None) or (v._mpf_, (0, 0, 0, 0))).encode())
        assert digest.hexdigest()[:16] == "05e658ee7d356b60"

    def test_real_instances_solve_as_before(self):
        # real points and twist: roots, q+ and q- bit for bit and type for
        # type (digest of the type name and the mpf or (re, im) tuples, taken
        # before q+ and Lambda_i were built by poly_from_roots alone); the
        # roots of the first case are an exact conjugate pair, and the second
        # retried a clamped step with the same prediction
        digest = hashlib.sha256()
        cases = [([(1, (1,)), (2, (1,))], [Q(3, 4)], [[1, 2]], 1),
                 ([(1, (1,)), (2, (1,))], [Q(3, 4)], [[2]], 2),
                 ([(0, (1, 0)), (3, (0, 1))], [Q(2, 3), Q(1, 5)], [[0], [3]], 3)]
        for points, twist, w_sets, seed in cases:
            inst = bq.QQInstance.make(bq.CartanType("A", len(twist)), N, points, twist)
            roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, w_sets), bq.SolveOptions(seed=seed))
            sol = bq.roots_to_solution(inst, roots)
            for v in roots.flat() + [c for q in sol.q_plus + sol.q_minus for c in q.coeffs]:
                digest.update(repr((type(v).__name__, getattr(v, "_mpc_", None) or v._mpf_)).encode())
        assert digest.hexdigest()[:16] == "fcff177076094f6f"


class TestRoundTrip:
    def test_solution_roots_pass_bethe(self):
        # roots of a nondegenerate exact solution's q+ satisfy the equations
        for builder in (a1_standard, a2_rational):
            inst, roots, sol = builder()
            extracted = bq.BetheRoots(tuple(tuple(bq.rational_roots(p)) for p in sol.q_plus))
            assert bq.verify_bethe(inst, extracted).ok

    def test_solved_roots_complete(self):
        rng = random.Random(33)
        inst, part = random_bijection_case(rng, 2, N)
        roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=8))
        sol = bq.roots_to_solution(inst, roots)
        assert bq.residuals_vanish(inst, sol)


class TestCanonical:
    def test_rounding_in_equal_real_parts_keeps_the_order(self):
        # a conjugate pair whose real parts differ by rounding noise, either
        # way, comes out in one order: by imaginary part
        x, y, i = N("1.8"), N("0.893"), N([0, 1])
        for d in (N.ctx.mpf("1.7e-77"), N.ctx.mpf("-1.7e-77")):
            for pair in ((x + y * i, x + d - y * i), (x + d - y * i, x + y * i)):
                out = bq.BetheRoots((pair,)).canonical(N).roots[0]
                assert [w.imag < 0 for w in out] == [True, False]
        # real parts beyond tau_root apart still order by real part
        apart = bq.BetheRoots(((x + 1 - y * i, x + y * i, x - y * i),)).canonical(N).roots[0]
        assert apart == (x - y * i, x + y * i, x + 1 - y * i)

    def test_exact_order_is_by_value(self):
        roots = bq.BetheRoots.make(F, [[3, Q(1, 2), -2, Q(1, 2)], []])
        assert roots.canonical(F).roots == ((-2, Q(1, 2), Q(1, 2), 3), ())
