"""Solving Bethe equations numerically: seeding from the infinite system.

At infinite twist the Wronskian term drops out and the system factorizes:
q+_j q-_j = Lambda_j prod (q+_k)^(-a_{kj}), so a solution is just a choice
of which roots of the right-hand side belong to q+_j.  Each such choice
seeds a continuation path back to the finite twist; each step predicts
along the Euler tangent and damped Newton with an analytic Jacobian
corrects the roots, the step size adapting to the path (it shrinks through
branch turning points).
"""

import betheqq as bq

N = bq.NumericField(256)
ctx = N.ctx

inst = bq.QQInstance.make(bq.CartanType("A", 1), N,
                          points=[(1, (1,)), (2, (1,))], twist=["3/4"])
print("Lambda = (z-1)(z-2), xi =", ctx.nstr(inst.xi(1), 6))
print()

for w_set in ([1], [2], [1, 2]):
    part = bq.InfinitePartition.make(N, [w_set])
    isol = bq.infinite_solution(inst, part)
    print(f"partition W = {w_set}: infinite split q+ deg {isol.q_plus[0].degree()},",
          f"q- deg {isol.q_minus[0].degree()}")
    roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=1))
    pretty = [ctx.nstr(w, 12) for w in roots.roots[0]]
    rep = bq.verify_bethe(inst, roots)
    print("  tracked roots:", pretty)
    print("  max residual :", ctx.nstr(ctx.mpf(rep.max_residual), 3), "pass:", rep.ok)
    sol = bq.roots_to_solution(inst, roots)
    print("  completion residuals vanish:", bq.residuals_vanish(inst, sol))
    print()

# the three branches are exactly the solutions of 3w^2 - 5w = 0 (degree 1)
# and z^2 - (5/3)z + 8/9 (degree 2, a conjugate pair)

print("sensitivity: a 1e-6 bump on a root breaks everything")
part = bq.InfinitePartition.make(N, [[2]])
roots = bq.seed_and_continue(inst, part, bq.SolveOptions(seed=1))
bumped = bq.BetheRoots.make(N, [[roots.roots[0][0] + N("1e-6")]])
print("  perturbed residual:", ctx.nstr(ctx.mpf(bq.verify_bethe(inst, bumped).max_residual), 3))
try:
    bq.roots_to_solution(inst, bumped)
except bq.InconsistentSystem as exc:
    print("  completion now fails:", exc)
