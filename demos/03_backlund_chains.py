"""Backlund transformations: swapping q+_i with q-_i while reflecting the twist.

A single step at color i multiplies the connection by exp(mu_i f_i) and
produces a solution for s_i(Z^H); chains iterate this right-to-left along a
reduced Weyl word.  The degree of every new plus polynomial is predicted by
the combinatorial degree map, and the per-prefix inequalities decide whether
a fully generic chain can exist at all.  Where the twist pairs to zero with
the step's color, q-_i is fixed only up to a multiple of q+_i, and the chain
picks that multiple deterministically.
"""

from fractions import Fraction as Q

import betheqq as bq

F = bq.ExactField()

inst = bq.QQInstance.make(bq.CartanType("A", 2), F, points=[(0, (1, 0))],
                          twist=[Q(3, 2), Q(5, 7)])
xi1, xi2 = inst.xis()
w1 = -1 / (xi1 + xi2)
roots = bq.BetheRoots.make(F, [[w1], [w1 - 1 / xi2]])
sol = bq.roots_to_solution(inst, roots)

print("single step at color 1:")
ninst, nsol = bq.apply_simple(inst, sol, 1)
print("  twist", inst.twist.zeta, "->", ninst.twist.zeta)
print("  q+_1 :", sol.q_plus[0], "->", nsol.q_plus[0])
print("  residuals vanish under the reflected twist:", bq.residuals_vanish(ninst, nsol))
binst, bsol = bq.apply_simple(ninst, nsol, 1)
print("  applying color 1 again restores the twist:", binst.twist.zeta == inst.twist.zeta,
      "and q+:", all(a.coeffs == b.coeffs for a, b in zip(bsol.q_plus, sol.q_plus)))

word = bq.w0_reduced_word(inst.ctype)
print()
print("chain along the longest-element word", word.letters, "(applied right to left):")
trace = bq.chain(inst, sol, word)
datum = bq.CombinatorialDatum.from_instance(inst, [p.degree() for p in sol.q_plus])
cur = datum
cm = inst.cartan
for n, step in enumerate(trace.steps, start=1):
    predicted = bq.degree_map(cur, step.index, cm)
    print(f"  step {n}: s_{step.index}, degrees {step.solution.degrees()}",
          f"(predicted {predicted}), generic={step.generic}")
    cur = bq.CombinatorialDatum(tuple(p.degree() for p in step.solution.q_plus), cur.n)
print("final twist equals the word acting on Z^H:",
      trace.final_instance.twist.zeta)

print()
print("a zero pairing xi_2 = 0 leaves q-_2 free up to c q+_2; the chain keeps the")
print("first of c = 0, 1, ..., 8 whose step is generic:")
zinst = bq.QQInstance.make(bq.CartanType("A", 2), F, [(0, (1, 0))], [2, 1])
zw1 = -1 / zinst.xi(1)
zsol = bq.roots_to_solution(zinst, bq.BetheRoots.make(F, [[zw1], []]))
qm2 = zsol.q_minus[1] - bq.Poly.const(F, zsol.q_minus[1](zw1))  # shares the root of q+_1
zsol = bq.QQSolution.make(zsol.q_plus, [zsol.q_minus[0], qm2])
ztrace = bq.chain(zinst, zsol, bq.WeylWord.make([2, 1, 2], 2))
kept = ztrace.steps[0].solution.q_plus[1]
print(f"  q-_2 = {qm2} vanishes at the root {zw1} of q+_1, so c = 0 is not generic;")
print(f"  the first step keeps q+_2 = {kept}, which is (q-_2 + q+_2) made monic (c = 1):",
      kept.coeffs == (qm2 + zsol.q_plus[1]).monic().coeffs, f"generic={ztrace.steps[0].generic}")

print()
print("admissibility of degree data (d, N) along the same word:")
for d in [(1, 1), (0, 1), (2, 2)]:
    rep = bq.check_admissible(bq.CombinatorialDatum(d, (1, 0)), word, cm)
    states = [(p.prefix, p.holds, p.degrees) for p in rep.prefixes]
    print(f"  d = {d}: pass = {rep.ok}; per-prefix {states}")
