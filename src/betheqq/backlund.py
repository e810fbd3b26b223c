"""Backlund transformations on qq-solutions and their combinatorics.

A simple transformation at color i gauge-moves the associated connection by
exp(mu_i f_i), swapping (q+_i, q-_i) and reflecting the twist by s_i.  We
keep q+ families monic throughout: the new plus polynomial is q-_i divided
by its leading coefficient lambda, the new minus polynomial is -lambda q+_i,
and every other color's singularity lead absorbs lambda^{a_{ij}} (the pair
scaling (q+, q-) -> (q+/lambda, lambda q-) leaves equation i untouched and
shifts only the j-th right-hand sides).

Chains walk a reduced word right to left: step l applies the reflection at
letter k - l + 1 of the word (i_1, ..., i_k), so the final twist is
s_{i_1}...s_{i_k}(Z^H).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ChainBroken, InconsistentSystem
from .polyalg import Poly, RationalFn, chop
from .qqcore import (
    QQInstance,
    QQSolution,
    _complete_color,
    _qq_lhs,
    build_lambdas,
    check_nondegenerate,
    equation_holds,
    neighbor_product,
    neighbor_sum,
)
from .rootsys import WeylWord, is_reduced, reflect_twist


@dataclass(frozen=True)
class CombinatorialDatum:
    """Degrees of the q+ family and of the Lambda family."""

    d: tuple
    n: tuple

    @staticmethod
    def from_instance(inst: QQInstance, d: Sequence[int]) -> "CombinatorialDatum":
        return CombinatorialDatum(tuple(int(x) for x in d),
                                  tuple(p.degree() for p in build_lambdas(inst)))


def degree_map(datum: CombinatorialDatum, i: int, cartan) -> tuple:
    """Degrees after the transformation at color i:
    d'_i = N_i - d_i - sum_{k != i} a_{ki} d_k, others unchanged."""
    d = list(datum.d)
    d[i - 1] = neighbor_sum(cartan, datum.d, i, datum.n[i - 1] - d[i - 1])
    return tuple(d)


@dataclass(frozen=True)
class PrefixCheck:
    prefix: int
    degrees: tuple
    holds: bool


@dataclass(frozen=True)
class AdmissibleReport:
    word: WeylWord
    prefixes: tuple
    ok: bool


def check_admissible(datum: CombinatorialDatum, word: WeylWord, cartan) -> AdmissibleReport:
    """Evaluate d_j <= N_j - sum_{p != j} a_{pj} d_p at every chain prefix.

    Prefix s applies the last s letters of the word (the chain order).  For
    a simply-laced type with regular semisimple twist, an all-pass report is
    equivalent to the existence of a fully generic chain with these degrees.
    """
    if not is_reduced(word, cartan):
        raise ValueError("word is not reduced")
    r = len(datum.d)
    current = datum
    checks = []
    ok = True
    for s in range(len(word) + 1):
        # d_j <= N_j - sum_{p != j} a_{pj} d_p  iff  d'_j >= 0 after the step at j
        holds = all(x >= 0 for x in current.d) and all(
            degree_map(current, j, cartan)[j - 1] >= 0 for j in range(1, r + 1))
        checks.append(PrefixCheck(s, current.d, holds))
        ok = ok and holds
        if s < len(word):
            letter = word.letters[len(word) - 1 - s]
            current = CombinatorialDatum(degree_map(current, letter, cartan), current.n)
    return AdmissibleReport(word, tuple(checks), ok)


def mu(inst: QQInstance, sol: QQSolution, i: int) -> RationalFn:
    """Gauge coefficient in product form: prod_{j != i}(q+_j)^(-a_{ji}) / (q+_i q-_i)."""
    qp, qm = sol.q_plus[i - 1], sol.q_minus[i - 1]
    if qp.is_zero or qm.is_zero:
        raise ValueError(f"mu needs nonzero q+_{i} and q-_{i}")
    num = neighbor_product(inst.cartan, sol.q_plus, i, Poly.const(inst.field, 1))
    return RationalFn.make(num, qp * qm)


def mu_gauge_form(inst: QQInstance, sol: QQSolution, i: int) -> RationalFn:
    """The same coefficient from the connection side:
    [W(q+_i, q-_i) + xi_i q+_i q-_i] / (Lambda_i q+_i q-_i).

    Agrees with :func:`mu` exactly when the i-th residual vanishes; comparing
    the two forms is therefore a solution check.
    """
    qp, qm = sol.q_plus[i - 1], sol.q_minus[i - 1]
    w, x = _qq_lhs(qp, qm, inst.xi(i))
    return RationalFn.make(w + x, build_lambdas(inst)[i - 1] * qp * qm)


def apply_simple(inst: QQInstance, sol: QQSolution, i: int
                 ) -> tuple[QQInstance, QQSolution]:
    """One Backlund step at color i.

    Requires q-_i != 0, and the i-th residual to vanish (else
    :class:`InconsistentSystem`).  Returns the reflected-twist instance
    (with the lead ledger updated) and the new solution; colors j != i are
    re-completed under the new twist, so the same error from there means
    the input was not i-composable.
    """
    qm = chop(sol.q_minus[i - 1])
    if qm.is_zero:
        raise ValueError(f"q-_{i} vanishes; the step at color {i} is undefined")
    if not equation_holds(inst, sol, i):
        raise InconsistentSystem(i, f"equation {i} does not hold; Backlund step undefined")

    lam = qm.lc()
    cmat = inst.cartan
    new_twist = reflect_twist(i, inst.twist, cmat)
    lead = list(inst.lead)
    for j in range(1, inst.rank + 1):
        aij = cmat.a(i, j)
        if aij < 0:  # a_ii = 2, and CartanMatrix admits no positive a_ij
            lead[j - 1] = lead[j - 1] / lam ** (-aij)
    new_inst = QQInstance(inst.ctype, inst.points, new_twist, tuple(lead), inst.extra)

    q_plus = list(sol.q_plus)
    q_minus = list(sol.q_minus)
    q_plus[i - 1] = qm.monic()
    q_minus[i - 1] = sol.q_plus[i - 1].scale(-lam)
    for j in range(1, inst.rank + 1):
        if j != i:
            q_minus[j - 1] = _complete_color(new_inst, q_plus, j)
    return new_inst, QQSolution.make(q_plus, q_minus)


@dataclass(frozen=True)
class ChainStep:
    index: int  # the reflection applied at this step
    instance: QQInstance
    solution: QQSolution
    mu: RationalFn
    generic: bool


@dataclass(frozen=True)
class ChainTrace:
    word: WeylWord
    initial_instance: QQInstance
    initial_solution: QQSolution
    steps: tuple

    @property
    def final_instance(self) -> QQInstance:
        return self.steps[-1].instance if self.steps else self.initial_instance

    @property
    def final_solution(self) -> QQSolution:
        return self.steps[-1].solution if self.steps else self.initial_solution

    @property
    def fully_generic(self) -> bool:
        return all(s.generic for s in self.steps)


def _step(inst: QQInstance, sol: QQSolution, i: int, c: int = 0) -> ChainStep:
    """The Backlund step at color i, run with q-_i + c q+_i in place of q-_i."""
    if c:
        q_minus = list(sol.q_minus)
        q_minus[i - 1] = q_minus[i - 1] + sol.q_plus[i - 1].scale(inst.field(c))
        sol = QQSolution.make(sol.q_plus, q_minus)
    step_mu = mu(inst, sol, i)
    new_inst, new_sol = apply_simple(inst, sol, i)
    return ChainStep(i, new_inst, new_sol, step_mu, check_nondegenerate(new_inst, new_sol.q_plus).ok)


def chain(inst: QQInstance, sol: QQSolution, word: WeylWord) -> ChainTrace:
    """Iterate simple Backlund steps right-to-left through a reduced word.

    Records per step whether the new q+ family is nondegenerate
    (``generic``).  Where the step's color pairs to zero, q-_i is fixed up to
    c q+_i: the step runs with c = 0, 1, ..., 8 in turn and keeps the first
    generic one (one that fails is passed over), else the one with c = 0.
    A failed step at c = 0 (a failed completion, or a q+ or q- that vanishes
    numerically) raises :class:`ChainBroken` carrying the partial trace.
    """
    if not is_reduced(word, inst.cartan):
        raise ValueError("word is not reduced")
    trace = ChainTrace(word, inst, sol, ())
    for step_no, letter in enumerate(reversed(word.letters), start=1):
        cur_inst, cur_sol = trace.final_instance, trace.final_solution
        try:
            step = _step(cur_inst, cur_sol, letter)
        except ValueError as exc:  # InconsistentSystem, or a polynomial that vanished numerically
            raise ChainBroken(step_no, exc, trace) from exc
        if cur_inst.xi(letter) == 0 and not step.generic:
            for c in range(1, 9):
                try:
                    cand = _step(cur_inst, cur_sol, letter, c)
                except ValueError:  # this shift breaks a completion; try the next
                    continue
                if cand.generic:
                    step = cand
                    break
        trace = ChainTrace(word, inst, sol, trace.steps + (step,))
    return trace
