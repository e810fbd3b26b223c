"""The Wronskian qq-system: instances, residuals, completion, folding.

The i-th equation of the system, for colors i = 1..r, reads

    W(q+_i, q-_i) + xi_i q+_i q-_i  =  Lambda_i * prod_{j != i} (q+_j)^(-a_{ji})

with xi_i = <alpha_i, Z^H> and W the Wronskian p q' - q p'.  An instance
fixes the Lie type, the singularity polynomials Lambda_i (as marked points
with coweight exponents, an optional scalar lead, and an optional expanded
polynomial cofactor so that folded systems stay representable), and the
twist Z^H.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .errors import InconsistentSystem, UnsupportedType
from .polyalg import Poly, _near, chop, coprime_check, distinct_roots_check, poly_from_roots, solve_linear_system
from .polyalg import wronskian as wr
from .rootsys import CartanMatrix, CartanType, Twist, cartan_matrix, pairings, twist_from_pairings
from .scalars import Field


@dataclass(frozen=True)
class QQInstance:
    """Lie type + singularity data + semisimple twist.

    ``points`` is a tuple of ``(z_k, exponents)`` pairs where ``exponents``
    has one nonnegative integer per color: the pairing of the color's simple
    root with the coweight attached to z_k.  Color i's singularity polynomial
    is ``lead_i * prod_k (z - z_k)^{exponents[k][i]} * extra_i``.
    """

    ctype: CartanType
    points: tuple  # ((scalar, (int, ...)), ...)
    twist: Twist
    lead: tuple
    extra: tuple  # one Poly (or None) per color

    @staticmethod
    def make(ctype: CartanType, field: Field, points: Sequence, twist: Sequence,
             lead: Sequence | None = None, extra: Sequence | None = None) -> "QQInstance":
        r = ctype.rank
        pts = []
        for z, exps in points:
            exps = tuple(int(e) for e in exps)
            if len(exps) != r:
                raise ValueError(f"point needs {r} exponents, got {len(exps)}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            pts.append((field(z), exps))
        if any(_near(field, z, [p for p, _ in pts[a + 1:]]) is not None for a, (z, _) in enumerate(pts)):
            raise ValueError("marked points must be pairwise distinct, more than tau_root apart")
        tw = Twist.make(field, twist)
        if tw.rank != r:
            raise ValueError(f"twist needs {r} coordinates")
        ld = tuple(field(x) for x in (lead if lead is not None else [1] * r))
        if len(ld) != r or any(x == 0 for x in ld):
            raise ValueError("lead needs one nonzero scalar per color")
        ex = tuple(extra) if extra is not None else (None,) * r
        if len(ex) != r or any(e is not None and e.is_zero for e in ex):
            raise ValueError("extra cofactors must be nonzero polynomials")
        return QQInstance(ctype, tuple(pts), tw, ld, ex)

    @property
    def field(self) -> Field:
        return self.twist.field

    @property
    def rank(self) -> int:
        return self.ctype.rank

    @property
    def cartan(self) -> CartanMatrix:
        return self.ctype.cartan

    @cached_property
    def _pairings(self) -> tuple:
        return pairings(self.twist, self.cartan)

    @cached_property
    def _lambdas(self) -> tuple:
        out = []
        for i in range(self.rank):
            p = poly_from_roots(self.field, [z for z, exps in self.points for _ in range(exps[i])], self.lead[i])
            out.append(p if self.extra[i] is None else p * self.extra[i])
        return tuple(out)

    def xi(self, i: int):
        if not 1 <= i <= self.rank:
            raise IndexError(f"color index {i} out of range 1..{self.rank}")
        return self._pairings[i - 1]

    def xis(self) -> tuple:
        return self._pairings

    def with_twist(self, twist: Twist) -> "QQInstance":
        return replace(self, twist=twist)


@dataclass(frozen=True)
class QQSolution:
    """Candidate polynomial families; validity means vanishing residuals."""

    q_plus: tuple
    q_minus: tuple

    @staticmethod
    def make(q_plus: Sequence[Poly], q_minus: Sequence[Poly]) -> "QQSolution":
        return QQSolution(tuple(q_plus), tuple(q_minus))

    @property
    def rank(self) -> int:
        return len(self.q_plus)

    def degrees(self) -> tuple:
        return tuple(p.degree() for p in self.q_plus)


@dataclass(frozen=True)
class NondegReport:
    monic: tuple
    squarefree: tuple
    coprime_to_lambda: tuple
    pairwise_coprime: dict
    ok: bool


def build_lambdas(inst: QQInstance) -> tuple:
    """Expanded singularity polynomials Lambda_i, built once per instance."""
    return inst._lambdas


def neighbor_product(cmat: CartanMatrix, factors: Sequence, i: int, base):
    """base * prod_{j != i} factors_j^(-a_{ji}), multiplied on in color order.

    ``factors`` holds one polynomial or scalar per color.
    """
    out = base
    for j, f in enumerate(factors, start=1):
        e = -cmat.a(j, i)
        if j != i and e:
            out = out * f ** e
    return out


def neighbor_sum(cmat: CartanMatrix, values: Sequence, i: int, base):
    """base - sum_{j != i} a_{ji} values_j: the additive ``neighbor_product``."""
    out = base
    for j, v in enumerate(values, start=1):
        a = cmat.a(j, i)
        if j != i and a:
            out = out - a * v
    return out


def qq_rhs(inst: QQInstance, q_plus: Sequence[Poly], i: int) -> Poly:
    """Lambda_i * prod_{j != i} (q+_j)^(-a_{ji})."""
    return neighbor_product(inst.cartan, q_plus, i, build_lambdas(inst)[i - 1])


def _qq_lhs(qp: Poly, qm: Poly, xi) -> tuple:
    """W(q+, q-) and xi q+ q-, the left-hand terms of a qq-equation."""
    return wr(qp, qm), (qp * qm).scale(xi)


def _qq_terms(inst: QQInstance, sol: QQSolution, i: int) -> tuple:
    """The ``_qq_lhs`` of color i and the right-hand side of equation i."""
    return *_qq_lhs(sol.q_plus[i - 1], sol.q_minus[i - 1], inst.xi(i)), qq_rhs(inst, sol.q_plus, i)


def qq_residual(inst: QQInstance, sol: QQSolution, i: int) -> Poly:
    """LHS - RHS of the i-th equation; the zero polynomial iff it holds."""
    w, x, rhs = _qq_terms(inst, sol, i)
    return w + x - rhs


def qq_residual_scale(inst: QQInstance, sol: QQSolution, i: int):
    """Coefficient scale of the i-th equation, for relative zero tests."""
    return max(t.norm() for t in _qq_terms(inst, sol, i))


def _terms_hold(field: Field, terms: tuple, res: Poly | None = None) -> bool:
    """Whether W + x - rhs of ``terms`` (``_qq_terms``), or its given value
    ``res``, is zero or negligible against the largest term."""
    w, x, rhs = terms
    res = w + x - rhs if res is None else res
    return res.is_zero or field.is_zero(res.norm(), scale=field.max_abs([c for t in terms for c in t.coeffs]))


def equation_holds(inst: QQInstance, sol: QQSolution, i: int, res: Poly | None = None) -> bool:
    """Whether the i-th equation holds: its residual ``res`` (computed when
    not given) is zero, or negligible against the equation's scale."""
    return (res is not None and res.is_zero) or _terms_hold(inst.field, _qq_terms(inst, sol, i), res)


def residuals_vanish(inst: QQInstance, sol: QQSolution) -> bool:
    return all(equation_holds(inst, sol, i) for i in range(1, inst.rank + 1))


def check_nondegenerate(inst: QQInstance, q_plus: Sequence[Poly]) -> NondegReport:
    """Monic / squarefree / coprime-to-Lambda / Dynkin-adjacent coprime checks."""
    field = inst.field
    lambdas = build_lambdas(inst)
    cmat = inst.cartan
    r = inst.rank
    monic, squarefree, cop_lam = [], [], []
    for i in range(r):
        p = q_plus[i]
        if p.is_zero:
            raise ValueError(f"q+_{i + 1} is the zero polynomial")
        monic.append(p.is_monic())
        squarefree.append(distinct_roots_check(p))
        cop_lam.append(coprime_check(p, lambdas[i]))
    pairwise = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if cmat.adjacent(i, j):
                pairwise[(i, j)] = coprime_check(q_plus[i - 1], q_plus[j - 1])
    ok = all(monic) and all(squarefree) and all(cop_lam) and all(pairwise.values())
    return NondegReport(tuple(monic), tuple(squarefree), tuple(cop_lam), pairwise, ok)


def expected_minus_degree(inst: QQInstance, dplus: Sequence[int], i: int) -> int:
    """Generic degree of q-_i: deg Lambda_i - d_i - sum_{j!=i} a_{ji} d_j,
    plus one when xi_i = 0."""
    lam = build_lambdas(inst)[i - 1]
    deg = neighbor_sum(inst.cartan, dplus, i, lam.degree() - dplus[i - 1])
    return deg + 1 if inst.xi(i) == 0 else deg


def _complete_color(inst: QQInstance, q_plus: Sequence[Poly], i: int, shift=None) -> Poly:
    """Solve W(q+_i, h) + xi_i q+_i h = RHS_i for a polynomial h.

    For xi_i = 0 the kernel is spanned by q+_i; the representative returned
    has integration constant zero (zero constant term in the polynomial part
    of h/q+_i), shifted by ``shift``*q+_i when requested.
    """
    field = inst.field
    qp = q_plus[i - 1]
    if qp.is_zero:
        raise ValueError(f"q+_{i} is the zero polynomial")
    xi = inst.xi(i)
    rhs = qq_rhs(inst, q_plus, i)
    dplus = [p.degree() for p in q_plus]
    gen_deg = expected_minus_degree(inst, dplus, i)
    if xi != 0 and gen_deg < 0:
        raise InconsistentSystem(i, f"generic completion degree {gen_deg} < 0 for color {i}")
    cap = gen_deg if xi != 0 else max(gen_deg, qp.degree())

    rows_len = max(rhs.degree() if not rhs.is_zero else 0, qp.degree() + cap) + 1
    # column k holds W(q+_i, z^k) + xi q+_i z^k, rounded as those products
    # round, in the band k - 1 <= m <= k + deg q+_i of rows; zero outside
    c, dc, deg, zero = qp.coeff, qp.deriv().coeff, qp.degree(), field.zero
    rows = [[k * c(m - k + 1) - dc(m - k) + xi * c(m - k) if k - 1 <= m <= k + deg else zero
             for k in range(cap + 1)] for m in range(rows_len)]
    b = [rhs.coeff(m) for m in range(rows_len)]
    sol, defect = solve_linear_system(field, rows, b)
    # xi_i != 0 fixes deg h by its leading term xi_i lc(q+_i) lc(h); for xi_i = 0 it can fall
    h = None if sol is None else Poly.make(field, sol) if xi != 0 else chop(Poly.make(field, sol))
    if h is None or not _terms_hold(field, (*_qq_lhs(qp, h, xi), rhs)):
        raise InconsistentSystem(i, f"no polynomial q-_{i}: residual {defect}")
    if xi == 0:
        # fix the integration constant: zero constant term in (h div q+_i)
        quot, _ = h.divmod(qp)
        c0 = quot.coeff(0)
        if c0 != 0:
            h = h - qp.scale(c0)
        if shift is not None and field(shift) != 0:
            h = h + qp.scale(shift)
    return h


def complete_minus(inst: QQInstance, q_plus: Sequence[Poly],
                   constants: Sequence | None = None) -> QQSolution:
    """Complete a q+ family to a full solution by linear algebra per color.

    ``constants`` optionally supplies, per color, the free coefficient c_i of
    the family q-_i + c_i q+_i available when xi_i = 0 (ignored otherwise).
    Raises :class:`InconsistentSystem` when some color admits no polynomial
    completion; by the qq/Bethe correspondence this is exactly a failure of
    the Bethe equations for that color.
    """
    q_minus = []
    for i in range(1, inst.rank + 1):
        shift = constants[i - 1] if constants is not None else None
        q_minus.append(_complete_color(inst, q_plus, i, shift=shift))
    return QQSolution.make(tuple(q_plus), q_minus)


def fold(inst: QQInstance, sol: QQSolution) -> tuple[QQInstance, QQSolution]:
    """Fold a B_n or G_2 system to its simply-laced shadow.

    With k the short simple root, l its neighbor across the multiple bond
    and m = -a_{kl}:

        q~k_pm   = (qk_pm)^m
        Lambda~k = m * (qk_+ qk_-)^(m-1) * Lambda_k
        xi~_i    = (1 + delta_{ik} (m - 1)) * xi_i

    All other data is unchanged; in particular Lambda~_l = Lambda_l, which is
    what makes the folded l-th equation balance.  Vanishing residuals fold to
    vanishing residuals; the folded solution is degenerate as soon as
    deg qk_+ >= 1 (the folded plus polynomial acquires multiple roots).
    A zero qk_+ qk_- fails equation k and raises :class:`InconsistentSystem`.
    """
    ctype = inst.ctype
    if ctype.family not in ("B", "G"):
        raise UnsupportedType(f"fold needs a unique short simple root; {ctype} does not have one")
    field = inst.field
    cmat = inst.cartan
    k = ctype.short_simple_root
    neighbors = [j for j in range(1, inst.rank + 1) if cmat.adjacent(k, j) and cmat.a(k, j) < -1]
    (l,) = neighbors
    mult = -cmat.a(k, l)

    folded_type = ctype.folded()
    folded_cmat = cartan_matrix(folded_type)
    xi_new = list(inst.xis())
    xi_new[k - 1] = field(mult) * xi_new[k - 1]
    twist_new = twist_from_pairings(field, folded_cmat, xi_new)

    qpk, qmk = sol.q_plus[k - 1], sol.q_minus[k - 1]
    if (qpk * qmk).is_zero:
        raise InconsistentSystem(k, f"q+_{k} q-_{k} vanishes, so the folded Lambda_{k} would too")
    pair_pow = (qpk * qmk) ** (mult - 1)
    extra = list(inst.extra)
    extra[k - 1] = pair_pow if extra[k - 1] is None else extra[k - 1] * pair_pow
    lead = list(inst.lead)
    lead[k - 1] = lead[k - 1] * field(mult)

    new_inst = QQInstance(folded_type, inst.points, twist_new, tuple(lead), tuple(extra))
    q_plus = list(sol.q_plus)
    q_minus = list(sol.q_minus)
    q_plus[k - 1] = qpk ** mult
    q_minus[k - 1] = qmk ** mult
    return new_inst, QQSolution.make(q_plus, q_minus)
