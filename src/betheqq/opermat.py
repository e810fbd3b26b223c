"""Connection-level realizations: Cartan coefficients, rank-2 restrictions,
twist verification, regularity residues, and type-A matrix computations.

General connections are carried by their Chevalley coefficient family
({g_i}, {Lambda_i}) with g_i = zeta_i - (q+_i)'/q+_i.  Matrices appear in
two places only: the 2x2 restrictions attached to each fundamental weight
(any type), and the defining-representation computations of type A
(twist reduction, Bruhat factorization, full diagonalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .backlund import ChainTrace, chain
from .bethe import BetheRoots
from .errors import FactorizationFailed, PoleCollision, UnsupportedType
from .polyalg import Poly, RationalFn, log_deriv, roots, solve_linear_ode
from .qqcore import QQInstance, QQSolution, build_lambdas, neighbor_product, neighbor_sum
from .rootsys import CartanMatrix, CartanType, Twist, WeylWord, twist_from_pairings
from .scalars import Field


# -- matrices of rational functions ----------------------------------------


def rf_const(field: Field, value) -> RationalFn:
    return RationalFn.from_poly(Poly.const(field, value))


def rf_zero(field: Field) -> RationalFn:
    return RationalFn.from_poly(Poly.zero(field))


@dataclass(frozen=True)
class RatMatrix:
    """Square matrix with rational-function entries."""

    entries: tuple

    @staticmethod
    def build(rows: Sequence[Sequence[RationalFn]]) -> "RatMatrix":
        return RatMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def sparse(field: Field, n: int, entries: dict) -> "RatMatrix":
        """The n x n matrix with ``entries[(row, col)]`` there and zeros elsewhere."""
        zero = rf_zero(field)
        return RatMatrix.build([[entries.get((i, j), zero) for j in range(n)] for i in range(n)])

    @staticmethod
    def identity(field: Field, n: int) -> "RatMatrix":
        return RatMatrix.diagonal([rf_const(field, 1)] * n)

    @staticmethod
    def diagonal(diag: Sequence[RationalFn]) -> "RatMatrix":
        return RatMatrix.sparse(diag[0].field, len(diag), {(i, i): d for i, d in enumerate(diag)})

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def field(self) -> Field:
        return self.entries[0][0].field

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = rf_zero(self.field)
                for k in range(n):
                    a, b = self.entries[i][k], other.entries[k][j]
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RatMatrix.build(out)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix.build(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def deriv(self) -> "RatMatrix":
        return RatMatrix.build([[e.deriv() for e in row] for row in self.entries])

    def is_upper_triangular(self) -> bool:
        return all(self.entries[i][j].is_zero for i in range(self.n) for j in range(i))

    def inverse_triangular(self) -> "RatMatrix":
        """Inverse of an upper-triangular matrix by back substitution."""
        n = self.n
        field = self.field
        inv = {}
        for j in range(n):
            for i in range(j, -1, -1):
                if i == j:
                    inv[(i, j)] = rf_const(field, 1) / self.entries[i][i]
                else:
                    acc = rf_zero(field)
                    for k in range(i + 1, j + 1):
                        acc = acc + self.entries[i][k] * inv[(k, j)]
                    inv[(i, j)] = -acc / self.entries[i][i]
        return RatMatrix.sparse(field, n, inv)

    def defect(self, other: "RatMatrix"):
        """Max relative coefficient defect over entries (0 iff equal)."""
        worst = None
        for ra, rb in zip(self.entries, other.entries):
            for a, b in zip(ra, rb):
                d = a.defect(b)
                worst = d if worst is None else max(worst, d)
        return worst


def gauge_transform(a_mat: RatMatrix, v: RatMatrix) -> RatMatrix:
    """Connection matrix of v(d + A)v^-1: v A v^-1 - v' v^-1, formed as
    ((v A) - v') v^-1 so the subtraction meets the low-degree v A and v'."""
    return ((v @ a_mat) - v.deriv()) @ v.inverse_triangular()


# -- the Cartan-coefficient connection --------------------------------------


@dataclass(frozen=True)
class MiuraConnection:
    """Coefficient family of d_z + sum_i g_i alphacheck_i + sum_i Lambda_i e_i,
    with g_i = zeta_i - (y_i)'/y_i and y_i the (polynomial) framing data."""

    twist: Twist
    g: tuple  # RationalFn per color
    lambdas: tuple  # Poly per color
    y: tuple  # Poly per color

    @property
    def rank(self) -> int:
        return len(self.g)


def build_connection(inst: QQInstance, q_plus: Sequence[Poly]) -> MiuraConnection:
    field = inst.field
    gs = []
    for i in range(inst.rank):
        if q_plus[i].is_zero:
            raise ValueError(f"q+_{i + 1} is the zero polynomial")
        g = rf_const(field, inst.twist.zeta[i]) - log_deriv(q_plus[i])
        gs.append(g)
    return MiuraConnection(inst.twist, tuple(gs), build_lambdas(inst), tuple(q_plus))


@dataclass(frozen=True)
class Gl2Oper:
    raw: RatMatrix
    tilde: RatMatrix
    rho: Poly


def gl2_oper(conn: MiuraConnection, cmat: CartanMatrix, i: int) -> Gl2Oper:
    """Rank-2 restriction at color i, its constant-trace gauge, and rho_i.

    raw   = [[g_i, Lambda_i], [0, -g_i - sum_{k != i} a_{ki} g_k]]
    tilde = [[zeta_i - (log y_i)', rho_i], [0, -zeta_i - sum_{k != i} a_{ki} zeta_k + (log y_i)']]
    rho_i = Lambda_i * prod_{k != i} y_k^(-a_{ki})   (a polynomial).
    """
    field = conn.twist.field
    r = conn.rank
    g_i = conn.g[i - 1]
    lower = -g_i
    for k in range(1, r + 1):
        if k != i and cmat.a(k, i):
            lower = lower - rf_const(field, cmat.a(k, i)) * conn.g[k - 1]
    raw = RatMatrix.build(
        [[g_i, RationalFn.from_poly(conn.lambdas[i - 1])], [rf_zero(field), lower]]
    )

    rho = neighbor_product(cmat, conn.y, i, conn.lambdas[i - 1])
    # tilde's upper diagonal, zeta_i - (log y_i)', is g_i
    low = rf_const(field, neighbor_sum(cmat, conn.twist.zeta, i, -conn.twist.zeta[i - 1])) + log_deriv(conn.y[i - 1])
    tilde = RatMatrix.build([[g_i, RationalFn.from_poly(rho)], [rf_zero(field), low]])
    return Gl2Oper(raw, tilde, rho)


def mp_twist_block(inst: QQInstance, i: int) -> RatMatrix:
    """Z restricted to the i-th rank-2 subspace: diag(zeta_i, -zeta_i - sum a_{ji} zeta_j)."""
    field = inst.field
    z1 = inst.twist.zeta[i - 1]
    z2 = neighbor_sum(inst.cartan, inst.twist.zeta, i, -z1)
    return RatMatrix.diagonal([rf_const(field, z1), rf_const(field, z2)])


def framing_block(inst: QQInstance, sol: QQSolution, i: int) -> RatMatrix:
    """v_i = diag(q+_i, (q+_i)^-1 prod_{j != i}(q+_j)^(-a_{ji})) [[1, -q-_i/q+_i],[0,1]]."""
    field = inst.field
    qp = sol.q_plus[i - 1]
    if qp.is_zero:
        raise ValueError(f"q+_{i} is the zero polynomial")
    prod = neighbor_product(inst.cartan, sol.q_plus, i, Poly.const(field, 1))
    d1 = RationalFn.from_poly(qp)
    d2 = RationalFn.make(prod, qp)
    shear = RationalFn.make(-sol.q_minus[i - 1], qp)
    return RatMatrix.build(
        [[d1, d1 * shear], [rf_zero(field), d2]]
    )


def verify_mp_twist(inst: QQInstance, sol: QQSolution, i: int):
    """Max coefficient defect of nabla_i - v_i (d + Z_i) v_i^-1 (0 iff twisted)."""
    conn = build_connection(inst, sol.q_plus)
    cmat = inst.cartan
    raw = gl2_oper(conn, cmat, i).raw
    v = framing_block(inst, sol, i)
    gauged = gauge_transform(mp_twist_block(inst, i), v)
    return raw.defect(gauged)


# -- regularity at the Bethe roots ------------------------------------------


def regularity_residues(inst: QQInstance, sol: QQSolution,
                        bethe_roots: BetheRoots | None = None) -> dict:
    """Finite part of 2/(z-w) + <alpha_i, A^H(z)> + (log Lambda_i)' at each root.

    The double-pole cancellation between 2/(z-w) and the color-i term of
    <alpha_i, A^H> is carried out symbolically by division by (z - w), so
    the value is computed from expanded polynomial data alone, each p'/p at w
    by ``RationalFn.__call__``, whose pole test raises the ``PoleCollision``.
    Vanishing at every root is equivalent to the Bethe equations.
    """
    field = inst.field
    lambdas = build_lambdas(inst)
    if bethe_roots is None:
        bethe_roots = BetheRoots(tuple(tuple(roots(p)) for p in sol.q_plus))

    def ratio(p: Poly, w, pole: str):
        try:  # unreduced: an exact gcd costs far more than the evaluation
            return RationalFn(p.deriv(), p)(w)
        except PoleCollision:
            raise PoleCollision(pole) from None

    out = {}
    for i in range(1, inst.rank + 1):
        for ell, w in enumerate(bethe_roots.roots[i - 1], start=1):
            acc = inst.xi(i) + ratio(lambdas[i - 1], w, f"root ({i},{ell}) lies on Lambda_{i}")
            for j in range(1, inst.rank + 1):
                aji = inst.cartan.a(j, i)
                if j != i and aji != 0:
                    acc = acc - field(aji) * ratio(sol.q_plus[j - 1], w, f"root ({i},{ell}) meets a root of q+_{j}")
            # color i itself: 2/(z-w) - 2 (log q+_i)' has finite part -2 u'/u
            u = sol.q_plus[i - 1].deflate(w)
            if not u.is_zero and u.degree() > 0:
                acc = acc - field(2) * ratio(u, w, f"q+_{i} has a multiple root at ({i},{ell})")
            out[(i, ell)] = acc
    return out


# -- type A matrix computations ---------------------------------------------


def _type_a_check(ctype: CartanType) -> None:
    if ctype.family != "A":
        raise UnsupportedType(f"defining-representation computations require type A, not {ctype}")


def _coroot_diagonal(zero, c: Sequence) -> list:
    """The diagonal of sum_a c_a alphacheck_a in the defining representation
    of type A: entry a is c_a - c_{a-1}, with zero beyond either end, each
    formed from ``zero``."""
    out = []
    for a in range(len(c) + 1):
        v = zero
        if a < len(c):
            v = v + c[a]
        if a > 0:
            v = v - c[a - 1]
        out.append(v)
    return out


def connection_matrix(inst: QQInstance, sol: QQSolution) -> RatMatrix:
    """A(z) in the defining representation of type A (n = rank + 1)."""
    _type_a_check(inst.ctype)
    field = inst.field
    conn = build_connection(inst, sol.q_plus)
    entries = {(a, a): d for a, d in enumerate(_coroot_diagonal(rf_zero(field), conn.g))}
    entries.update({(a, a + 1): RationalFn.from_poly(lam) for a, lam in enumerate(conn.lambdas)})
    return RatMatrix.sparse(field, inst.rank + 1, entries)


def twist_matrix(field: Field, twist: Twist) -> RatMatrix:
    """Z^H = diag(zeta_1, zeta_2 - zeta_1, ..., -zeta_r) in the defining rep."""
    return RatMatrix.diagonal([rf_const(field, v) for v in _coroot_diagonal(field.zero, twist.zeta)])


def _rf_is_zero(r: RationalFn) -> bool:
    field = r.field
    if r.num.is_zero:
        return True
    return field.is_zero(r.num.norm(), scale=max(r.den.norm(), field.abs(field.one)))


def _bruhat_eliminate(m: RatMatrix) -> RatMatrix:
    """The factor b+ of :func:`bruhat_factor_w0`, all that the elimination forms."""
    n = m.n
    work = [list(row) for row in m.entries]
    for b in range(1, n):
        for a in range(n - 1, n - 1 - b, -1):
            c = n - 1 - a
            piv = work[a][c]
            if _rf_is_zero(piv):
                raise FactorizationFailed(f"zero pivot on the antidiagonal at row {a}")
            x = work[a][b] / piv
            if _rf_is_zero(x):
                continue
            for row in range(n):
                work[row][b] = work[row][b] - x * work[row][c]
    for a in range(n):
        if _rf_is_zero(work[a][n - 1 - a]):
            raise FactorizationFailed("matrix is not in the open Bruhat cell")
    # b+ = work . P with P the antidiagonal permutation (an involution)
    return RatMatrix.build([[work[i][n - 1 - j] for j in range(n)] for i in range(n)])


def bruhat_factor_w0(m: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Factor m = b+ . w0 . n+ against the antidiagonal permutation.

    Gaussian elimination by column operations gives b+; a vanishing
    antidiagonal pivot means m lies outside the open cell and raises
    FactorizationFailed.  Returns (b+, n+) with n+ = w0 . b+^-1 . m (w0 is
    an involution); on NumericField its strictly lower entries are rounding.
    """
    b_plus = _bruhat_eliminate(m)
    return b_plus, w0_permutation(m.field, m.n) @ b_plus.inverse_triangular() @ m


def w0_permutation(field: Field, n: int) -> RatMatrix:
    return RatMatrix.sparse(field, n, {(i, n - 1 - i): rf_const(field, 1) for i in range(n)})


@dataclass(frozen=True)
class Diagonalization:
    v: RatMatrix
    residual: object
    trace: ChainTrace


def diagonalize_type_a(inst: QQInstance, sol: QQSolution, word: WeylWord) -> Diagonalization:
    """Build the upper-triangular gauge v with A = v (d + Z^H) v^-1.

    Runs the Backlund chain along the reduced word for the longest element,
    forms b- = [prod_steps (1 - mu_step E_{i+1,i})] . prod_j (qbar+_j)^{alphacheck_j}
    in the defining representation, splits b- = b+ . w0 . n+ by Gaussian
    elimination, and returns v = b+ together with the verification defect of
    A - (v Z^H v^-1 - v' v^-1).  The product is taken as column operations
    on the identity (column i-1 gains -mu_step times column i), then scaling.

    v is assembled from the returned trace.  The gauge product needs the
    unnormalized chain (a monic rescaling multiplies every later gauge
    coefficient by a constant and breaks the intertwining identity), so the
    trace's monic rescaling is undone through its lead ledger, one constant
    per color.
    """
    _type_a_check(inst.ctype)
    field = inst.field
    if len(word) != inst.ctype.n_positive_roots:
        raise ValueError("word length must equal the number of positive roots")
    trace = chain(inst, sol, word)
    n = inst.rank + 1

    # before the step at i the unnormalized (q+_i, q-_i) is (c_i q+_i, pair/c_i q-_i)
    # of the traced pair; lam is the step's monic rescaling
    c = [field.one] * inst.rank
    prev_inst, prev_sol = inst, sol
    zero = rf_zero(field)
    rows = [list(row) for row in RatMatrix.identity(field, n).entries]
    for step in trace.steps:
        i = step.index
        adj = neighbor_product(inst.cartan, c, i, field.one)
        pair = inst.lead[i - 1] / prev_inst.lead[i - 1] * adj
        mu_raw = RationalFn.make(step.mu.num.scale(adj), step.mu.den.scale(pair))
        for row in rows:  # times e^{-mu f_i} = 1 - mu E_{i+1,i}: column i-1 gains -mu column i
            if not row[i].is_zero:
                col = row[i - 1] + row[i] * -mu_raw
                row[i - 1] = zero if col.is_zero else col
        lam = -step.solution.q_minus[i - 1].lc() / prev_sol.q_plus[i - 1].lc()
        c[i - 1] = pair / c[i - 1] * lam
        prev_inst, prev_sol = step.instance, step.solution
    qbar = [p.scale(ck) for ck, p in zip(c, trace.final_solution.q_plus)]

    framed = [Poly.const(field, 1), *qbar, Poly.const(field, 1)]
    diag = [RationalFn.make(num, den) for den, num in zip(framed, framed[1:])]  # qbar_a / qbar_{a-1}
    b_minus = RatMatrix.build([[zero if e.is_zero else e * d for e, d in zip(row, diag)] for row in rows])

    b_plus = _bruhat_eliminate(b_minus)
    a_mat = connection_matrix(inst, sol)
    gauged = gauge_transform(twist_matrix(field, inst.twist), b_plus)
    residual = a_mat.defect(gauged)
    return Diagonalization(b_plus, residual, trace)


# -- reduction of a constant upper-triangular twist (type A) -----------------


def reduce_twist_type_a(field: Field, z_matrix: Sequence[Sequence]) -> tuple[RatMatrix, Twist]:
    """Conjugate d + Z, Z constant upper-triangular, to d + diag(Z).

    The unipotent gauge u(z) with u (d + Z) u^-1 = d + diag(Z) is fixed by
    u Z - u' = diag(Z) u, which reads entry by entry as the triangular
    recurrence u_ij' + (Z_ii - Z_jj) u_ij = sum_{i<=k<j} u_ik Z_kj, solved
    diagonal by diagonal from u_ii = 1.  Each u_ij is a polynomial in z: the
    unique one when the gap Z_ii - Z_jj is nonzero (a constant on the first
    diagonal), and the antiderivative with zero constant term when it is zero.
    Returns u and the diagonal as a twist for type A_{n-1} (the scalar part
    of the diagonal is central and dropped).
    """
    n = len(z_matrix)
    z = [[field(x) for x in row] for row in z_matrix]
    if any(z[i][j] != 0 for i in range(n) for j in range(i)):
        raise ValueError("twist matrix must be upper triangular")
    u = {(i, i): Poly.const(field, 1) for i in range(n)}
    for dist in range(1, n):
        for i in range(n - dist):
            j = i + dist
            rhs = sum((u[i, k].scale(z[k][j]) for k in range(i, j)), Poly.zero(field))
            u[i, j] = solve_linear_ode(field, z[i][i] - z[j][j], rhs)
    xi = [z[a][a] - z[a + 1][a + 1] for a in range(n - 1)]
    twist = twist_from_pairings(field, CartanType("A", n - 1).cartan, xi)
    return RatMatrix.sparse(field, n, {at: RationalFn.from_poly(p) for at, p in u.items()}), twist
