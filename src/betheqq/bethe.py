"""Bethe Ansatz residuals, Newton solving, and infinite-system seeding.

The equation attached to root l of color i reads

    xi_i + sum_k e_{k,i}/(w - z_k) - sum_{(j,s) != (i,l)} a_{ji}/(w - w^j_s) = 0

where e_{k,i} is the exponent of the marked point z_k in Lambda_i.  An
instance whose Lambda_i carry polynomial cofactors contributes the cofactor's
logarithmic derivative as well, so the residual is always the logarithmic
derivative of the full singularity polynomial.

Polynomial solvability of the qq-system with a given q+ root configuration
is equivalent to these equations; completion failure and nonzero residuals
detect the same defect through independent computations.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from typing import Sequence

from mpmath.libmp import from_float, fzero, mpc_shift, mpc_to_complex, mpf_shift, round_nearest

from .errors import BadPartition, NoConvergence, PathCollision, PoleCollision, SingularJacobian
from .polyalg import Poly, RationalFn, _factor, _near, _solve, poly_from_roots
from .qqcore import QQInstance, QQSolution, complete_minus, qq_rhs
from .scalars import ExactField, Field, MachineField, NumericField, residual_repr


@dataclass(frozen=True)
class BetheRoots:
    """One multiset of roots per color (the zeros of the q+ polynomials)."""

    roots: tuple  # tuple of tuples of scalars

    @staticmethod
    def make(field: Field, roots: Sequence[Sequence]) -> "BetheRoots":
        return BetheRoots(tuple(tuple(field(w) for w in color) for color in roots))

    @property
    def rank(self) -> int:
        return len(self.roots)

    def degrees(self) -> tuple:
        return tuple(len(c) for c in self.roots)

    def total(self) -> int:
        return sum(len(c) for c in self.roots)

    def canonical(self, field: Field) -> "BetheRoots":
        """Sort each color by real part, then imaginary part, real parts
        within ``tau_root`` counting as equal (``Field.ordered``)."""
        return BetheRoots(tuple(tuple(field.ordered(c)) for c in self.roots))

    def flat(self) -> list:
        return [w for color in self.roots for w in color]

    def _matching(self, inst: QQInstance) -> "BetheRoots":
        """These roots; ValueError unless they have one root set per color of ``inst``."""
        if self.rank != inst.rank:
            raise ValueError(f"the instance has {inst.rank} colors, the roots {self.rank}")
        return self

    def replace_flat(self, values: Sequence) -> "BetheRoots":
        out, pos = [], 0
        for color in self.roots:
            out.append(tuple(values[pos : pos + len(color)]))
            pos += len(color)
        return BetheRoots(tuple(out))


@dataclass(frozen=True)
class SolveOptions:
    seed: int = 0


def _collision_guard(field: Field, denom, where: str, *at):
    """``denom``, unless |denom| <= ``tau_root``; formats ``where`` only then."""
    if field.within(denom, field.tau_root):
        raise PoleCollision("vanishing denominator at " + where.format(*at))
    return denom


@dataclass(frozen=True)
class _System:
    """The Bethe equations of one instance at one twist scale, in ``field``:
    per color xi_i, the poles ``(k, e_{k,i})`` with k an index into the points
    p = (0, z_1, ..., z_m), the couplings ``{j: a_ji}`` and a nonconstant
    cofactor p with p' and (p'/p)'.  ``diff[a][b] = p_a - p_b`` is formed in
    the instance's field.  A root is an offset from its anchor, an index into
    p: ``anchors`` holds one per root (and then no cofactor), or is None for
    the origin, as in every public view.  All views evaluate ``equation``.
    ``real``: every xi_i and difference has imaginary part exactly 0 (the
    couplings are integers) and there is no cofactor, as ``of`` decides; a
    system at another scale is not marked real."""

    field: Field
    xis: tuple
    diff: tuple
    poles: tuple
    couplings: tuple
    extra: tuple
    anchors: tuple | None = None
    real: bool = False

    @staticmethod
    def of(inst: QQInstance) -> "_System":
        """``inst``'s data, a nonconstant cofactor p as ``(p,)``, coerced by ``to``."""
        r, cmat, pts = inst.rank, inst.cartan, (0,) + tuple(z for z, _ in inst.points)
        xis, diff = inst.xis(), tuple(tuple(a - b for b in pts) for a in pts)
        extra = tuple(None if e is None or e.degree() == 0 else (e,) for e in inst.extra)
        real = all(e is None for e in extra) and not any(v.imag for v in (*xis, *(d for row in diff for d in row)))
        return _System(None, xis, diff,
                       tuple(tuple((k, e[i]) for k, (_, e) in enumerate(inst.points, 1) if e[i]) for i in range(r)),
                       tuple({j: cmat.a(j, i) for j in range(1, r + 1) if cmat.a(j, i)} for i in range(1, r + 1)),
                       extra, None, real).to(inst.field)

    def to(self, f: Field) -> "_System":
        """The same equations with each coefficient coerced to the field
        ``f``; a cofactor's derivatives are formed there."""
        extra = [e and Poly.make(f, e[0].coeffs) for e in self.extra]
        return _System(f, tuple(map(f, self.xis)), tuple(tuple(map(f, row)) for row in self.diff),
                       tuple(tuple((k, f(e)) for k, e in p) for p in self.poles),
                       tuple({j: f(a) for j, a in c.items()} for c in self.couplings),
                       tuple(p and (p, p.deriv(), RationalFn.make(p.deriv(), p).deriv()) for p in extra),
                       self.anchors, self.real)

    def at_scale(self, zeta: Sequence, k) -> "_System":
        """The equations at the twist of coroot coordinates ``zeta``, coordinates
        multiplied by k; xi_i is formed as ``rootsys.pairing`` forms it."""
        xis = []
        for couplings in self.couplings:
            acc = self.field.zero
            for j, a in couplings.items():
                acc = acc + a * zeta[j - 1]
            xis.append(acc)
        return _System(self.field, tuple(xis), tuple(tuple(k * d for d in row) for row in self.diff), self.poles,
                       self.couplings, self.extra, self.anchors)

    def equation(self, colors: tuple, i: int, ell: int, residual: bool = True, row: list | None = None,
                 starts: Sequence = ()):
        """Residual ``ell`` of color ``i`` (0-based) at the roots ``colors``,
        each denominator guarded against collision (None unless
        ``residual``); given ``row``, also fill in its unguarded Jacobian row,
        color j starting at column ``starts[j]``.  Each w - v is formed once."""
        field, w, anchors = self.field, colors[i][ell], self.anchors
        acc, diag = self.xis[i], field.zero
        shift = self.diff[anchors[i][ell] if anchors else 0]
        for k, e in self.poles[i]:
            d = w + shift[k]
            if residual:
                acc = acc + e / _collision_guard(field, d, "w - z ({},{})", i + 1, ell + 1)
            if row is not None:
                diag = diag - e / d ** 2
        if self.extra[i] is not None:
            p, dp, g = self.extra[i]
            if residual:
                acc = acc + dp(w) / _collision_guard(field, p(w), "cofactor ({},{})", i + 1, ell + 1)
            if row is not None:
                diag = diag + g(w)
        for j, a in self.couplings[i].items():
            for s, v in enumerate(colors[j - 1]):
                if j == i + 1 and s == ell:
                    continue
                d = w - v + shift[anchors[j - 1][s]] if anchors else w - v
                if residual:
                    acc = acc - a / _collision_guard(field, d, "w - w ({},{})/({},{})", i + 1, ell + 1, j, s + 1)
                if row is not None:
                    row[starts[j - 1] + s] = t = -a / d ** 2
                    diag = diag - t
        if row is not None:
            row[starts[i] + ell] = diag
        return acc if residual else None

    def gaps(self, colors: tuple):
        """Yield each denominator of the equations at the roots ``colors``, as
        ``equation`` forms it, that vanishes when roots collide (on a
        continuation path, where every cofactor is constant, all of them)."""
        anchors = self.anchors
        for i, color in enumerate(colors):
            for ell, w in enumerate(color):
                shift = self.diff[anchors[i][ell] if anchors else 0]
                yield from (w + shift[k] for k, _ in self.poles[i])
                # each pair once: this color's later roots, then those of later coupled colors
                for j in (j for j in self.couplings[i] if j > i):
                    for s in range(ell + 1 if j == i + 1 else 0, len(colors[j - 1])):
                        v = colors[j - 1][s]
                        yield w - v + shift[anchors[j - 1][s]] if anchors else w - v

    def sweep(self, roots: BetheRoots, residual: bool = True, jacobian: bool = False):
        """``(residuals, max |residual|, Jacobian)`` in the flat root order
        from one pass over the equations; the parts not asked for are None."""
        colors, n = roots.roots, roots.total()
        starts = [sum(map(len, colors[:j])) for j in range(len(colors))]
        jac = [[self.field.zero] * n for _ in range(n)] if jacobian else None
        res = [self.equation(colors, i, ell, residual, jac and jac[starts[i] + ell], starts)
               for i, color in enumerate(colors) for ell in range(len(color))]
        return (res, self.field.max_abs(res), jac) if residual else (None, None, jac)


def _system(inst: QQInstance, roots: BetheRoots | None = None) -> _System:
    """``_System.of(inst)``, built once and kept on the instance, for ``roots`` if given (``_matching``)."""
    if roots is not None:
        roots._matching(inst)
    return vars(inst).get("_bethe") or vars(inst).setdefault("_bethe", _System.of(inst))


def bethe_residual(inst: QQInstance, roots: BetheRoots, i: int, ell: int):
    """The (i, ell)-th residual as an explicit sum over poles."""
    return _system(inst, roots).equation(roots.roots, i - 1, ell - 1)


def bethe_residual_log_form(inst: QQInstance, roots: BetheRoots, i: int, ell: int):
    """The same residual through the logarithmic-derivative formulation.

    Computes xi_i + d/dz log[ Lambda_i prod_j (q+_j)^(-a_{ji}) (z-w)^2 ] at
    z = w by cancelling the (z-w)^2 factor against (q+_i)^2 symbolically and
    evaluating the reduced rational function.  Independent of the pole-sum
    route: it works on expanded polynomial coefficients.
    """
    field = inst.field
    w = roots.roots[i - 1][ell - 1]
    num = qq_rhs(inst, [poly_from_roots(field, color) for color in roots.roots], i)
    # a_{ii} = 2: the denominator (q+_i)^2 cancels (z-w)^2 after deflation
    u = poly_from_roots(field, [v for s, v in enumerate(roots.roots[i - 1], start=1) if s != ell])
    den = u * u
    f_num = num.deriv() * den - num * den.deriv()
    f_den = num * den
    val_den = _collision_guard(field, f_den(w), "log-form denominator ({},{})", i, ell)
    return inst.xi(i) + f_num(w) / val_den


@dataclass
class BetheReport:
    max_residual: object
    residuals: dict
    tolerance: object
    ok: bool


def verify_bethe(inst: QQInstance, roots: BetheRoots) -> BetheReport:
    """Max |residual| over all equations; pass iff at most the field's tau."""
    tol = inst.field.tau
    res, worst, _ = _system(inst, roots).sweep(roots)
    labels = [(i, ell) for i, color in enumerate(roots.roots, start=1) for ell in range(1, len(color) + 1)]
    return BetheReport(worst, dict(zip(labels, res)), tol, worst <= tol)


def bethe_jacobian(inst: QQInstance, roots: BetheRoots) -> list:
    """Analytic Jacobian of the stacked residual vector in the flat root order."""
    return _system(inst, roots).sweep(roots, residual=False, jacobian=True)[2]


#: a Newton step longer than this many times 1 + max|w| counts as singular: it
#: throws a root toward infinity, where the residual tends to |xi_i|
_STEP_CAP = 2 ** 10
_MIN_STEP = 2.0 ** -30  #: the smallest continuation step in the path parameter s
_DAMPING = ("1", "1/2", "1/4", "1/8", "1/16")  #: the damped step lengths Newton tries, in order
_ITERATIONS = 50  #: the most Newton steps of ``solve_newton`` and of a first continuation correction
_MACH = MachineField()
#: the widest ratio of magnitude to distance that machine floats resolve to
#: about half their digits: ``solve_newton`` takes full-precision directions
#: where a gap of the equations is closer than this for the roots and points
_MACH_SPREAD = _MACH.tau_root ** 0.5 / _MACH.tau


def _newton_direction(field: Field, factored, rhs: list, flat: list | None = None) -> list:
    """Solve ``jac x = rhs`` on ``factored = _factor(field, jac)``; with the
    roots ``flat``, an x beyond ``_STEP_CAP`` (1 + max|w|) counts as singular."""
    jac, pivots, _ = factored
    if len(pivots) < len(rhs):
        raise SingularJacobian(f"Jacobian of rank {len(pivots)} < {len(rhs)}")
    x = [v / row[c] for v, row, c in zip(_solve(factored, rhs), jac, pivots)]
    if flat is not None and not field.max_abs(x) <= _STEP_CAP * (1 + field.max_abs(flat)):
        raise SingularJacobian("Newton step beyond the scale of the roots")
    return x


def _machine_factors(machine: _System, rounded: tuple) -> tuple:
    """``(factored Jacobian, step bound)`` of ``machine`` at the float roots
    ``rounded`` (equal floats, equal bits: mpmath has no -0), or ``(None, why)``:
    a gap too small for the roots and points, or a failed float Jacobian."""
    flat = [w for color in rounded for w in color]
    top = max(map(abs, flat + list(machine.diff[0])))
    if any(abs(g) * _MACH_SPREAD < top for g in machine.gaps(rounded)):
        return None, "roots too close for their magnitude in machine floats"
    try:
        factored = _factor(_MACH, machine.sweep(BetheRoots(rounded), residual=False, jacobian=True)[2])
    except (ZeroDivisionError, OverflowError) as exc:
        return None, f"machine Jacobian failed: {exc}"
    return factored, _STEP_CAP * (1 + _MACH.max_abs(flat))


def _machine_direction(field: Field, factors, rts: BetheRoots, res: list, worst) -> list:
    """The Newton direction in ``field`` for the residuals ``res`` (max
    ``worst``) at ``rts`` from ``factors``, ``_machine_factors`` of the
    equations in machine floats at the roots rounded to floats.  The
    residuals are scaled by 2^-e, e the exponent of ``worst``, before they
    are rounded, and the direction back by 2^e: both exact, so floats
    resolve residuals below their range; an entry of imaginary part 0 is an
    mpf.  SingularJacobian when ``factors`` refuses or the direction is too long or not finite."""
    factored, cap = factors(tuple(tuple(complex(w) for w in color) for color in rts.roots))
    if factored is None:
        raise SingularJacobian(cap)
    man, exp = worst.man_exp
    e = exp + man.bit_length()
    rhs = [-mpc_to_complex(mpc_shift(getattr(v, "_mpc_", None) or (v._mpf_, fzero), -e), rnd=round_nearest)
           for v in res]
    delta = _newton_direction(_MACH, factored, rhs)
    if not all(map(cmath.isfinite, delta)):
        raise SingularJacobian("machine Newton direction is not finite")
    if field.ctx.ldexp(_MACH.max_abs(delta), e) > cap:
        raise SingularJacobian("Newton step beyond the scale of the roots")
    ctx = field.ctx
    return [ctx.make_mpc((mpf_shift(from_float(d.real), e), mpf_shift(from_float(d.imag), e))) if d.imag
            else ctx.make_mpf(mpf_shift(from_float(d.real), e)) for d in delta]


def _conjugation(roots: BetheRoots):
    """The map that makes a flat root list as conjugation-symmetric as
    ``roots`` is, as BetheRoots, or None.  Within a color, a root whose
    nearest conjugate among the unmatched roots is another root's, within
    ``_MACH.tau`` (1 + max|w|), the floats' accuracy at the roots' scale,
    pairs with it: (w, v) -> (m, conj m), m = (w + conj v)/2.  Else a root
    within that distance of its own conjugate is real: w -> Re w.  None if
    some root is neither."""
    flat = roots.flat()
    tol = _MACH.tau * (1 + max(map(abs, flat)))
    reals, pairs, pos = [], [], 0
    for color in roots.roots:
        free = list(range(pos, pos + len(color)))
        pos += len(color)
        while free:
            a = free.pop(0)
            gap, b = min((abs(flat[a] - flat[b].conjugate()), b) for b in [a] + free)  # a itself on a tie
            if not gap <= tol:
                return None
            if b == a:
                reals.append(a)
            else:
                free.remove(b)
                pairs.append((a, b))

    def symmetric(flat: list) -> BetheRoots:
        for a in reals:
            flat[a] = flat[a].real
        for a, b in pairs:
            m = (flat[a] + flat[b].conjugate()) / 2
            flat[a], flat[b] = m, m.conjugate()
        return roots.replace_flat(flat)

    return symmetric


def solve_newton(inst: QQInstance, init: BetheRoots, log: list | None = None, *,
                 context: dict | None = None) -> BetheRoots:
    """Damped Newton iteration on the stacked Bethe residuals, polished.

    Deterministic for a fixed (instance, init).  Once the max residual is
    at most the field's tau, full steps go on while each at least halves it,
    down to the precision floor, eps times max |xi_i|.  A step longer than
    ``_STEP_CAP`` times 1 + max|w| counts as singular (``SingularJacobian``).

    On a numeric field wider than 53 bits, residuals keep its precision but
    directions come from the Jacobian in machine floats, with the residuals
    scaled into their range: iterative refinement, about 15 digits per step
    (``_ITERATIONS`` caps these steps), below the float range too.
    The iteration falls back to the full-precision direction when the
    machine one is singular, not finite or too long, or when no damped step
    along it is accepted before convergence; past the tolerance a machine
    step that fails to halve the residual ends the polish.  On a real
    instance (``_System.real``) a start that is conjugation-symmetric up to
    float accuracy is refined symmetrically, real roots as mpf and the
    others as exact pairs; if that fails, once more in complex arithmetic.
    The roots come back in canonical order (``BetheRoots.canonical``).  Log records carry
    ``context`` and the ``"jacobian_precision"`` of the step's direction
    (53: machine floats; None when the call took no step).
    """
    field = inst.field
    return _newton(_system(inst, init), init, field.tau, _ITERATIONS, log, True, context)[0].canonical(field)


def _newton(system: _System, init: BetheRoots, tol, iterations: int, log: list | None,
            polish: bool, context: dict | None, swept: tuple | None = None) -> tuple:
    """Newton on the equations ``system`` to the max residual ``tol``, at
    most ``iterations`` steps, keeping the order of ``init``; ``polish`` as
    ``solve_newton`` polishes.  ``swept``: the sweep of ``init``, if formed.
    Returns the roots and their sweep ``(residuals, max, Jacobian)``, the
    Jacobian formed when there are no machine directions, else None.

    On real equations (``_System.real``) over a ``NumericField``, ``init``
    and each trial step are made as conjugation-symmetric as ``init`` is
    (``_conjugation``); if that raises NoConvergence or SingularJacobian,
    Newton runs once more from ``init`` as given, in complex arithmetic."""
    field = system.field
    machine = system.to(_MACH) if isinstance(field, NumericField) and field.precision > 53 else None
    floor = field.zero if isinstance(field, ExactField) else field.ctx.eps * field.max_abs(system.xis)
    damping = cache(field)  # each damped step length coerced once per call, when first tried
    factors = machine and lru_cache(1)(partial(_machine_factors, machine))  # for the last rounded roots

    def directions(rts, res, worst, jac):  # jac: the field's Jacobian at rts, if formed
        """``(jacobian precision, direction)`` in the order they are tried."""
        try:
            delta = factors and _machine_direction(field, factors, rts, res, worst)
        except SingularJacobian:
            delta = None
        if delta:
            yield 53, delta
        jac = jac or system.sweep(rts, residual=False, jacobian=True)[2]
        yield field.precision, _newton_direction(field, _factor(field, jac), [-v for v in res], rts.flat())

    def step(rts, res, worst, jac, converged):
        """The first accepted ``(roots, residuals, max, Jacobian, damping,
        precision)``, or None; past the tolerance only a full step that
        halves the max.  Without machine directions a trial's sweep forms its
        Jacobian too, for the next step."""
        flat = rts.flat()
        for prec, delta in directions(rts, res, worst, jac):
            for alpha in map(damping, _DAMPING[:1] if converged else _DAMPING):
                trial = [w + alpha * d for w, d in zip(flat, delta)]
                trial = symmetric(trial) if symmetric else rts.replace_flat(trial)
                try:
                    tres, tworst, tjac = system.sweep(trial, jacobian=machine is None)
                except PoleCollision:
                    continue
                if (tworst <= worst / 2) if converged else (tworst < worst or tworst <= tol):
                    return trial, tres, tworst, tjac, alpha, prec
            if converged:
                return None
        return None

    def record(it, worst, alpha, prec, **extra):
        if log is not None:
            log.append({"step": it, "max_residual": residual_repr(field, worst), "damping": float(alpha),
                        "precision": field.precision, "jacobian_precision": prec, **extra, **(context or {})})

    def run(rts, swept):
        res, worst, jac = swept or system.sweep(rts, jacobian=machine is None)
        prec = None  # no step, no Jacobian precision
        for it in range(iterations + 1):
            converged = worst <= tol
            if converged and (not polish or worst <= floor) or it == iterations:
                break
            taken = step(rts, res, worst, jac, converged)
            if taken is None:
                if converged:
                    break
                raise NoConvergence(f"no damping step reduced the residual (residual {worst})")
            rts, res, worst, jac, alpha, prec = taken
            record(it, worst, alpha, prec)
        if worst > tol:
            raise NoConvergence(f"residual {worst} after {iterations} iterations")
        record(it, worst, 1, prec, converged=True)
        return rts, (res, worst, jac)

    if init.total() == 0:
        return init, None
    symmetric = system.real and isinstance(field, NumericField) and _conjugation(init)
    if symmetric:
        try:
            return run(symmetric(init.flat()), None)
        except (NoConvergence, SingularJacobian):
            symmetric = None  # once more, from the start as given, in complex arithmetic
    return run(init, swept)


# -- infinite qq-system ------------------------------------------------------


@dataclass(frozen=True)
class InfinitePartition:
    """Per color j, the set W_j of q+ roots drawn from Z_j and adjacent W_k."""

    w_sets: tuple  # tuple of tuples of scalars

    @staticmethod
    def make(field: Field, w_sets: Sequence[Sequence]) -> "InfinitePartition":
        return InfinitePartition(tuple(tuple(field(w) for w in ws) for ws in w_sets))


def _partition_sources(inst: QQInstance, part: InfinitePartition) -> tuple:
    """Validate ``part`` once, in the instance's field: every W_j is drawn
    from the multiplicity-free pool Z_j u U_{a_{kj}<0} W_k (Z_j the roots of
    Lambda_j), and the instance must be simply laced with squarefree,
    pairwise-disjoint Z_j.  Returns per color j the pool that W_j leaves
    (the roots of q-_j), and the anchor of each root of W_j: the index k of
    the marked point z_k of Z_j it is drawn from (1-based in
    ``inst.points``), or None for a root drawn from W_k.  Such a root is put
    twice into the color-j product unless W_j's copy is itself drawn from
    W_k, so it occurs only in a cycle, which has no large-twist branch.
    """
    field = inst.field
    if not inst.ctype.is_simply_laced:
        raise BadPartition(f"infinite system seeding requires a simply-laced type, not {inst.ctype}")
    cmat = inst.cartan
    for i in range(inst.rank):
        if inst.extra[i] is not None and inst.extra[i].degree() > 0:
            raise BadPartition("instances with polynomial cofactors cannot be partitioned")
        if any(exps[i] > 1 for _, exps in inst.points):
            raise BadPartition(f"Lambda_{i + 1} has a multiple root; squarefree mode requires exponents <= 1")
    own = [[k for k, (_, exps) in enumerate(inst.points, start=1) if exps[i] == 1] for i in range(inst.rank)]
    z_sets = [[inst.points[k - 1][0] for k in ks] for ks in own]
    if any(sum(exps) > 1 for _, exps in inst.points):  # marked points are distinct under ``_near``
        raise BadPartition("two of the Z_j share a marked point")
    if len(part.w_sets) != inst.rank:
        raise BadPartition("partition needs one W set per color")
    rests, anchors = [], []
    for j in range(1, inst.rank + 1):
        pool, tags = list(z_sets[j - 1]), list(own[j - 1])  # tags: each pool entry's anchor
        for k in range(1, inst.rank + 1):
            if k != j and cmat.a(k, j) < 0:
                pool.extend(part.w_sets[k - 1])
                tags.extend([None] * len(part.w_sets[k - 1]))
        # multiplicity-free right-hand side
        if any(_near(field, z, pool[a + 1:]) is not None for a, z in enumerate(pool)):
            raise BadPartition(f"multiplicity in the color-{j} product")
        found = []
        for w in part.w_sets[j - 1]:
            idx = _near(field, w, pool)
            if idx is None:
                raise BadPartition(f"W_{j} is not contained in its pool")
            pool.pop(idx)
            found.append(tags.pop(idx))
        rests.append(pool)
        anchors.append(tuple(found))
    return rests, tuple(anchors)


def infinite_solution(inst: QQInstance, part: InfinitePartition) -> QQSolution:
    """Solution of the product system q+_j q-_j = Lambda_j prod (q+_k)^(-a_{kj}).

    Validates the partition (``_partition_sources``); q-_j has the roots that
    W_j leaves in its pool.  Roots drawn from an adjacent W_k (a cycle)
    pass; ``seed_and_continue`` rejects them.
    """
    field = inst.field
    rests = _partition_sources(inst, part)[0]
    return QQSolution.make([poly_from_roots(field, ws) for ws in part.w_sets],
                           [poly_from_roots(field, rest) for rest in rests])


def seed_and_continue(inst: QQInstance, part: InfinitePartition,
                      opts: SolveOptions | None = None, log: list | None = None) -> BetheRoots:
    """Track Bethe roots from the infinite system down to the target twist.

    Each root w of W_j is a marked point z_a of Z_j (a root drawn from an
    adjacent W_k, which occurs only in a cycle, raises ``BadPartition``).
    Its offset u = w - z_a is seeded to first order, ``-1/xi_j`` at twist
    scale ``t_top``, and tracked along the seeded complex detour
    ``t(s) = t_top^(1-s) exp(i bump s(1-s))``, s from 0 to 1.  Each step
    predicts v = t u linearly, in the frame that moves with 1/t, exact where
    u = -1/(xi_j t): ``u(s+h) = (u + h (u' + u dlog)) t(s) / t(s+h)`` with
    ``dlog = (dt/ds) / t`` and the Euler tangent ``u' = -J^-1 (dF/dt)(dt/ds)``.
    No gap of the equations may change by more than itself in that frame (a
    predicted gap times t(s+h) / t(s) against the gap before the step).  It
    corrects with at most three Newton iterations (``_ITERATIONS`` at the
    seeds) to the machine ``tau_root`` relative to the twist.  The first step
    is the whole path, h = 1, and a step's target is min(1, s + h); h
    doubles after an accepted step and halves after a rejected one until the
    target moves, so no prediction is retried; below ``_MIN_STEP`` the
    corrector's last failure is raised (a collision as ``PathCollision``).
    The path runs in machine floats on the caller's equations, rescaled and
    coerced once after the differences of the points are formed in the
    caller's field, from ``t_top = tau_root^(-1/2) / sigma``, sigma = min(1, min|xi| * spacing).
    At s = 1 the roots are polished there as ``solve_newton`` polishes, and
    ``z_a + u / (c k)`` is refined in the caller's field (``solve_newton``).
    Log records carry ``"phase"``: ``"track"``, or ``"refine"`` at
    ``"precision"`` 53 (the polish) and then the caller's; tracking records
    also carry ``"s"``, the step ``"h"`` and the coordinate scale ``"k"``.
    """
    field = inst.field
    if isinstance(field, ExactField):
        raise NoConvergence("continuation requires the numeric backend")
    anchors = _partition_sources(inst, part)[1]
    if any(a is None for color in anchors for a in color):
        raise BadPartition("cyclic source assignment; no large-twist branch exists")
    xis = inst.xis()
    if any(x == 0 for x in xis):
        raise BadPartition("continuation target must pair nonzero with every simple root; "
                           "a scaled path with xi_i = 0 stays at xi_i = 0 for every scale")
    if all(len(ws) == 0 for ws in part.w_sets):
        return BetheRoots(tuple(() for _ in range(inst.rank)))

    # The equations keep their form under w - z_a -> c (w - z_a), xi -> xi / c
    # (partitioned cofactors are constants).  The tracked ones have max|xi| =
    # sigma and points at least 1 apart, so from t_top every seed starts
    # between tau_root^(1/2) and tau_root^(1/2) times the spacing from its
    # anchor.  Each step rescales again (``correct``), so the guards and pivot
    # thresholds of machine floats act relative to the geometry.
    mags = [field.abs(x) for x in xis]
    zs = [z for z, _ in inst.points]
    dists = [field.abs(u - v) for k, u in enumerate(zs) for v in zs[k + 1:]]
    sigma = min(1, min(mags) * min(dists)) if dists else 1
    c = max(mags) / sigma
    system = _system(inst)  # rescaled and coerced once; at_scale forms each xi_i
    tracked = replace(system.at_scale([x / c for x in inst.twist.zeta], c), anchors=anchors).to(_MACH)
    zeta = [_MACH(x / c) for x in inst.twist.zeta]
    ctx = _MACH.ctx
    t_top = _MACH.tau_root ** -0.5 / float(sigma)
    # detour the scale through the complex plane (seeded), so the path avoids
    # the real discriminant locus where tracked roots would collide
    rng = random.Random(f"{(opts or SolveOptions()).seed}-gamma")
    bump = rng.uniform(0.8, 2.4) * (1 if rng.random() < 0.5 else -1)
    lo = min(abs(x) for x in tracked.at_scale(zeta, 1).xis)

    def scale(s):
        return t_top ** (1 - s) * ctx.exp(ctx.mpc(0, 1) * bump * s * (1 - s))

    def at_scale(t, k):
        """The tracked equations at twist scale t, in coordinates multiplied by k."""
        return tracked.at_scale(tuple(z * t / k for z in zeta), k)

    def correct(roots, k, s, h, iterations):
        # keep the closest gap that may not vanish within [1/16, 16] by
        # rescaling it to 1, then correct to the machine tau_root relative
        # to the smallest |xi| at this scale (at least tau_root^2)
        t = scale(s)
        at = at_scale(t, k)
        gap = min(map(abs, at.gaps(roots.roots)))
        if not 1 / 16 <= gap <= 16 and gap > 0:
            roots = BetheRoots(tuple(tuple(u / gap for u in color) for color in roots.roots))
            k = k / gap
            at = at_scale(t, k)
        tol = _MACH.tau_root * max(_MACH.tau_root, lo * abs(t) / k)
        roots, swept = _newton(at, roots, tol, iterations, log, False, {"phase": "track", "s": s, "h": h, "k": float(k)})
        if s == 1:  # polish the endpoint in machine floats, so the refinement starts near their floor
            roots, swept = _newton(at, roots, tol, _ITERATIONS, log, True, {"phase": "refine"}, swept)
        return roots, k, at, swept[2]

    try:
        top = at_scale(scale(0.0), 1).xis
        seeds = BetheRoots(tuple(tuple(-1 / xi for _ in color) for color, xi in zip(anchors, top)))
        roots, k, at, jac = correct(seeds, 1, 0.0, 0.0, _ITERATIONS)
        s, h, tangent, failure = 0.0, 1.0, None, None
        while s < 1:
            if h < _MIN_STEP:  # the corrector's last failure, else a collision
                raise failure or PathCollision(f"continuation step below {_MIN_STEP} at s = {s}")
            if tangent is None:
                # F(u, t(s)) = 0 with dF_i/dt = xi_i / t at scale t (``at`` and its Jacobian ``jac``
                # at the roots, from ``correct``)
                dlog = ctx.mpc(-ctx.log(t_top), bump * (1 - 2 * s))  # (dt/ds) / t
                rhs = [-xi * dlog for xi, color in zip(at.xis, roots.roots) for _ in color]
                tangent = _newton_direction(_MACH, _factor(_MACH, jac), rhs)
                gaps = list(at.gaps(roots.roots))
            # v = t u linearly in s: u(nxt) = (u + h (u' + u dlog)) t(s) / t(nxt)
            nxt = min(1.0, s + h)
            ratio = scale(s) / scale(nxt)
            pred = roots.replace_flat([(u + (nxt - s) * (d + u * dlog)) * ratio
                                       for u, d in zip(roots.flat(), tangent)])
            # no gap may change by more than itself in that frame: guards against path jumping
            if not any(abs(g / ratio - g0) > abs(g0) for g, g0 in zip(at.gaps(pred.roots), gaps)):
                try:
                    roots, k, at, jac = correct(pred, k, nxt, h, 3)
                    s, h, tangent, failure = nxt, 2 * h, None, None
                    continue
                except (NoConvergence, SingularJacobian, PoleCollision) as exc:
                    failure = exc
            while min(1.0, s + h) == nxt:  # refused: the prediction depends on the target alone
                h /= 2
        roots = BetheRoots(tuple(tuple(system.diff[a][0] + field(u) / (c * k) for u, a in zip(color, ids))
                                 for color, ids in zip(roots.roots, anchors)))
        return solve_newton(inst, roots, log, context={"phase": "refine"})
    except PoleCollision as exc:
        raise PathCollision(f"tracked roots merged on the path: {exc}") from exc


def roots_to_solution(inst: QQInstance, roots: BetheRoots) -> QQSolution:
    """Monic q+ from the root sets, each exact conjugate pair as a real
    quadratic factor (``poly_from_roots``), then polynomial completion."""
    return complete_minus(inst, [poly_from_roots(inst.field, color) for color in roots._matching(inst).roots])
