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

import logging
import random
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import BadPartition, NoConvergence, PathCollision, PoleCollision, SingularJacobian
from .polyalg import Poly, RationalFn, _gauss_jordan, poly_from_roots
from .qqcore import QQInstance, QQSolution, build_lambdas, neighbor_product
from .rootsys import Twist
from .scalars import ExactField, Field, MachineField, NumericField

logger = logging.getLogger(__name__)


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
        """Sort each color lexicographically by (real, imaginary) part."""
        return BetheRoots(tuple(tuple(sorted(c, key=field.sort_key)) for c in self.roots))

    def flat(self) -> list:
        return [w for color in self.roots for w in color]

    def replace_flat(self, values: Sequence) -> "BetheRoots":
        out, pos = [], 0
        for color in self.roots:
            out.append(tuple(values[pos : pos + len(color)]))
            pos += len(color)
        return BetheRoots(tuple(out))


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 50
    damping: tuple = ("1", "1/2", "1/4", "1/8", "1/16")
    tolerance: object = None  # default: the field's tau
    continuation: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0 or self.continuation <= 0:
            raise ValueError("iteration and continuation counts must be positive")

    def damping_values(self, field: Field):
        return [field(d) for d in self.damping]


def _collision_guard(field: Field, denom, what: str):
    guard = field.tau_root if isinstance(field, NumericField) else field.zero
    if field.abs(denom) <= guard:
        raise PoleCollision(f"vanishing denominator at {what}")
    return denom


def _root_gaps(inst: QQInstance, roots: BetheRoots):
    """Yield (value, what) for each quantity that vanishes when roots collide."""
    cmat = inst.cartan
    for i, color in enumerate(roots.roots, start=1):
        for a in range(len(color)):
            for b in range(a + 1, len(color)):
                yield color[a] - color[b], f"equal roots of color {i}"
        for w in color:
            for z, exps in inst.points:
                if exps[i - 1]:
                    yield w - z, f"root of color {i} on a singular point"
            extra = inst.extra[i - 1]
            if extra is not None and extra.degree() > 0:
                yield extra(w), f"root of color {i} on a cofactor zero"
        for j in range(i + 1, inst.rank + 1):
            if cmat.adjacent(i, j):
                for w in color:
                    for v in roots.roots[j - 1]:
                        yield w - v, f"colors {i},{j} share a root"


def bethe_residual(inst: QQInstance, roots: BetheRoots, i: int, ell: int):
    """The (i, ell)-th residual as an explicit sum over poles."""
    field = inst.field
    w = roots.roots[i - 1][ell - 1]
    acc = inst.xi(i)
    for z, e in inst._poles[i - 1]:
        acc = acc + e / _collision_guard(field, w - z, f"w - z ({i},{ell})")
    extra = inst.extra[i - 1]
    if extra is not None and extra.degree() > 0:
        acc = acc + extra.deriv()(w) / _collision_guard(field, extra(w), f"cofactor ({i},{ell})")
    for j, aji in inst._couplings[i - 1].items():
        for s, v in enumerate(roots.roots[j - 1], start=1):
            if (j, s) == (i, ell):
                continue
            acc = acc - aji / _collision_guard(field, w - v, f"w - w ({i},{ell})/({j},{s})")
    return acc


def bethe_residual_log_form(inst: QQInstance, roots: BetheRoots, i: int, ell: int):
    """The same residual through the logarithmic-derivative formulation.

    Computes xi_i + d/dz log[ Lambda_i prod_j (q+_j)^(-a_{ji}) (z-w)^2 ] at
    z = w by cancelling the (z-w)^2 factor against (q+_i)^2 symbolically and
    evaluating the reduced rational function.  Independent of the pole-sum
    route: it works on expanded polynomial coefficients.
    """
    field = inst.field
    w = roots.roots[i - 1][ell - 1]
    q_plus = [poly_from_roots(field, color) for color in roots.roots]
    num = neighbor_product(inst.cartan, q_plus, i, build_lambdas(inst)[i - 1])
    # a_{ii} = 2: the denominator (q+_i)^2 cancels (z-w)^2 after deflation
    u = poly_from_roots(field, [v for s, v in enumerate(roots.roots[i - 1], start=1) if s != ell])
    den = u * u
    f_num = num.deriv() * den - num * den.deriv()
    f_den = num * den
    val_den = _collision_guard(field, f_den(w), f"log-form denominator ({i},{ell})")
    return inst.xi(i) + f_num(w) / val_den


@dataclass
class BetheReport:
    max_residual: object
    residuals: dict
    tolerance: object
    ok: bool


def verify_bethe(inst: QQInstance, roots: BetheRoots, tolerance=None) -> BetheReport:
    """Max |residual| over all equations; pass iff at most the tolerance."""
    field = inst.field
    tol = field.tau if tolerance is None else tolerance
    vals = {}
    worst = field.abs(field.zero)
    for i in range(1, inst.rank + 1):
        for ell in range(1, len(roots.roots[i - 1]) + 1):
            v = bethe_residual(inst, roots, i, ell)
            vals[(i, ell)] = v
            worst = max(worst, field.abs(v))
    return BetheReport(worst, vals, tol, worst <= tol)


def bethe_jacobian(inst: QQInstance, roots: BetheRoots) -> list:
    """Analytic Jacobian of the stacked residual vector in the flat root order."""
    field = inst.field
    labels = [(i, s) for i in range(1, inst.rank + 1) for s in range(1, len(roots.roots[i - 1]) + 1)]
    n = len(labels)
    jac = [[field.zero] * n for _ in range(n)]
    for row, (i, ell) in enumerate(labels):
        w = roots.roots[i - 1][ell - 1]
        diag = field.zero
        for z, e in inst._poles[i - 1]:
            diag = diag - e / (w - z) ** 2
        extra = inst.extra[i - 1]
        if extra is not None and extra.degree() > 0:
            g = RationalFn.make(extra.deriv(), extra)
            diag = diag + g.deriv()(w)
        couplings = inst._couplings[i - 1]
        for col, (j, s) in enumerate(labels):
            if j not in couplings or (j, s) == (i, ell):
                continue
            jac[row][col] = -couplings[j] / (w - roots.roots[j - 1][s - 1]) ** 2
            diag = diag - jac[row][col]
        jac[row][row] = diag
    return jac


#: a Newton step longer than this many times 1 + max|w| counts as singular: it
#: throws a root toward infinity, where the residual tends to |xi_i|
_STEP_CAP = 2 ** 10
_MIN_STEP = 2.0 ** -30  #: the smallest continuation step in the path parameter s


def _newton_direction(field: Field, jac: list, rhs: list) -> list:
    """Solve ``jac x = rhs`` by the one Gauss-Jordan elimination."""
    a, pivots = _gauss_jordan(field, jac, rhs)
    if len(pivots) < len(rhs):
        raise SingularJacobian(f"Jacobian of rank {len(pivots)} < {len(rhs)}")
    return [row[-1] / row[c] for row, c in zip(a, pivots)]


def solve_newton(inst: QQInstance, init: BetheRoots, opts: SolveOptions | None = None,
                 log: list | None = None, *, polish: bool = False,
                 context: dict | None = None) -> BetheRoots:
    """Damped Newton iteration on the stacked Bethe residuals.

    Deterministic for a fixed (instance, init, options): the retry policy on
    a singular Jacobian perturbs all roots by seeded noise of magnitude
    10x tolerance, at most three times; a step longer than ``_STEP_CAP``
    times 1 + max|w| counts as singular.  With ``polish``, full steps go on
    past the tolerance while each at least halves the max residual.
    ``context`` is added to every log record.
    """
    opts = opts or SolveOptions()
    field = inst.field
    tol = field.abs(field(opts.tolerance) if opts.tolerance is not None else field.tau)
    rng = random.Random(opts.seed)
    damps = opts.damping_values(field)

    def residuals(rts: BetheRoots):
        rep = verify_bethe(inst, rts)
        return list(rep.residuals.values()), rep.max_residual

    def record(it, worst, alpha, **extra):
        if log is not None:
            log.append({"step": it, "max_residual": float(worst), "damping": float(alpha),
                        "precision": field.precision, **extra, **(context or {})})

    current = init
    if current.total() == 0:
        return current
    for attempt in range(4):
        try:
            rts = current
            res, worst = residuals(rts)
            for it in range(opts.max_iterations + 1):
                converged = worst <= tol
                if converged and (not polish or worst == 0) or it == opts.max_iterations:
                    break
                flat = rts.flat()
                delta = _newton_direction(field, bethe_jacobian(inst, rts), [-v for v in res])
                if max(field.abs(d) for d in delta) > _STEP_CAP * (1 + max(field.abs(w) for w in flat)):
                    raise SingularJacobian("Newton step beyond the scale of the roots")
                for alpha in [field(1)] if converged else damps:
                    trial = rts.replace_flat([w + alpha * d for w, d in zip(flat, delta)])
                    try:
                        tres, tworst = residuals(trial)
                    except PoleCollision:
                        continue
                    if (tworst <= worst / 2) if converged else (tworst < worst or tworst <= tol):
                        rts, res, worst = trial, tres, tworst
                        record(it, tworst, alpha)
                        break
                else:
                    if converged:
                        break
                    raise NoConvergence(f"no damping step reduced the residual (residual {worst})")
            if worst > tol:
                raise NoConvergence(f"residual {worst} after {opts.max_iterations} iterations")
            record(it, worst, 1, converged=True)
            return rts.canonical(field)
        except SingularJacobian:
            if attempt == 3 or isinstance(field, ExactField):
                raise
            noise = tol * 10
            jitter = []
            for w in current.flat():
                re = field((2 * rng.random() - 1)) * noise
                im = field((2 * rng.random() - 1)) * noise
                jitter.append(w + re + im * field([0, 1]))
            current = current.replace_flat(jitter)
    raise SingularJacobian("retry policy exhausted")


# -- infinite qq-system ------------------------------------------------------


@dataclass(frozen=True)
class InfinitePartition:
    """Per color j, the set W_j of q+ roots drawn from Z_j and adjacent W_k."""

    w_sets: tuple  # tuple of tuples of scalars

    @staticmethod
    def make(field: Field, w_sets: Sequence[Sequence]) -> "InfinitePartition":
        return InfinitePartition(tuple(tuple(field(w) for w in ws) for ws in w_sets))


def _instance_point_sets(inst: QQInstance):
    """Z_j = roots of Lambda_j; requires exponents in {0,1} per color."""
    sets = []
    for i in range(inst.rank):
        if inst.extra[i] is not None and inst.extra[i].degree() > 0:
            raise BadPartition("instances with polynomial cofactors cannot be partitioned")
        zs = []
        for z, exps in inst.points:
            if exps[i] > 1:
                raise BadPartition(f"Lambda_{i + 1} has a multiple root; squarefree mode requires exponents <= 1")
            if exps[i] == 1:
                zs.append(z)
        sets.append(tuple(zs))
    return sets


def _match(field: Field, value, pool) -> int | None:
    for idx, p in enumerate(pool):
        if (value == p) if isinstance(field, ExactField) else abs(value - p) <= field.tau_root:
            return idx
    return None


def infinite_solution(inst: QQInstance, part: InfinitePartition) -> QQSolution:
    """Solution of the product system q+_j q-_j = Lambda_j prod (q+_k)^(-a_{kj}).

    Validates the combinatorial constraints: every W_j is drawn from the
    multiplicity-free pool Z_j u U_{a_{kj}<0} W_k, and the instance must be
    simply laced with squarefree, pairwise-disjoint Lambda root sets.
    """
    field = inst.field
    if not inst.ctype.is_simply_laced:
        raise BadPartition(f"infinite system seeding requires a simply-laced type, not {inst.ctype}")
    cmat = inst.cartan
    z_sets = _instance_point_sets(inst)
    for i in range(inst.rank):
        for j in range(i + 1, inst.rank):
            for z in z_sets[i]:
                if _match(field, z, z_sets[j]) is not None:
                    raise BadPartition(f"Z_{i + 1} and Z_{j + 1} share a point")
    if len(part.w_sets) != inst.rank:
        raise BadPartition("partition needs one W set per color")
    q_plus, q_minus = [], []
    for j in range(1, inst.rank + 1):
        pool = list(z_sets[j - 1])
        for k in range(1, inst.rank + 1):
            if k != j and cmat.a(k, j) < 0:
                pool.extend(part.w_sets[k - 1])
        # multiplicity-free right-hand side
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                if _match(field, pool[a], [pool[b]]) is not None:
                    raise BadPartition(f"multiplicity in the color-{j} product")
        remaining = list(pool)
        for w in part.w_sets[j - 1]:
            idx = _match(field, w, remaining)
            if idx is None:
                raise BadPartition(f"W_{j} is not contained in its pool")
            remaining.pop(idx)
        q_plus.append(poly_from_roots(field, part.w_sets[j - 1]))
        q_minus.append(poly_from_roots(field, remaining))
    return QQSolution.make(q_plus, q_minus)


def _seed_positions(inst: QQInstance, part: InfinitePartition, xis) -> BetheRoots:
    """First-order seed w ~ source - c/xi at a large twist.

    Each root collides, as the twist grows, with a unique source: a point of
    its own Z_j or a root of an adjacent color.  The source assignment must
    be well-founded (no cycles), otherwise no large-twist branch exists.
    """
    field = inst.field
    cmat = inst.cartan
    z_sets = _instance_point_sets(inst)
    slots = [(j, s) for j in range(1, inst.rank + 1) for s in range(len(part.w_sets[j - 1]))]
    source: dict = {}
    for j, s in slots:
        w = part.w_sets[j - 1][s]
        if _match(field, w, z_sets[j - 1]) is not None:
            source[(j, s)] = None  # anchored at a fixed point
            continue
        anchored = False
        for k in range(1, inst.rank + 1):
            if k == j or cmat.a(k, j) >= 0:
                continue
            idx = _match(field, w, part.w_sets[k - 1])
            if idx is not None:
                source[(j, s)] = (k, idx)
                anchored = True
                break
        if not anchored:
            raise BadPartition(f"root {w} of color {j} has no source")
    # topological order over the source chains
    order, state = [], {slot: 0 for slot in slots}

    def visit(slot):
        if state[slot] == 1:
            raise BadPartition("cyclic source assignment; no large-twist branch exists")
        if state[slot] == 2:
            return
        state[slot] = 1
        src = source[slot]
        if src is not None:
            visit(src)
        state[slot] = 2
        order.append(slot)

    for slot in slots:
        visit(slot)
    pos = {}
    for j, s in order:
        w = part.w_sets[j - 1][s]
        base = w if source[(j, s)] is None else pos[source[(j, s)]]
        pos[(j, s)] = base - field.one / xis[j - 1]
    # one refinement sweep with the regular parts included
    for j, s in order:
        w = part.w_sets[j - 1][s]
        base = w if source[(j, s)] is None else pos[source[(j, s)]]
        reg = xis[j - 1]
        for z, exps in inst.points:
            if exps[j - 1] and not field.eq(z, w):
                reg = reg + field(exps[j - 1]) / (pos[(j, s)] - z)
        for k in range(1, inst.rank + 1):
            akj = cmat.a(k, j)
            if akj == 0:
                continue
            for t in range(len(part.w_sets[k - 1])):
                if (k, t) == (j, s) or (k, t) == source[(j, s)]:
                    continue
                denom = pos[(j, s)] - pos[(k, t)]
                if field.abs(denom) > 0:
                    reg = reg - field(akj) / denom
        pos[(j, s)] = base - field.one / reg
    return BetheRoots(tuple(tuple(pos[(j, s)] for s in range(len(part.w_sets[j - 1])))
                            for j in range(1, inst.rank + 1)))


def seed_and_continue(inst: QQInstance, part: InfinitePartition,
                      opts: SolveOptions | None = None, log: list | None = None) -> BetheRoots:
    """Track Bethe roots from the infinite system down to the target twist.

    The first-order deformation of the infinite-system roots at twist scale
    ``t_top`` starts a path along the seeded complex detour ``t(s) =
    t_top^(1-s) exp(i bump s(1-s))``, s from 0 to 1.  Each step predicts
    along the Euler tangent ``dw/ds = -J^-1 (dF/dt)(dt/ds)``, changing no
    root gap by more than itself, and corrects with at most three Newton
    iterations to the machine ``tau_root`` relative to the twist.  The step
    starts at ``1 / (opts.continuation - 1)``, doubles after an accepted
    step and halves after a rejected one; below ``_MIN_STEP`` the
    corrector's last failure is raised (a collision as ``PathCollision``).
    The path runs in machine floats (``MachineField``) on a shifted and
    rescaled copy of the instance, or in the caller's field when the points
    spread too wide, from ``t_top = tau_root^(-1/2) / sigma`` of the tracking
    field, sigma = min(1, min|xi| * spacing).  A refinement in the caller's
    field polishes the roots to its precision floor.  Log records carry
    ``"phase"`` (``"track"`` or ``"refine"``); tracking records also carry
    ``"s"`` and the step ``"h"``.
    """
    opts = opts or SolveOptions()
    field = inst.field
    if isinstance(field, ExactField):
        raise NoConvergence("continuation requires the numeric backend")
    infinite_solution(inst, part)  # validates the partition
    xis = inst.xis()
    if any(x == 0 for x in xis):
        raise ValueError("continuation target must pair nonzero with every simple root; "
                         "a scaled path with xi_i = 0 stays at xi_i = 0 for every scale")
    if all(len(ws) == 0 for ws in part.w_sets):
        return BetheRoots(tuple(() for _ in range(inst.rank)))

    # The equations keep their form under w, z -> c (w - b), xi -> xi / c
    # (partitioned cofactors are constants).  The tracked copy has max|xi| =
    # sigma and its points at least 1 apart, so from t_top every seed starts
    # between tau_root^(1/2) and tau_root^(1/2) times the spacing from its
    # source.  Each step rescales again (``correct``), so the guards and pivot
    # thresholds of the tracking field act relative to the geometry.
    mags = [field.abs(x) for x in xis]
    zs = [z for z, _ in inst.points]
    dists = [field.abs(u - v) for k, u in enumerate(zs) for v in zs[k + 1:]]
    sigma = min(1, min(mags) * min(dists)) if dists else 1
    c = max(mags) / sigma
    b = sum(zs, field.zero) / len(zs)
    track = mach = MachineField()
    if dists and c * max(dists) > mach.tau_root ** 0.5 / mach.tau:
        track = field
    target = QQInstance.make(inst.ctype, track, [(c * (z - b), e) for z, e in inst.points],
                             [x / c for x in inst.twist.zeta], inst.lead,
                             [None if e is None else Poly.make(track, e.coeffs) for e in inst.extra])
    part = InfinitePartition.make(track, [[c * (w - b) for w in ws] for ws in part.w_sets])
    ctx = track.ctx
    t_top = track.tau_root ** -0.5 / track(sigma).real
    # detour the scale through the complex plane (seeded), so the path avoids
    # the real discriminant locus where tracked roots would collide
    rng = random.Random(f"{opts.seed}-gamma")
    bump = ctx.mpf(rng.uniform(0.8, 2.4)) * (1 if rng.random() < 0.5 else -1)
    ladder = replace(opts, damping=tuple(opts.damping_values(track)))
    inner = replace(ladder, max_iterations=min(3, opts.max_iterations))
    lo = min(abs(x) for x in target.xis())

    def scale(s):
        return t_top ** (1 - s) * ctx.exp(ctx.mpc(0, 1) * bump * s * (1 - s))

    def at_scale(t, k):
        """The tracked copy at twist scale t, in coordinates multiplied by k."""
        return replace(target, points=tuple((k * z, e) for z, e in target.points),
                       twist=Twist(track, tuple(z * t / k for z in target.twist.zeta)))

    def correct(roots, k, s, h, step_opts):
        # keep the closest pair that may not collide within [1/16, 16] by
        # rescaling to 1 apart, then correct to the machine tau_root relative
        # to the smallest |xi| at this scale (at least tau_root^2)
        t = scale(s)
        at = at_scale(t, k)
        gap = min(abs(g) for g, _ in _root_gaps(at, roots))
        if not 1 / 16 <= gap <= 16 and gap > 0:
            roots = BetheRoots(tuple(tuple(w / gap for w in color) for color in roots.roots))
            k = k / gap
            at = at_scale(t, k)
        tol = mach.tau_root * max(mach.tau_root, lo * abs(t) / k)
        return solve_newton(at, roots, replace(step_opts, tolerance=tol), log=log,
                            context={"phase": "track", "s": s, "h": h}), k

    try:
        top = at_scale(scale(0.0), 1)
        roots, k = correct(_seed_positions(top, part, top.xis()), 1, 0.0, 0.0, ladder)
        s, h, tangent, failure = 0.0, max(_MIN_STEP, 1 / max(1, opts.continuation - 1)), None, None
        while s < 1:
            if h < _MIN_STEP:  # the corrector's last failure, else a collision
                raise failure or PathCollision(f"continuation step below {_MIN_STEP} at s = {s}")
            if tangent is None:
                # Euler predictor: F(w, t(s)) = 0 with dF_i/dt = xi_i / t at scale t
                at = at_scale(scale(s), k)
                dlog = ctx.mpc(-ctx.log(t_top), bump * (1 - 2 * s))  # (dt/ds) / t
                rhs = [-at.xi(i) * dlog for i, color in enumerate(roots.roots, start=1) for _ in color]
                tangent = _newton_direction(track, bethe_jacobian(at, roots), rhs)
                gaps = [g for g, _ in _root_gaps(at, roots)]
            nxt = min(1.0, s + h)
            pred = roots.replace_flat([w + (nxt - s) * d for w, d in zip(roots.flat(), tangent)])
            # no gap may change by more than itself: guards against path jumping
            if any(abs(g - g0) > abs(g0) for (g, _), g0 in zip(_root_gaps(at, pred), gaps)):
                h /= 2
                continue
            try:
                roots, k = correct(pred, k, nxt, h, inner)
                s, h, tangent, failure = nxt, 2 * h, None, None
            except (NoConvergence, SingularJacobian, PoleCollision) as exc:
                h, failure = h / 2, exc
        # one refinement in the caller's field under the caller's options
        roots = BetheRoots(tuple(tuple(field(w) / (c * k) + b for w in color) for color in roots.roots))
        return solve_newton(inst, roots, opts, log=log, polish=True, context={"phase": "refine"})
    except PoleCollision as exc:
        raise PathCollision(f"tracked roots merged on the path: {exc}") from exc


def roots_to_solution(inst: QQInstance, roots: BetheRoots,
                      constants: Sequence | None = None) -> QQSolution:
    """Monic q+ from the root sets, then polynomial completion."""
    from .qqcore import complete_minus

    field = inst.field
    q_plus = [poly_from_roots(field, color) for color in roots.roots]
    return complete_minus(inst, q_plus, constants=constants)
