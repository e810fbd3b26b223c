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
        from fractions import Fraction

        return [field(Fraction(d)) for d in self.damping]


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
    cmat = inst.cartan
    w = roots.roots[i - 1][ell - 1]
    acc = inst.xi(i)
    for z, exps in inst.points:
        if exps[i - 1]:
            acc = acc + field(exps[i - 1]) / _collision_guard(field, w - z, f"w - z ({i},{ell})")
    extra = inst.extra[i - 1]
    if extra is not None and extra.degree() > 0:
        acc = acc + extra.deriv()(w) / _collision_guard(field, extra(w), f"cofactor ({i},{ell})")
    for j in range(1, inst.rank + 1):
        aji = cmat.a(j, i)
        if aji == 0:
            continue
        for s, v in enumerate(roots.roots[j - 1], start=1):
            if (j, s) == (i, ell):
                continue
            acc = acc - field(aji) / _collision_guard(field, w - v, f"w - w ({i},{ell})/({j},{s})")
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
    cmat = inst.cartan
    labels = [(i, s) for i in range(1, inst.rank + 1) for s in range(1, len(roots.roots[i - 1]) + 1)]
    n = len(labels)
    jac = [[field.zero] * n for _ in range(n)]
    for row, (i, ell) in enumerate(labels):
        w = roots.roots[i - 1][ell - 1]
        diag = field.zero
        for z, exps in inst.points:
            if exps[i - 1]:
                diag = diag - field(exps[i - 1]) / (w - z) ** 2
        extra = inst.extra[i - 1]
        if extra is not None and extra.degree() > 0:
            g = RationalFn.make(extra.deriv(), extra)
            diag = diag + g.deriv()(w)
        for col, (j, s) in enumerate(labels):
            if (j, s) == (i, ell):
                continue
            aji = cmat.a(j, i)
            if aji == 0:
                continue
            v = roots.roots[j - 1][s - 1]
            diag = diag + field(aji) / (w - v) ** 2
            jac[row][col] = -field(aji) / (w - v) ** 2
        jac[row][row] = diag
    return jac


def solve_newton(inst: QQInstance, init: BetheRoots, opts: SolveOptions | None = None,
                 log: list | None = None) -> BetheRoots:
    """Damped Newton iteration on the stacked Bethe residuals.

    Deterministic for a fixed (instance, init, options): the retry policy on
    a singular Jacobian perturbs all roots by seeded noise of magnitude
    10x tolerance, at most three times.
    """
    opts = opts or SolveOptions()
    field = inst.field
    tol = field(opts.tolerance) if opts.tolerance is not None else field.tau
    rng = random.Random(opts.seed)
    damps = opts.damping_values(field)

    def resid_vec(rts: BetheRoots):
        vals = []
        for i in range(1, inst.rank + 1):
            for ell in range(1, len(rts.roots[i - 1]) + 1):
                vals.append(bethe_residual(inst, rts, i, ell))
        return vals

    def max_abs(vals):
        return max((field.abs(v) for v in vals), default=field.abs(field.zero))

    current = init
    if current.total() == 0:
        return current
    for attempt in range(4):
        try:
            rts = current
            res = resid_vec(rts)
            worst = max_abs(res)
            for it in range(opts.max_iterations):
                if worst <= field.abs(tol):
                    if log is not None:
                        log.append({"step": it, "max_residual": float(worst), "damping": 1.0,
                                    "precision": field.precision, "converged": True})
                    return rts.canonical(field)
                jac = bethe_jacobian(inst, rts)
                a, pivots = _gauss_jordan(field, jac, [-v for v in res])
                if len(pivots) < len(res):
                    raise SingularJacobian(f"Jacobian of rank {len(pivots)} < {len(res)}")
                delta = [row[-1] / row[c] for row, c in zip(a, pivots)]
                flat = rts.flat()
                accepted = False
                for alpha in damps:
                    trial = rts.replace_flat([w + alpha * d for w, d in zip(flat, delta)])
                    try:
                        tres = resid_vec(trial)
                    except PoleCollision:
                        continue
                    tworst = max_abs(tres)
                    if tworst < worst or tworst <= field.abs(tol):
                        rts, res, worst = trial, tres, tworst
                        accepted = True
                        if log is not None:
                            log.append({"step": it, "max_residual": float(tworst),
                                        "damping": float(alpha), "precision": field.precision})
                        break
                if not accepted:
                    raise NoConvergence(f"no damping step reduced the residual (residual {worst})")
            if worst <= field.abs(tol):
                return rts.canonical(field)
            raise NoConvergence(f"residual {worst} after {opts.max_iterations} iterations")
        except SingularJacobian:
            if attempt == 3 or isinstance(field, ExactField):
                raise
            noise = field.abs(tol) * 10
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

    The twist is scaled geometrically from ``t_top`` down to 1 over
    ``opts.continuation`` steps, Newton-correcting each step from the
    previous roots; the starting configuration is the first-order
    deformation of the infinite-system roots.  The path is tracked on a
    shifted and rescaled copy of the instance in machine floats
    (``MachineField``), or in the caller's field when the marked points
    spread too wide for machine floats.  ``t_top = tau_root^(-1/2) / sigma``
    of the tracking field, where sigma = min(1, min|xi| * spacing) of the
    points, and each step is corrected to the tracking field's ``tau_root``
    relative to the twist at that scale.  One Newton refinement in the
    caller's field then brings the tracked roots to the caller's tolerance.
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
    # sigma = min(1, min|xi| * spacing) and its points at least 1 apart, so
    # from t_top = tau_root^(-1/2) / sigma every seed starts at least
    # tau_root^(1/2) from its source and at most tau_root^(1/2) times the
    # spacing.  Each step rescales the coordinates again (``correct``), so the
    # guards and pivot thresholds of the tracking field act relative to the
    # geometry.  The path is tracked in machine floats unless the points
    # spread too wide for a unit seed offset to be resolved to tau there.
    mags = [field.abs(x) for x in xis]
    zs = [z for z, _ in inst.points]
    dists = [field.abs(u - v) for k, u in enumerate(zs) for v in zs[k + 1:]]
    sigma = min(1, min(mags) * min(dists)) if dists else 1
    c = max(mags) / sigma
    b = sum(zs, field.zero) / len(zs)
    track = MachineField()
    if dists and c * max(dists) > track.tau_root ** 0.5 / track.tau:
        track = field
    target = QQInstance.make(inst.ctype, track, [(c * (z - b), e) for z, e in inst.points],
                             [x / c for x in inst.twist.zeta], inst.lead,
                             [None if e is None else Poly.make(track, e.coeffs) for e in inst.extra])
    part = InfinitePartition.make(track, [[c * (w - b) for w in ws] for ws in part.w_sets])
    steps = max(1, opts.continuation)
    ctx = track.ctx
    t_top = track.tau_root ** -0.5 / track(sigma).real
    # detour the scale through the complex plane (seeded), so the path avoids
    # the real discriminant locus where tracked roots would collide
    rng = random.Random(f"{opts.seed}-gamma")
    bump = ctx.mpf(rng.uniform(0.8, 2.4)) * (1 if rng.random() < 0.5 else -1)
    scales = []
    for m in range(steps):
        s = ctx.mpf(m) / max(1, steps - 1)
        scales.append(t_top ** (1 - s) * ctx.exp(ctx.mpc(0, 1) * bump * s * (1 - s)))
    inner = replace(opts, max_iterations=min(12, opts.max_iterations))
    lo = min(abs(x) for x in target.xis())
    budget = [64 * steps]

    def at_scale(t, k):
        """The tracked copy at twist scale t, in coordinates multiplied by k."""
        return replace(target, points=tuple((k * z, e) for z, e in target.points),
                       twist=Twist(track, tuple(z * t / k for z in target.twist.zeta)))

    def correct(roots, k, t, step_opts):
        # keep the closest pair that may not collide within [1/16, 16] by
        # rescaling to 1 apart, then correct to tau_root relative to the
        # smallest |xi| at this scale (at least tau_root^2, above the
        # rounding of unit-size terms)
        at = at_scale(t, k)
        gap = min(abs(g) for g, _ in _root_gaps(at, roots))
        if not 1 / 16 <= gap <= 16 and gap > 0:
            roots = BetheRoots(tuple(tuple(w / gap for w in color) for color in roots.roots))
            k = k / gap
            at = at_scale(t, k)
        tol = track.tau_root * max(track.tau_root, lo * abs(t) / k)
        return solve_newton(at, roots, replace(step_opts, tolerance=tol), log=log), k

    def advance(roots, k, t_from, t_to, depth):
        if budget[0] <= 0:
            raise NoConvergence("continuation budget exhausted")
        budget[0] -= 1
        try:
            return correct(roots, k, t_to, inner)
        except (NoConvergence, SingularJacobian, PoleCollision) as exc:
            if depth >= 40:
                if isinstance(exc, PoleCollision):
                    raise PathCollision(f"tracked roots merged on the path: {exc}") from exc
                raise
            t_mid = ctx.sqrt(t_from * t_to)
            mid, k = advance(roots, k, t_from, t_mid, depth + 1)
            return advance(mid, k, t_mid, t_to, depth + 1)

    top = at_scale(scales[0], 1)
    roots, k = correct(_seed_positions(top, part, top.xis()), 1, scales[0], opts)
    for m in range(1, steps):
        roots, k = advance(roots, k, scales[m - 1], scales[m], 0)
    # one refinement in the caller's field under the caller's options
    roots = BetheRoots(tuple(tuple(field(w) / (c * k) + b for w in color) for color in roots.roots))
    return solve_newton(inst, roots, opts, log=log)


def roots_to_solution(inst: QQInstance, roots: BetheRoots,
                      constants: Sequence | None = None) -> QQSolution:
    """Monic q+ from the root sets, then polynomial completion."""
    from .qqcore import complete_minus

    field = inst.field
    q_plus = [poly_from_roots(field, color) for color in roots.roots]
    return complete_minus(inst, q_plus, constants=constants)
