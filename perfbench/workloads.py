"""Seeded inputs, operations and output checks for the benchmark workloads.

A workload object is built from the imported ``betheqq`` package, a seed and
a scratch directory.  Building it is the input-generation part of set-up:
it draws a pool of instances from the seed (and, for ``diagonalize``,
writes the instance and solution files).  ``op(k)`` names the k-th
operation of an endless stream that cycles through the pool, and
``run(op)`` performs that operation and checks its output, returning an
:class:`Outcome`.

The library only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction as Q

#: -log10 of a residual that is exactly zero
EXACT_DIGITS = 1000.0
#: largest conjugation residual a diagonalization may leave
RESIDUAL_LIMIT = Decimal("1e-40")


@dataclass
class Outcome:
    ok: bool
    digits: float | None = None  # -log10 of the checked residual
    reason: str | None = None  # why the check failed
    info: dict = field(default_factory=dict)  # per-layer facts (newton steps, v shape, exit code)


def residual_digits(value) -> float:
    """-log10 |value|, with an exact zero mapped to EXACT_DIGITS."""
    if value == 0:
        return EXACT_DIGITS
    # mpf/mpc: log10 through the exponent so tiny values do not underflow a float
    ctx_abs = abs(value)
    man, exp = ctx_abs.man_exp
    return -(math.log10(man) + exp * math.log10(2))


def _type_a_pairings(zeta) -> list:
    r = len(zeta)
    return [2 * zeta[i] - (zeta[i - 1] if i > 0 else 0) - (zeta[i + 1] if i + 1 < r else 0)
            for i in range(r)]


def _nondyadic(rng: random.Random, hi: int) -> Q:
    """A nonzero rational p/q with q in {3, 5, 7} and p/q not an integer."""
    while True:
        x = Q(rng.choice((-1, 1)) * rng.randint(1, hi), rng.choice((3, 5, 7)))
        if x.denominator > 1:
            return x


# -- solve ----------------------------------------------------------------


#: one rotation of the solve stream: (rank, marked points per color, roots per
#: color).  Three 1-root, five 2-root, two 3-root and one 4-root operation.
#: Sorted by cost, the sixth of the eleven is the middle one of three A2
#: (1, 1) operations, so the median sits inside that cluster, and the tail
#: (about p85 over three passes of the pool) inside the 3-root one.  The cheapest
#: comes first.
SOLVE_SLOTS = (
    (1, (2,), (1,)),
    (2, (1, 1), (1, 1)),
    (3, (1, 1, 1), (1, 1, 1)),
    (2, (1, 1), (0, 1)),
    (2, (1, 1), (1, 1)),
    (3, (1, 2, 1), (1, 2, 1)),
    (3, (1, 1, 1), (1, 0, 1)),
    (2, (1, 1), (1, 1)),
    (3, (1, 1, 1), (0, 1, 0)),
    (2, (2, 1), (2, 1)),
    (1, (2,), (2,)),
)
SOLVE_POOL_ROTATIONS = 2
#: marked points and twist coordinates come from a fine grid: on a coarse one,
#: exact coincidences such as |z1 - z2| = 2/|xi| for two A1 roots are common,
#: and there the target q+ has a double root, so no distinct-root solution exists
_POINT_GRID = tuple(Q(a, 20) for a in range(-100, 101))


@dataclass(frozen=True)
class SolveOp:
    inst: object
    part: object
    roots_per_color: tuple
    solver_seed: int


class SolveWorkload:
    """Continuation solves of type A1-A3 Bethe equations at 256 bits.

    Every W_j is a subset of the color's own marked points, so the
    infinite-system partition is valid by construction; pairings are kept at
    magnitude >= 1.  One operation: infinite_solution, seed_and_continue,
    verify_bethe (residual < 1e-30), roots_to_solution, residuals_vanish.
    """

    name = "solve"
    rotation = len(SOLVE_SLOTS)
    warmup = (0,)

    def __init__(self, bq, seed: int, workdir: str):
        self.bq = bq
        self.field = bq.NumericField(256)
        self.threshold = self.field.ctx.mpf("1e-30")
        rng = random.Random(f"solve-{seed}")
        self.pool = [self._draw(rng, *SOLVE_SLOTS[k % len(SOLVE_SLOTS)])
                     for k in range(SOLVE_POOL_ROTATIONS * len(SOLVE_SLOTS))]

    def _draw(self, rng, rank, points, roots) -> SolveOp:
        bq, fld = self.bq, self.field
        while True:
            zeta = [Q(rng.randint(-120, 120), 20) for _ in range(rank)]
            if all(abs(x) >= 1 for x in _type_a_pairings(zeta)):
                break
        zs = rng.sample(_POINT_GRID, sum(points))
        pts, wsets, pos = [], [], 0
        for color in range(rank):
            own = zs[pos:pos + points[color]]
            pos += points[color]
            exps = tuple(1 if c == color else 0 for c in range(rank))
            pts.extend((z, exps) for z in own)
            wsets.append(own[:roots[color]])
        inst = bq.QQInstance.make(bq.CartanType("A", rank), fld, pts, zeta)
        part = bq.InfinitePartition.make(fld, wsets)
        return SolveOp(inst, part, tuple(roots), rng.randrange(1 << 16))

    def op(self, k: int) -> SolveOp:
        return self.pool[k % len(self.pool)]

    def run(self, op: SolveOp) -> Outcome:
        bq = self.bq
        bq.infinite_solution(op.inst, op.part)
        log: list = []
        roots = bq.seed_and_continue(op.inst, op.part, bq.SolveOptions(seed=op.solver_seed), log=log)
        steps = sum(1 for rec in log if not rec.get("converged"))
        info = {"newton_steps": steps}
        if roots.degrees() != op.roots_per_color:
            return Outcome(False, reason=f"root counts {roots.degrees()} != {op.roots_per_color}", info=info)
        rep = bq.verify_bethe(op.inst, roots)
        digits = residual_digits(rep.max_residual)
        if not rep.max_residual < self.threshold:
            return Outcome(False, digits, f"Bethe residual {rep.max_residual} >= 1e-30", info)
        sol = bq.roots_to_solution(op.inst, roots)
        if not bq.residuals_vanish(op.inst, sol):
            return Outcome(False, digits, "qq residuals do not vanish", info)
        return Outcome(True, digits, info=info)


# -- diagonalize -----------------------------------------------------------


#: word per position in the stream: three (1,2,1) to one (2,1,2), so the
#: median sits inside the costlier (1,2,1) cluster
DIAG_WORDS = ((1, 2, 1), (2, 1, 2), (1, 2, 1), (1, 2, 1))
DIAG_POOL = 24


@dataclass(frozen=True)
class DiagOp:
    argv: tuple


class DiagonalizeWorkload:
    """Numeric A2 type-A diagonalization along w0 at 256 bits, through the CLI.

    One marked point z0 with exponents (1, 0) and closed-form degree-1 roots
    w1 = z0 - 1/(xi1 + xi2), w2 = w1 - 1/xi2 under seeded non-dyadic twists
    (dyadic or integer data lets numeric coefficients cancel exactly and
    makes some operations several times cheaper).  The positive-root
    pairings xi1, xi2 and xi1 + xi2 have magnitude at least 2: as one nears
    1, the residual approaches the 256-bit floor, and the minimum digits of a
    run would hinge on whether such an instance is drawn.  Solutions are
    completed and written as numeric instance and solution files during
    set-up.  One operation: ``betheqq.cli.main`` in-process, ``diagonalize``
    along the word, with stdout captured.  It passes when main returns 0,
    every check in its report passes and the conjugation residual is below
    1e-40.  A chain that is not fully composable raises ``ChainBroken``
    inside ``diagonalize_type_a``, and main then returns nonzero.
    """

    name = "diagonalize"
    rotation = len(DIAG_WORDS)
    warmup = (1,)

    def __init__(self, bq, seed: int, workdir: str):
        import betheqq.cli
        import betheqq.fileio

        self.bq = bq
        self.cli = betheqq.cli
        self.fileio = betheqq.fileio
        self.field = bq.NumericField(256)
        self.words = [",".join(str(x) for x in w) for w in DIAG_WORDS]
        rng = random.Random(f"diagonalize-{seed}")
        os.makedirs(workdir, exist_ok=True)
        self.pool = [self._write(rng, os.path.join(workdir, f"A2-{k}")) for k in range(DIAG_POOL)]

    def _write(self, rng, base):
        bq, fld = self.bq, self.field
        while True:
            zeta = [_nondyadic(rng, 12), _nondyadic(rng, 12)]
            z0 = _nondyadic(rng, 9)
            xi1, xi2 = _type_a_pairings(zeta)
            if min(abs(xi1), abs(xi2), abs(xi1 + xi2)) < 2:
                continue  # near 1 the residual drops toward the 256-bit floor
            w1 = z0 - 1 / (xi1 + xi2)
            w2 = w1 - 1 / xi2
            if w2 != z0:
                break
        inst = bq.QQInstance.make(bq.CartanType("A", 2), fld, [(z0, (1, 0))], zeta)
        sol = bq.roots_to_solution(inst, bq.BetheRoots.make(fld, [[w1], [w2]]))
        paths = (base + ".instance.json", base + ".solution.json")
        docs = (self.fileio.instance_to_doc(inst), self.fileio.solution_to_doc(fld, sol))
        for path, doc in zip(paths, docs):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return paths

    def op(self, k: int) -> DiagOp:
        inst_path, sol_path = self.pool[k % len(self.pool)]
        return DiagOp(("diagonalize", inst_path, sol_path, "--word", self.words[k % len(self.words)]))

    def run(self, op: DiagOp) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(op.argv))
        info = {"exit_code": code}
        if not out.getvalue().strip():  # no report: an input or chain error
            return Outcome(False, reason=f"diagonalize exited {code}: {err.getvalue().strip()}", info=info)
        report = json.loads(out.getvalue())
        checks = {c["name"]: c for c in report["checks"]}
        entries = report["artifacts"]["matrix"]["entries"]
        n = len(entries)
        lower = [not entries[i][j]["num"] for i in range(n) for j in range(i)]
        info["v_max_degree"] = max(max(len(e["num"]), len(e["den"])) - 1
                                   for row in entries for e in row if e["num"])
        info["v_lower_zero_share"] = sum(lower) / len(lower)
        residual = Decimal(checks["conjugation_identity"]["residual"])
        digits = EXACT_DIGITS if residual == 0 else float(-residual.log10())
        if code != 0 or report["pass"] is not True or any(c["pass"] is not True for c in checks.values()):
            failed = [name for name, c in checks.items() if c["pass"] is not True]
            return Outcome(False, digits, f"diagonalize exited {code}, checks not passing {failed}", info)
        if not residual < RESIDUAL_LIMIT:
            return Outcome(False, digits, f"conjugation residual {residual} >= 1e-40", info)
        return Outcome(True, digits, info=info)


WORKLOADS = {w.name: w for w in (SolveWorkload, DiagonalizeWorkload)}
