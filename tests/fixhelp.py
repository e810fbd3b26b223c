"""Shared fixture builders for the test suite.

The rational fixtures exploit closed-form Bethe roots for systems whose
singularity polynomials are (z, 1): the root chain w2 = w1 - 1/xi_2,
w1 = -1/(xi_1 - a_{21} xi_2) solves both colors exactly over the rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

import betheqq as bq


def a1_standard(field=None):
    """Lambda = z, zeta = 1/2 (xi = 1); Bethe root -1, completion q- = 1."""
    field = field or bq.ExactField()
    inst = bq.QQInstance.make(bq.CartanType("A", 1), field, [(0, (1,))], [Q(1, 2)])
    roots = bq.BetheRoots.make(field, [[-1]])
    sol = bq.roots_to_solution(inst, roots)
    return inst, roots, sol


def rank2_rational(family: str, field=None, zeta=(Q(3, 2), Q(5, 7))):
    """Rank-2 fixture with Lambda = (z, 1) and exact rational Bethe roots."""
    field = field or bq.ExactField()
    inst = bq.QQInstance.make(bq.CartanType(family, 2), field, [(0, (1, 0))], list(zeta))
    xi1, xi2 = inst.xis()
    a21 = inst.cartan.a(2, 1)
    w1 = -1 / (xi1 - a21 * xi2)
    w2 = w1 - 1 / xi2
    roots = bq.BetheRoots.make(field, [[w1], [w2]])
    sol = bq.roots_to_solution(inst, roots)
    return inst, roots, sol


def a2_rational(field=None, zeta=(Q(3, 2), Q(5, 7))):
    return rank2_rational("A", field, zeta)


def b2_rational(field=None, zeta=(Q(1, 3), Q(4, 5))):
    return rank2_rational("B", field, zeta)


def g2_rational(field=None, zeta=(Q(1, 2), Q(2, 7))):
    return rank2_rational("G", field, zeta)


def exact_solved_fixtures():
    """Exact (instance, roots, solution) triples across types A1, A2, B2, G2."""
    out = [a1_standard(), a2_rational(), b2_rational(), g2_rational()]
    out.append(a2_rational(zeta=(Q(-2, 5), Q(7, 3))))
    # A1 with two marked points and root at 0 (3w^2 - 5w = 0 branch)
    field = bq.ExactField()
    inst = bq.QQInstance.make(bq.CartanType("A", 1), field, [(1, (1,)), (2, (1,))], [Q(3, 4)])
    roots = bq.BetheRoots.make(field, [[0]])
    out.append((inst, roots, bq.roots_to_solution(inst, roots)))
    return out


def random_bijection_case(rng: random.Random, rank: int, field):
    """Random type-A instance with a validated infinite-system partition
    that draws every root from its own marked points (no cycle).

    Pairings are kept at magnitude >= 1 and points inside [-5, 5], so every
    Bethe root stays within O(1) of the marked points; a 1e-6 root
    perturbation then moves some residual well above 1e-8.
    """
    from betheqq.bethe import _partition_sources

    while True:
        npts = rng.randint(rank, rank + 2)
        pts, used = [], set()
        for _ in range(npts):
            while True:
                z = Q(rng.randint(-5, 5), rng.randint(1, 3))
                if z not in used:
                    used.add(z)
                    break
            color = rng.randint(1, rank)
            pts.append((z, tuple(1 if i == color else 0 for i in range(1, rank + 1))))
        zeta = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rank)]
        cmat = bq.cartan_matrix(bq.CartanType("A", rank))
        exact_twist = bq.Twist.make(bq.ExactField(), zeta)
        if any(abs(bq.pairing(i, exact_twist, cmat)) < 1 for i in range(1, rank + 1)):
            continue
        inst = bq.QQInstance.make(bq.CartanType("A", rank), field, pts, zeta)
        zsets = [[z for z, e in pts if e[j]] for j in range(rank)]
        wsets = [[] for _ in range(rank)]
        for j in range(rank):
            own = list(zsets[j])
            rng.shuffle(own)
            wsets[j] = own[: rng.randint(0, len(own))]
        for j in range(rank):
            for k in (j - 1, j + 1):
                if 0 <= k < rank:
                    for w in list(wsets[k]):
                        if rng.random() < 0.3 and w not in wsets[j]:
                            wsets[j].append(w)
        part = bq.InfinitePartition.make(field, [[field(w) for w in ws] for ws in wsets])
        try:
            anchors = _partition_sources(inst, part)[1]
            if all(a is not None for color in anchors for a in color):  # every root drawn from its own Z_j
                return inst, part
        except bq.BadPartition:
            pass


def random_valid_roots(rng: random.Random, field, rank: int = 2):
    """Random instance + root data satisfying the evaluation invariants only
    (not the Bethe equations); for oracle-equivalence checks."""
    while True:
        npts = rng.randint(1, 3)
        pts, used = [], set()
        for _ in range(npts):
            while True:
                z = Q(rng.randint(-6, 6), rng.randint(1, 3))
                if z not in used:
                    used.add(z)
                    break
            pts.append((z, tuple(rng.randint(0, 2) for _ in range(rank))))
        if all(all(e == 0 for e in exps) for _, exps in pts):
            continue
        zeta = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rank)]
        inst = bq.QQInstance.make(bq.CartanType("A", rank), field, pts, zeta)
        degs = [rng.randint(0, 2) for _ in range(rank)]
        vals: set = set()
        roots = []
        ok = True
        for j in range(rank):
            col = []
            for _ in range(degs[j]):
                for _try in range(40):
                    w = Q(rng.randint(-30, 30), rng.randint(1, 7))
                    if w not in vals and all(w != z for z, _ in pts):
                        vals.add(w)
                        col.append(w)
                        break
                else:
                    ok = False
            roots.append(col)
        if not ok:
            continue
        return inst, bq.BetheRoots.make(field, roots)
