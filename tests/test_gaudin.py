"""Gaudin Hamiltonians as an oracle for solved Bethe roots, independent of
the package: exact ``Fraction`` matrices on tensor products of C^n and its
dual, built here from the Lie algebra and compared with the energies the
roots predict.

Normalization (checked on A1 and A2 below, as in Feigin, Frenkel and
Toledano Laredo, Adv. Math. 223 (2010)).  Site k carries C^n, where
E_ab e_c = delta_bc e_a with highest weight epsilon_1 (exponents (1, 0, ...)),
or its dual, where E_ab e*_c = -delta_ac e*_b with highest weight -epsilon_n
(exponents (..., 0, 1)).  With the trace form of sl_n,

    Omega = sum_{a,b} E_ab (x) E_ba - (1/n) I (x) I,
    H_k   = sum_{j != k} Omega^(kj) / (z_k - z_j) + chi^(k),

and chi = Z^H = diag(zeta_1, zeta_2 - zeta_1, ..., -zeta_r), the instance's
twist, acting on site k by its representation.  The Bethe vector of roots w
that solve the package's equations has the H_k-eigenvalue

    E_k = lambda_k(chi) + sum_{j != k} (lambda_k, lambda_j) / (z_k - z_j)
          - sum_{i, s} e_{k,i} / (z_k - w^i_s),

where (eps_1, eps_1) = 1 - 1/n, (eps_1, -eps_n) = 1/n, and lambda_k(chi)
is chi_1 on C^n and -chi_n on the dual.  The opposite twist, chi = -Z^H,
fails the A2 check.
"""

from fractions import Fraction as Q
from itertools import combinations, product

import betheqq as bq

N = bq.NumericField(256)


def act(dual: bool, a: int, b: int, c: int):
    """E_ab on the basis vector c of C^n (or of its dual): (index, sign) or None."""
    if dual:
        return (b, -1) if a == c else None
    return (a, 1) if b == c else None


def sign(dual: bool) -> int:
    """The scalar by which the identity of gl_n acts (C^n: 1, dual: -1)."""
    return -1 if dual else 1


def gaudin_combination(n: int, sites, chi, coeffs, weight) -> list:
    """sum_k coeffs[k] H_k on the weight space ``weight`` (the multiplicity of
    each epsilon_a) of the sites ``(z_k, dual_k)``, as an exact matrix."""
    states = [s for s in product(range(n), repeat=len(sites))
              if [sum(sign(d) for c, (_, d) in zip(s, sites) if c == a) for a in range(n)] == weight]
    index = {s: k for k, s in enumerate(states)}
    m = [[Q(0)] * len(states) for _ in states]
    for col, s in enumerate(states):
        for k, (zk, dk) in enumerate(sites):
            m[col][col] += coeffs[k] * sign(dk) * chi[s[k]]
            for j, (zj, dj) in enumerate(sites):
                if j == k:
                    continue
                f = coeffs[k] / (zk - zj)
                m[col][col] -= f * Q(sign(dk) * sign(dj), n)
                for a, b in product(range(n), repeat=2):
                    x, y = act(dk, a, b, s[k]), act(dj, b, a, s[j])
                    if x and y:
                        t = list(s)
                        t[k], t[j] = x[0], y[0]
                        m[index[tuple(t)]][col] += f * x[1] * y[1]
    return m


def charpoly(a: list) -> list:
    """Coefficients of det(x - a), lowest degree first (Faddeev-LeVerrier)."""
    n = len(a)
    c = [Q(0)] * n + [Q(1)]
    mk = [[Q(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][l] * mk[l][j] for l in range(n)) + (c[n - k + 1] if i == j else 0) for j in range(n)]
              for i in range(n)]
        c[n - k] = -sum(a[i][l] * mk[l][i] for i in range(n) for l in range(n)) / k
    return c


def energy(n: int, points, sites, chi, roots, coeffs):
    """sum_k coeffs[k] E_k of the Bethe vector of ``roots`` (module docstring)."""
    total = N(0)
    for k, ((zk, exps), (_, dk)) in enumerate(zip(points, sites)):
        ek = (-chi[n - 1] if dk else chi[0]) + sum(
            (Q(dk == dj) - Q(sign(dk) * sign(dj), n)) / (zk - zj) for j, (zj, dj) in enumerate(sites) if j != k)
        total += coeffs[k] * (N(ek) - sum(e / (N(zk) - w) for e, color in zip(exps, roots.roots) for w in color))
    return total


def twist_diagonal(zeta) -> list:
    """Z^H in the defining representation."""
    return [a - b for a, b in zip(list(zeta) + [0], [0] + list(zeta))]


def test_a1_spectrum():
    # four spin-1/2 sites: the weight space of two lowered spins has
    # dimension 6, one Bethe vector per partition of two roots
    zs, zeta = [Q(-3, 2), Q(1, 3), Q(7, 5), Q(3)], Q(3, 4)
    points = [(z, (1,)) for z in zs]
    inst = bq.QQInstance.make(bq.CartanType("A", 1), N, points, [zeta])
    sites, chi, coeffs = [(z, False) for z in zs], twist_diagonal([zeta]), [Q(1), Q(2, 7), Q(-3, 5), Q(5, 11)]
    energies = []
    for ws in combinations(zs, 2):
        roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [ws]), bq.SolveOptions(seed=1))
        assert bq.verify_bethe(inst, roots).ok
        energies.append(energy(2, points, sites, chi, roots, coeffs))
    want = charpoly(gaudin_combination(2, sites, chi, coeffs, [2, 2]))
    got = bq.poly_from_roots(N, energies).coeffs
    assert len(want) == len(got) == 7
    assert max(abs(N(a) - b) for a, b in zip(want, got)) <= N.tau * max(abs(N(a)) for a in want)


def test_a2_energy_is_an_eigenvalue_on_c3_and_its_dual():
    # sites C^3, C^3, (C^3)*; one root of each color, drawn from the first
    # and the last site: weight 2 eps_1 - eps_3 - alpha_1 - alpha_2 = eps_1
    points = [(Q(-1), (1, 0)), (Q(2, 3), (1, 0)), (Q(5, 2), (0, 1))]
    zeta = [Q(3, 2), Q(5, 7)]
    inst = bq.QQInstance.make(bq.CartanType("A", 2), N, points, zeta)
    roots = bq.seed_and_continue(inst, bq.InfinitePartition.make(N, [[Q(-1)], [Q(5, 2)]]), bq.SolveOptions(seed=1))
    assert bq.verify_bethe(inst, roots).ok
    sites, coeffs = [(z, e == (0, 1)) for z, e in points], [Q(1), Q(-2, 9), Q(4, 7)]

    def defect(chi):
        """|p(E)| relative to sum |p_k| |E|^k, p the characteristic polynomial."""
        e = energy(3, points, sites, chi, roots, coeffs)
        p = charpoly(gaudin_combination(3, sites, chi, coeffs, [1, 0, 0]))
        return abs(bq.Poly.make(N, p)(e)) / sum(abs(N(c)) * abs(e) ** k for k, c in enumerate(p))

    chi = twist_diagonal(zeta)
    assert defect(chi) <= N.tau
    assert defect([-x for x in chi]) > N("1e-3")  # the opposite twist
