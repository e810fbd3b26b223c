"""Static root-system data and twist arithmetic for the simple Lie types A-G.

Conventions (fixed once, used everywhere in this package):

  * Nodes carry Bourbaki labels 1..r.  All color and reflection indices in
    the public API are 1-based.
  * Cartan matrix entries are a[i][j] = <alpha_j, alphacheck_i>, so that the
    pairing of a simple root with a coweight vector zeta reads
    xi_i = sum_j a[j][i] * zeta_j.
  * For B_n the short simple root is node n; for G_2 it is node 2
    (matrix [[2,-1],[-3,2]]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvalidCartanType, UnsupportedType
from .scalars import Field

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_N_POSITIVE = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        fam = self.family.upper() if isinstance(self.family, str) else None
        if fam not in _RANK_RANGE:
            raise InvalidCartanType(f"unknown family {self.family!r}")
        object.__setattr__(self, "family", fam)
        lo, hi = _RANK_RANGE[fam]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidCartanType(f"{fam}{self.rank}: rank out of range for family {fam}")

    @cached_property
    def cartan(self) -> "CartanMatrix":
        """The Cartan matrix, built and validated once per type object."""
        return cartan_matrix(self)

    @property
    def n_positive_roots(self) -> int:
        return _N_POSITIVE[self.family](self.rank)

    @property
    def is_simply_laced(self) -> bool:
        return self.family in ("A", "D", "E")

    @property
    def short_simple_root(self) -> int:
        """The unique short simple root (B_n and G_2 only)."""
        if self.family == "B":
            return self.rank
        if self.family == "G":
            return 2
        raise UnsupportedType(f"{self} has no unique short simple root")

    def folded(self) -> "CartanType":
        """The simply-laced type with the multiple bond replaced by a simple one."""
        if self.family == "B":
            return CartanType("A", self.rank)
        if self.family == "G":
            return CartanType("A", 2)
        raise UnsupportedType(f"folding is defined for B_n and G_2 only, not {self}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CartanMatrix:
    """Integer matrix with a[i][i] = 2 and a[i][j] <= 0 off the diagonal."""

    entries: tuple  # tuple of tuples, 0-based storage

    def __post_init__(self):
        r = len(self.entries)
        for i in range(r):
            if self.entries[i][i] != 2:
                raise InvalidCartanType("diagonal Cartan entries must equal 2")
            for j in range(r):
                if i != j and self.entries[i][j] > 0:
                    raise InvalidCartanType("off-diagonal Cartan entries must be <= 0")
                if i != j and (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                    raise InvalidCartanType("zero pattern must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def a(self, i: int, j: int) -> int:
        """Entry a_{ij} with 1-based Bourbaki indices."""
        return self.entries[i - 1][j - 1]

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.a(i, j) != 0


def cartan_matrix(ctype: CartanType) -> CartanMatrix:
    """Standard Cartan matrix in the Bourbaki labeling."""
    n = ctype.rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2

    def bond(i, j, aij=-1, aji=-1):
        m[i - 1][j - 1] = aij
        m[j - 1][i - 1] = aji

    fam = ctype.family
    if fam in ("A", "B", "C"):
        for i in range(1, n):
            bond(i, i + 1)
        if fam == "B" and n >= 2:
            # short root n: a_{n,n-1} = -2
            bond(n - 1, n, aij=-1, aji=-2)
        if fam == "C" and n >= 2:
            bond(n - 1, n, aij=-2, aji=-1)
    elif fam == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif fam == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a_, b_ in zip(chain, chain[1:]):
            bond(a_, b_)
        bond(2, 4)
    elif fam == "F":
        bond(1, 2)
        bond(2, 3, aij=-1, aji=-2)  # short roots 3, 4
        bond(3, 4)
    elif fam == "G":
        bond(1, 2, aij=-1, aji=-3)  # short root 2
    return CartanMatrix(tuple(tuple(row) for row in m))


@dataclass(frozen=True)
class Twist:
    """Semisimple twist Z^H = sum_i zeta_i alphacheck_i, stored in coroot coordinates."""

    field: Field
    zeta: tuple

    @staticmethod
    def make(field: Field, zeta: Sequence) -> "Twist":
        return Twist(field, tuple(field(z) for z in zeta))

    @property
    def rank(self) -> int:
        return len(self.zeta)

    def is_zero(self) -> bool:
        return all(z == 0 for z in self.zeta)


def pairing(i: int, twist: Twist, cartan: CartanMatrix):
    """xi_i = <alpha_i, Z^H> = sum_j a_{ji} zeta_j."""
    if not 1 <= i <= twist.rank:
        raise IndexError(f"color index {i} out of range 1..{twist.rank}")
    acc = twist.field.zero
    for j in range(1, twist.rank + 1):
        aji = cartan.a(j, i)
        if aji:
            acc = acc + twist.field(aji) * twist.zeta[j - 1]
    return acc


def pairings(twist: Twist, cartan: CartanMatrix) -> tuple:
    return tuple(pairing(i, twist, cartan) for i in range(1, twist.rank + 1))


def reflect_twist(i: int, twist: Twist, cartan: CartanMatrix) -> Twist:
    """s_i(Z^H) = Z^H - <alpha_i, Z^H> alphacheck_i."""
    xi = pairing(i, twist, cartan)
    zeta = list(twist.zeta)
    zeta[i - 1] = zeta[i - 1] - xi
    return Twist(twist.field, tuple(zeta))


def twist_from_pairings(field: Field, cartan: CartanMatrix, xi: Sequence) -> Twist:
    """Invert xi_i = sum_j a_{ji} zeta_j for the coroot coordinates zeta."""
    from .polyalg import solve_linear_system

    r = cartan.rank
    rows = [[cartan.a(j, i) for j in range(1, r + 1)] for i in range(1, r + 1)]
    sol, defect = solve_linear_system(field, rows, [field(x) for x in xi])
    if sol is None or not field.is_zero(defect, scale=max((field.abs(field(x)) for x in xi), default=None)):
        raise ValueError("Cartan pairing matrix is singular (cannot happen for valid types)")
    return Twist(field, tuple(sol))


@dataclass(frozen=True)
class WeylWord:
    """Sequence of simple-reflection indices, 1-based."""

    letters: tuple

    @staticmethod
    def make(letters: Sequence[int], rank: int | None = None) -> "WeylWord":
        ls = tuple(int(x) for x in letters)
        if any(x < 1 for x in ls) or (rank is not None and any(x > rank for x in ls)):
            raise ValueError(f"word letters must lie in 1..{rank}: {ls}")
        return WeylWord(ls)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def _reflect_root_coords(i: int, v: list[int], cartan: CartanMatrix) -> list[int]:
    # s_i(alpha_j) = alpha_j - a_{ij} alpha_i, acting on simple-root coordinates
    pair = sum(cartan.a(i, j) * v[j - 1] for j in range(1, cartan.rank + 1))
    out = list(v)
    out[i - 1] -= pair
    return out


def is_reduced(word: WeylWord, cartan: CartanMatrix) -> bool:
    """Descent test: the word is reduced iff no prefix sends its next letter's
    simple root to a negative root."""
    r = cartan.rank
    for m, letter in enumerate(word.letters):
        v = [0] * r
        v[letter - 1] = 1
        for p in range(m - 1, -1, -1):
            v = _reflect_root_coords(word.letters[p], v, cartan)
        if all(c <= 0 for c in v):
            return False
    return True


def positive_roots(cartan: CartanMatrix) -> list[tuple]:
    """All positive roots in simple-root coordinates (orbit closure)."""
    r = cartan.rank
    seen = set()
    frontier = []
    for i in range(r):
        v = tuple(1 if j == i else 0 for j in range(r))
        seen.add(v)
        frontier.append(v)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, r + 1):
                w = tuple(_reflect_root_coords(i, list(v), cartan))
                if all(c >= 0 for c in w) and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def w0_reduced_word(ctype: CartanType) -> WeylWord:
    """A fixed canonical reduced word for the longest Weyl element.

    Built by walking the weight -rho up to rho, always reflecting at the
    lowest-index negative coordinate.  The recorded sequence is a reduced
    word for w0 (its reverse is one as well, and w0 is an involution).
    """
    cmat = cartan_matrix(ctype)
    r = ctype.rank
    mu = [-1] * r  # coordinates in the fundamental-weight basis
    word: list[int] = []
    while True:
        neg = next((i for i in range(r) if mu[i] < 0), None)
        if neg is None:
            break
        mi = mu[neg]
        # s_i(mu) = mu - <mu, alphacheck_i> alpha_i, and alpha_i = sum_j a_{ji} omega_j
        for j in range(r):
            mu[j] -= mi * cmat.a(j + 1, neg + 1)
        word.append(neg + 1)
    out = WeylWord.make(word, rank=r)
    assert len(out) == ctype.n_positive_roots
    return out
