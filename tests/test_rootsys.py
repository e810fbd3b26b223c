"""Cartan data, twist arithmetic, Weyl words."""

import random
from fractions import Fraction as Q

import pytest

import betheqq as bq
from betheqq.rootsys import _reflect_root_coords
from fixhelp import a2_rational

F = bq.ExactField()

CATALOG = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
           ("C", 2), ("C", 3), ("D", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8),
           ("F", 4), ("G", 2)]


class TestCartanMatrix:
    def test_examples(self):
        assert bq.cartan_matrix(bq.CartanType("A", 1)).entries == ((2,),)
        assert bq.cartan_matrix(bq.CartanType("A", 2)).entries == ((2, -1), (-1, 2))
        assert bq.cartan_matrix(bq.CartanType("B", 2)).entries == ((2, -1), (-2, 2))

    def test_cached_per_type(self):
        ctype = bq.CartanType("B", 3)
        assert ctype.cartan is ctype.cartan
        assert ctype.cartan.entries == bq.cartan_matrix(ctype).entries
        inst, _, _ = a2_rational()
        assert inst.cartan is inst.ctype.cartan

    @pytest.mark.parametrize("fam,rank", CATALOG)
    def test_invariants(self, fam, rank):
        cm = bq.cartan_matrix(bq.CartanType(fam, rank))
        for i in range(1, rank + 1):
            assert cm.a(i, i) == 2
            for j in range(1, rank + 1):
                if i != j:
                    assert cm.a(i, j) <= 0
                    assert (cm.a(i, j) == 0) == (cm.a(j, i) == 0)

    def test_invalid_types(self):
        with pytest.raises(bq.InvalidCartanType):
            bq.CartanType("E", 5)
        with pytest.raises(bq.InvalidCartanType):
            bq.CartanType("G", 3)
        with pytest.raises(bq.InvalidCartanType):
            bq.CartanType("X", 2)

    def test_determinants_positive(self):
        # finite type: all leading principal minors positive
        for fam, rank in CATALOG:
            m = [list(r) for r in bq.cartan_matrix(bq.CartanType(fam, rank)).entries]
            for k in range(1, rank + 1):
                sub = [[Q(m[i][j]) for j in range(k)] for i in range(k)]
                det = _det(sub)
                assert det > 0, (fam, rank, k)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Q(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestTwist:
    def test_pairing_examples(self):
        a1 = bq.cartan_matrix(bq.CartanType("A", 1))
        z = bq.Twist.make(F, [Q(1, 2)])
        assert bq.pairing(1, z, a1) == 1
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        z2 = bq.Twist.make(F, [1, 0])
        assert bq.pairing(1, z2, a2) == 2
        assert bq.pairing(2, z2, a2) == -1
        zero = bq.Twist.make(F, [0, 0])
        assert all(bq.pairing(i, zero, a2) == 0 for i in (1, 2))

    def test_reflect_examples(self):
        a1 = bq.cartan_matrix(bq.CartanType("A", 1))
        assert bq.reflect_twist(1, bq.Twist.make(F, [Q(1, 2)]), a1).zeta == (Q(-1, 2),)
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        assert bq.reflect_twist(1, bq.Twist.make(F, [1, 0]), a2).zeta == (Q(-1), Q(0))

    @pytest.mark.parametrize("fam,rank", CATALOG)
    def test_reflection_involution_and_sign(self, fam, rank):
        rng = random.Random(hash((fam, rank)) & 0xFFFF)
        cm = bq.cartan_matrix(bq.CartanType(fam, rank))
        for _ in range(5):
            z = bq.Twist.make(F, [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rank)])
            for i in range(1, rank + 1):
                ref = bq.reflect_twist(i, z, cm)
                assert bq.reflect_twist(i, ref, cm).zeta == z.zeta
                assert bq.pairing(i, ref, cm) == -bq.pairing(i, z, cm)

    def test_fixed_when_pairing_zero(self):
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        z = bq.Twist.make(F, [2, 1])  # xi_2 = 0
        assert bq.pairing(2, z, a2) == 0
        assert bq.reflect_twist(2, z, a2).zeta == z.zeta

    def test_twist_from_pairings_roundtrip(self):
        rng = random.Random(5)
        for fam, rank in CATALOG[:8]:
            cm = bq.cartan_matrix(bq.CartanType(fam, rank))
            z = bq.Twist.make(F, [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rank)])
            xi = bq.pairings(z, cm)
            back = bq.twist_from_pairings(F, cm, xi)
            assert back.zeta == z.zeta


class TestWeylWords:
    def test_w0_examples(self):
        assert bq.w0_reduced_word(bq.CartanType("A", 1)).letters == (1,)
        assert bq.w0_reduced_word(bq.CartanType("A", 2)).letters == (1, 2, 1)
        assert bq.w0_reduced_word(bq.CartanType("B", 2)).letters == (1, 2, 1, 2)

    @pytest.mark.parametrize("fam,rank", CATALOG)
    def test_w0_length_and_reduced(self, fam, rank):
        ctype = bq.CartanType(fam, rank)
        word = bq.w0_reduced_word(ctype)
        cm = bq.cartan_matrix(ctype)
        assert len(word) == ctype.n_positive_roots
        assert bq.is_reduced(word, cm)

    @pytest.mark.parametrize("fam,rank", [("A", 2), ("A", 3), ("B", 2), ("D", 4), ("G", 2)])
    def test_w0_sends_simples_negative(self, fam, rank):
        ctype = bq.CartanType(fam, rank)
        cm = bq.cartan_matrix(ctype)
        word = bq.w0_reduced_word(ctype)
        for i in range(1, rank + 1):
            v = [0] * rank
            v[i - 1] = 1
            for letter in reversed(word.letters):
                v = _reflect_root_coords(letter, v, cm)
            assert all(c <= 0 for c in v) and any(c < 0 for c in v)

    def test_non_reduced_detected(self):
        a2 = bq.cartan_matrix(bq.CartanType("A", 2))
        assert not bq.is_reduced(bq.WeylWord.make([1, 1], 2), a2)
        assert bq.is_reduced(bq.WeylWord.make([2, 1, 2], 2), a2)
        assert not bq.is_reduced(bq.WeylWord.make([1, 2, 1, 2], 2), a2)

    def test_positive_root_counts(self):
        for fam, rank in CATALOG:
            ctype = bq.CartanType(fam, rank)
            roots = bq.positive_roots(bq.cartan_matrix(ctype))
            assert len(roots) == ctype.n_positive_roots

    def test_bad_letters(self):
        with pytest.raises(ValueError):
            bq.WeylWord.make([0, 1], 2)
        with pytest.raises(ValueError):
            bq.WeylWord.make([3], 2)
