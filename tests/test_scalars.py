"""Magnitude comparisons of the scalar backends, and the tolerance that
decides structure."""

import random
from fractions import Fraction as Q

import pytest

import betheqq as bq
from betheqq import fileio
from fixhelp import exact_solved_fixtures


def magnitude_cases(field):
    """Zeros, pure real and pure imaginary values, components 400 binades
    apart, equal magnitudes, and near ties one unit in the last place apart."""
    ctx = field.ctx
    two = ctx.mpf(2)
    big, small = two ** 400, two ** -400
    fixed = [field.zero, ctx.mpf(0), ctx.mpf(3), ctx.mpc(0, -3), ctx.mpc(3, 4), ctx.mpc(-4, 3),
             ctx.mpc(0, 5), ctx.mpf(-5), ctx.mpc(1, small), ctx.mpc(small, 1), ctx.mpc(big, 1),
             ctx.mpc(1, big), ctx.mpc(small, small), ctx.mpc(big, -big), big * ctx.mpc(3, 4),
             ctx.mpc(0, -5 * big), small * ctx.mpc(0, 5), small * ctx.mpf(5)]
    rng = random.Random(field.precision)
    drawn = []
    for _ in range(60):
        re = ctx.ldexp(ctx.mpf(rng.random()), rng.randint(-400, 400))
        im = ctx.ldexp(ctx.mpf(rng.random()), rng.randint(-400, 400)) if rng.random() < 0.8 else 0
        z = ctx.mpc(re, im)
        drawn += [z, z * (1 + ctx.eps), ctx.mpc(z.imag, z.real), ctx.mpc(-z.real, z.imag)]
    return fixed, drawn


def exact(x) -> Q:
    man, exp = x.man_exp
    return Q(man) * Q(2) ** exp if man else Q(0)


@pytest.mark.parametrize("prec", [53, 256, 512])
def test_max_abs_is_max_of_abs(prec):
    field = bq.NumericField(prec)
    fixed, drawn = magnitude_cases(field)
    rng = random.Random(prec)
    groups = [fixed, drawn, [field.zero] * 3, []]
    groups += [rng.sample(fixed + drawn, 5) for _ in range(200)]
    for values in groups:
        mags = [abs(v) for v in values]
        expected = max(mags, default=field.abs(field.zero))
        assert field.max_abs(values) == expected
        idx = field.largest(values)
        if expected == 0:
            assert idx is None
        else:
            assert idx == next(i for i, (v, m) in enumerate(zip(values, mags)) if v != 0 and m == expected)
    # within decides |v| <= bound exactly, where the rounded abs(v) may tie
    for v in fixed + drawn:
        z = field.ctx.mpc(v)
        for bound in (abs(v), abs(v) * (1 - field.ctx.eps), abs(v) * (1 + field.ctx.eps), field.tau_root):
            assert field.within(v, bound) == (exact(z.real) ** 2 + exact(z.imag) ** 2 <= exact(bound) ** 2)


def square_rule(field, values):
    """The rule exponent-first ``largest`` replaced, kept as the reference:
    the first nonzero value of largest exact squared magnitude; a list with
    an entry that is not a finite scalar compares ``abs`` in order."""
    ctx = field.ctx
    if not all(ctx.isfinite(v) for v in values):
        return bq.scalars._Magnitudes.largest(field, values)
    squares = [exact(ctx.mpc(v).real) ** 2 + exact(ctx.mpc(v).imag) ** 2 for v in values]
    top = max(squares, default=0)
    return squares.index(top) if top else None


@pytest.mark.parametrize("prec", [24, 53, 256])
def test_largest_by_exponent_is_the_square_rule(prec):
    field = bq.NumericField(prec)
    ctx, rng = field.ctx, random.Random(prec)
    below = 1 - ctx.ldexp(1, -prec)  # 2^k (1 - 2^-p), the float just below 2^k
    edge = []
    for k in (-3, 0, 1, 2, 40):
        a, b = ctx.ldexp(1, k), ctx.ldexp(below, k)
        half = ctx.ldexp(ctx.sqrt(ctx.mpf(1) / 2), k)  # |mpc(half, half)| is 2^k up to rounding
        edge += [a, -b, b, ctx.mpc(0, a), ctx.mpc(b, 0), ctx.mpc(half, half), ctx.mpc(-half, half * below),
                 ctx.ldexp(a, -1), ctx.ldexp(a, 1), ctx.ldexp(below, k + 1), ctx.mpc(a, ctx.ldexp(a, -prec)),
                 ctx.mpc(ctx.ldexp(b, -1), ctx.ldexp(b, -1)), field.zero, ctx.mpc(0)]
    fixed, drawn = magnitude_cases(field)
    groups = [[field.zero] * 3, [], [ctx.mpc(0), field.zero, ctx.mpf(3)]]
    groups += [rng.sample(edge, rng.randint(1, 6)) for _ in range(3000)]
    groups += [rng.sample(fixed + drawn + edge, 5) for _ in range(500)]
    for values in groups:
        assert field.largest(values) == square_rule(field, values), values


def test_largest_ties_and_non_finite():
    field = bq.NumericField(256)
    ctx = field.ctx
    five = [ctx.mpf(5), ctx.mpc(3, 4), ctx.mpc(0, -5), ctx.mpc(-4, 3), ctx.mpf(-5)]
    for shift in range(5):  # equal magnitudes, mpf against mpc: the first index
        assert field.largest([field.zero] + five[shift:] + five[:shift]) == 1
    assert field.largest([ctx.mpf(3), ctx.mpc(3, 4), ctx.mpf(5)]) == 1
    assert field.largest([field.zero, ctx.mpc(0)]) is None and field.largest([]) is None
    assert field.largest([ctx.mpf(0), ctx.ldexp(1, -900)]) == 1
    one, two, inf, nan = ctx.mpf(1), ctx.mpf(2), ctx.inf, ctx.nan
    for values, idx in [([one, inf, two], 1), ([one, ctx.mpc(0, -inf)], 1), ([one, nan, two], 2),
                        ([nan, one], 0), ([one, ctx.mpc(nan, 0)], 0)]:
        assert field.largest(values) == idx == square_rule(field, values), values
    assert field.within(ctx.mpf(1), inf) and not field.within(inf, ctx.mpf(1))


def test_machine_within_compares_abs():
    # floats compare the rounded abs, as largest does
    machine = bq.scalars.MachineField()
    rng = random.Random(3)
    for _ in range(500):
        x = complex(rng.uniform(-1, 1), rng.choice([0.0, rng.uniform(-1, 1)])) * 2.0 ** rng.randint(-3, 3)
        bound = rng.choice([abs(x), abs(x) * (1 + 2 ** -52), abs(x) * (1 - 2 ** -52), rng.random()])
        assert machine.within(x, bound) == (machine.largest([bound, x]) != 1) == (abs(x) <= bound)
    assert machine.within(0j, 0.0) and not machine.within(1e-300, 0.0) and machine.within(float("nan"), 1.0)


def test_other_backends_compare_abs():
    exact, machine = bq.ExactField(), bq.scalars.MachineField()
    assert exact.max_abs([Q(-3, 2), Q(1), Q(0)]) == Q(3, 2) and exact.max_abs([]) == 0
    assert exact.largest([Q(0), Q(-2), Q(2)]) == 1 and exact.within(Q(-1, 2), Q(1, 2))
    assert machine.max_abs([3j, -4.0, 0j]) == 4.0 and machine.largest([0j, 0.0]) is None
    assert machine.within(1e-300j, 1e-300) and not machine.within(2.0, 1.5)


def test_zero_is_relative_to_scale():
    # tau = 2^-160 at 256 bits: the bound is tau |scale| on either side of 1
    field = bq.NumericField(256)
    two = field.ctx.mpf(2)
    assert field.is_zero(two ** -161) and not field.is_zero(two ** -159)
    assert field.is_zero(two ** -361, scale=two ** -200) and not field.is_zero(two ** -300, scale=two ** -200)
    assert field.is_zero(two ** 39, scale=two ** 200) and not field.is_zero(two ** 41, scale=two ** 200)


def structural_outputs(inst, roots, sol, tau):
    """Numeric counterparts at 256 bits, at ``tau`` (None: the default), of
    the exact fixture's completed q-, its chain along w0 (q+, q-, mu and the
    generic flags of each step) and, on type A, v of its diagonalization:
    the flags, and each coefficient as its type name and mpf or (re, im) tuple."""
    doc = {**fileio.instance_to_doc(inst), "backend": "numeric", "precision_bits": 256}
    num = fileio.instance_from_doc({**doc, "tolerances": {"tau": tau}} if tau else doc)
    sol = fileio.solution_from_doc(num.field, fileio.solution_to_doc(inst.field, sol))
    word = bq.w0_reduced_word(inst.ctype)
    polys = list(bq.roots_to_solution(num, bq.BetheRoots.make(num.field, roots.roots)).q_minus)
    trace = bq.chain(num, sol, word)
    for step in trace.steps:
        polys += [*step.solution.q_plus, *step.solution.q_minus, step.mu.num, step.mu.den]
    if inst.ctype.family == "A":
        polys += [p for row in bq.diagonalize_type_a(num, sol, word).v.entries for e in row for p in (e.num, e.den)]
    coeffs = [repr((type(c).__name__, getattr(c, "_mpc_", None) or c._mpf_)) for p in polys for c in p.coeffs]
    return [step.generic for step in trace.steps], coeffs


@pytest.mark.parametrize("tau", ["1e-3", "0.5"])
def test_structure_ignores_tau(tau):
    # pivots, the Bruhat step's zero tests and the fallen degree of a
    # xi_i = 0 completion read the precision's tolerance, so a loose tau
    # changes no bit of them (before, it refused some of these true
    # solutions); the last case, xi = 0 and Lambda = z - 10, completes
    # q- = z^2/2 - 10 z, whose leading coefficient is 1/20 of its norm
    xi_zero = bq.QQInstance.make(bq.CartanType("A", 1), bq.ExactField(), [(10, (1,))], [0])
    no_roots = bq.BetheRoots.make(xi_zero.field, [[]])
    for inst, roots, sol in exact_solved_fixtures() + [(xi_zero, no_roots, bq.roots_to_solution(xi_zero, no_roots))]:
        assert structural_outputs(inst, roots, sol, tau) == structural_outputs(inst, roots, sol, None)


@pytest.mark.parametrize("tols", [{"tau": 0}, {"tau": "-1"}, {"tau_root": "-1e-10"}, {"tau_root": "nan"},
                                  {"tau": "inf"}, {"tau": "1e400"}, {"tau": 10}, {"tau": 1}, {"tau": True},
                                  {"tau": "nan"}, {"tau_root": "inf"}])
def test_tolerances_must_be_positive(tols):
    # 0 < tau < 1 and a finite tau_root > 0: at tau >= 1 every polynomial is
    # zero against its own norm
    with pytest.raises(ValueError, match="must be positive"):
        bq.NumericField(256, **tols)


@pytest.mark.parametrize("field", [bq.ExactField(), bq.NumericField(64)], ids=["exact", "numeric"])
def test_booleans_are_not_numbers(field):
    for value in (True, False, [True, 0], [0, False]):
        with pytest.raises(bq.ParseError, match="cannot coerce bool"):
            field(value)
