"""Scalar backends: exact rationals and arbitrary-precision complex numbers.

Every value in this package travels with a field object that knows how to
build, compare, and serialize its scalars:

  * ``ExactField``  -- ``fractions.Fraction`` with unbounded integers.
    Equality is exact, tolerances are zero.
  * ``NumericField`` -- mpmath ``mpf``/``mpc`` at a configurable binary
    precision, with a *relative* comparison tolerance ``tau`` and a root
    separation tolerance ``tau_root``.
  * ``MachineField`` -- the same interface on mpmath's ``fp`` context
    (Python ``float``/``complex``), used to track continuation paths.

Each ``NumericField`` owns a private mpmath context, so precision is a
property of the values, not of a process-wide switch; two fields with
different precision can be used concurrently.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Any, Union

from mpmath import fp
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_float, fzero, to_str

from .errors import ParseError

Scalar = Union[Fraction, Any]  # Fraction, or mpf/mpc bound to a NumericField

#: default binary precision of the numeric backend
DEFAULT_PRECISION = 256
_LOW = float("-inf")  #: the top binary exponent ``NumericField.largest`` gives 0


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


class _Magnitudes:
    """Magnitude maxima and bounds, all decided by ``largest``, the zero
    test at ``tau`` and the one order of a root set."""

    def is_zero(self, x, scale=None) -> bool:
        """|x| <= tau |scale|, relative with no floor (tau without a scale)."""
        return abs(x) <= self.tau * (1 if scale is None else abs(scale))

    def largest(self, values):
        """Index of the first nonzero value of largest magnitude, or None."""
        best = mag = None
        for i, v in enumerate(values):
            m = abs(v)
            if v != 0 and (best is None or m > mag):
                best, mag = i, m
        return best

    def within(self, x, bound) -> bool:
        """|x| <= bound, for a bound >= 0."""
        return self.largest([bound, x]) != 1

    def max_abs(self, values):
        """``max(abs(v) for v in values)``, 0 when there are none."""
        i = self.largest(values)
        return self.abs(self.zero if i is None else values[i])

    def ordered(self, values) -> list:
        """``values`` sorted by real part; real parts within ``tau_root`` of
        the first of a run count as equal, and the run is sorted by imaginary
        part.  On ``ExactField`` (``tau_root`` 0) ties are exact."""
        out, run = [], []
        for v in sorted(values, key=lambda v: v.real):
            if run and abs(v.real - run[0].real) > self.tau_root:
                out += sorted(run, key=lambda v: v.imag)
                run = []
            run.append(v)
        return out + sorted(run, key=lambda v: v.imag)


class ExactField(_Magnitudes):
    """Rational arithmetic backend (``fractions.Fraction``)."""

    backend = "exact"
    precision = None  # unbounded

    def __init__(self) -> None:
        self.tau = self._tau_prec = Fraction(0)
        self.tau_root = Fraction(0)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __call__(self, value) -> Fraction:
        """Coerce ``value`` (int, Fraction, decimal/rational string, not bool) to a scalar."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str):
            return _parse_rational(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:  # [re, im]
            re, im = value
            if self(im) != 0:
                raise ParseError("exact backend has no complex scalars; use the numeric backend")
            return self(re)
        raise ParseError(f"cannot coerce {type(value).__name__} to an exact scalar")

    def abs(self, x) -> Fraction:
        return abs(x)

    def to_literal(self, x) -> str:
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

    def __repr__(self) -> str:
        return "ExactField()"


class NumericField(_Magnitudes):
    """Complex arithmetic at ``precision`` bits on a private mpmath context.

    ``tau`` is the relative tolerance that judges residuals and checks,
    ``tau_root`` the minimum distance below which two roots count as
    colliding.  Defaults keep the ratios tau = 2^(-5P/8) and tau_root =
    2^(-5P/16) of the reference precision P = 256.  Structure (elimination
    pivots, the Bruhat step's zero tests, the degree ``chop`` leaves) reads
    the precision's tolerance ``_tau_prec``, the default tau, whatever tau is.
    """

    backend = "numeric"

    def __init__(self, precision: int = DEFAULT_PRECISION, tau=None, tau_root=None):
        if precision < 24:
            raise ValueError("precision must be at least 24 bits")
        ctx = MPContext()
        ctx.prec = precision
        self._bind(ctx, tau, tau_root)

    def _bind(self, ctx, tau=None, tau_root=None) -> None:
        """Attach ``ctx`` and derive the default tolerances from its precision."""
        self.ctx = ctx
        self.precision = precision = ctx.prec
        self._tau_prec = ctx.mpf(2) ** -((5 * precision) // 8)  # decides structure; tau judges values
        self.tau = ctx.mpf(tau) if tau is not None else self._tau_prec
        self.tau_root = (
            ctx.mpf(tau_root) if tau_root is not None else ctx.mpf(2) ** -((5 * precision) // 16)
        )
        if not (0 < self.tau < 1 and 0 < self.tau_root < ctx.inf):  # NaN fails both
            raise ValueError("tolerances must be positive, with tau < 1 and tau_root finite")
        self.zero = ctx.mpf(0)
        self.one = ctx.mpf(1)
        self._own = (ctx.mpf, ctx.mpc)

    def __call__(self, value):
        if type(value) in self._own:
            return value
        if isinstance(value, bool):  # true is not 1
            raise ParseError("cannot coerce bool to a numeric scalar")
        ctx = self.ctx
        if isinstance(value, Fraction):
            return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
        if isinstance(value, int):
            return ctx.mpf(value)
        if isinstance(value, (float, complex)):  # infinity and NaN are refused, here and below
            if not cmath.isfinite(value):
                raise ParseError(f"numeric literal {value!r} is not finite")
            return ctx.mpc(value.real, value.imag) if isinstance(value, complex) else ctx.mpf(value)
        if isinstance(value, str):
            if "/" in value:
                return self(_parse_rational(value))
            try:
                out = ctx.mpf(value.strip())
            except ValueError:
                raise ParseError(f"bad numeric literal {value!r}") from None
            if ctx.isinf(out) or ctx.isnan(out):
                raise ParseError(f"numeric literal {value!r} is not finite")
            return out
        if isinstance(value, (list, tuple)) and len(value) == 2:  # [re, im]
            re, im = value
            return self(re) + self(im) * ctx.mpc(0, 1)
        # mpf/mpc from a foreign context
        if hasattr(value, "real") and hasattr(value, "imag"):
            return ctx.mpc(value.real, value.imag)
        raise ParseError(f"cannot coerce {type(value).__name__} to a numeric scalar; a complex literal is [re, im]")

    def abs(self, x):
        return abs(x)

    def largest(self, values):
        """Index of the first nonzero value of largest magnitude, or None, as
        ``abs`` (a rounded hypot, monotone in the exact square) decides it,
        with no square root.  Parts below 2^t, one at least 2^(t-1), make a
        magnitude in [2^(t-1), 2^(t+1/2)): so a value whose t is 2 or more
        below the top one is smaller, and the rest compare exact squares."""
        parts, tops = [], []
        for v in values:
            a, b = getattr(v, "_mpc_", None) or (getattr(v, "_mpf_", None), fzero)
            if a is None or (a[2] and not a[1]) or (b[2] and not b[1]):  # not an mpf, or inf/nan
                return _Magnitudes.largest(self, values)
            tops.append(max(a[2] + a[3] if a[1] else _LOW, b[2] + b[3] if b[1] else _LOW))
            parts.append((a, b))
        hi = max(tops, default=_LOW)
        near = [i for i, t in enumerate(tops) if t >= hi - 1] if hi != _LOW else []
        if len(near) < 2:
            return near[0] if near else None
        low = min(p[2] for i in near for p in parts[i])  # exact squares (m 2^e)^2, to a common exponent
        mags = [sum(p[1] ** 2 << 2 * (p[2] - low) for p in parts[i]) for i in near]
        return near[mags.index(max(mags))]

    def to_literal(self, x):
        """Decimal string(s) carrying the full stored precision."""
        digits = self.ctx.dps + 6
        z = self.ctx.mpc(x)
        if z.imag == 0:
            return self.ctx.nstr(z.real, digits)
        return [self.ctx.nstr(z.real, digits), self.ctx.nstr(z.imag, digits)]

    def __repr__(self) -> str:
        return f"NumericField(precision={self.precision})"


class MachineField(NumericField):
    """``NumericField`` on mpmath's machine-float context ``fp``.

    Scalars are Python ``float``/``complex`` at 53 bits, with the default
    tolerances of that precision: tau = 2^-33, tau_root = 2^-16.  Continuation
    tracks and polishes its path here, then refines in the caller's field; it
    is not a file-format backend.
    """

    def __init__(self):
        self._bind(fp)

    largest = _Magnitudes.largest

    def within(self, x, bound) -> bool:
        """|x| <= bound, for a bound >= 0; NaN counts as within a positive
        bound, as ``largest`` decides."""
        return not abs(x) > abs(bound)


Field = Union[ExactField, NumericField]


def make_field(backend: str = "exact", precision: int = DEFAULT_PRECISION,
               tau=None, tau_root=None) -> Field:
    """Build a field from file-format keys (``backend``/``precision_bits``)."""
    if backend == "exact":
        return ExactField()
    if backend == "numeric":
        return NumericField(precision=precision, tau=tau, tau_root=tau_root)
    raise ParseError(f"unknown backend {backend!r}")


def residual_repr(field: Field, value) -> str:
    """A residual's magnitude: exact on the exact backend, else to 8
    significant digits at any exponent (a float would underflow)."""
    mag = field.abs(value)
    if isinstance(field, ExactField):
        return "0" if mag == 0 else field.to_literal(mag)
    mag = field.ctx.mpf(mag)
    return to_str(from_float(mag) if isinstance(mag, float) else mag._mpf_, 8)
