"""Arbitrary-precision scalars as balls: a midpoint and a radius.

A RealValue is a midpoint-radius ball in the sense of van der Hoeven ("Ball
arithmetic", 2010) and Arb (Johansson, IEEE TC 2017): the true value lies
within error_bound of magnitude.  The midpoint is an mpf at the working
precision; the radius is an mpf of RADIUS_BITS bits, and every operation on
radii rounds upward (a denominator downward) through mpmath.libmp, so the
bound is an enclosure and costs a few dozen bits, not the working precision.
Each operation adds to the propagated radius a rounding allowance of
2^(exponent of the midpoint) * 10^(2 - dps) per rounding of the midpoint;
that unit is far above an ulp, so it also absorbs the ulp-level error of a
midpoint that enters a radius.  exp and fractional
powers are bounded by expm1 and by the mean-value theorem, not to first
order.  The radius format is known only to this module: other modules build
bounds with radius_add(), radius_sub(), radius_mul(), radius_div(),
radius_pow() and radius_sqrt(), which round a full-width argument to radius
precision before using it.  A sum in fixed-point integers, x in units of
2^-wp, reads its operands with to_fixed(), its radius terms with
radius_fixed() and becomes a ball through fixed_ball().

Public evaluation entry points run inside compute_checked(), which executes
the computation at target + guard digits and, if the radius exceeds the
promised 10^(-target) * |x| budget or the computation raises PrecisionError,
retries wider: at W + 2(target - D) + guard digits or more when the ball at W
digits still certifies D > 0, enough for an error that goes like a square root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, workdps
from mpmath.libmp import (fone, from_int, from_man_exp, from_rational, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_le, mpf_mul, mpf_mul_int, mpf_nthroot,
                          mpf_pow_int, mpf_shift, mpf_sqrt, mpf_sub)

RADIUS_BITS = 30
_make = mp.make_mpf
_ZERO = mpf(0)
_TEN = from_int(10)
# 1 +- 2^-(RADIUS_BITS + 4): moves a root outward past an ulp of mpf_nthroot
_OUTWARD = {"u": mpf_add(fone, mpf_shift(fone, -RADIUS_BITS - 4), RADIUS_BITS + 10),
            "d": mpf_sub(fone, mpf_shift(fone, -RADIUS_BITS - 4), RADIUS_BITS + 10)}


class PrecisionError(ArithmeticError):
    """Raised when a result cannot honor its precision contract."""


@dataclass(frozen=True)
class PrecisionSpec:
    target_digits: int
    guard_digits: int

    def __post_init__(self):
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")
        if self.guard_digits < 15:
            raise ValueError("guard_digits must be at least 15")

    @staticmethod
    def of(target_digits: int, guard_digits: int | None = None) -> PrecisionSpec:
        if guard_digits is None:
            guard_digits = math.ceil(0.2 * target_digits) + 15
        return PrecisionSpec(target_digits, guard_digits)

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    def widened(self) -> PrecisionSpec:
        return PrecisionSpec(self.target_digits, 2 * self.guard_digits + 10)


_UNITS: dict[int, tuple] = {}


def _unit() -> tuple:
    unit = _UNITS.get(mp.prec)
    if unit is None:
        unit = _UNITS[mp.prec] = mpf_pow_int(_TEN, 2 - mp.dps, RADIUS_BITS, "u")
    return unit


# ------------------------------------------------------------------ radii
# raw libmp values: _up and _down round |x| to radius precision, _sum and
# _mul combine radii rounding upward, _less subtracts rounding downward

def _up(x) -> tuple:
    return mpf_abs(x, RADIUS_BITS, "u")


def _down(x) -> tuple:
    return mpf_abs(x, RADIUS_BITS, "d")


def _mul(x, y) -> tuple:
    return mpf_mul(x, y, RADIUS_BITS, "u")


def _sum(*xs) -> tuple:
    total = fzero
    for x in xs:
        total = mpf_add(total, mpf_abs(x), RADIUS_BITS, "u")
    return total


def _less(x, y) -> tuple:
    """|x| - |y| rounded down, or 0 when that is not positive."""
    low = mpf_sub(mpf_abs(x), mpf_abs(y), RADIUS_BITS, "d")
    return fzero if low[0] else low


def _rounding(m) -> tuple:
    """The allowance for rounding a midpoint m once: |m| < 2^(exp + bc)."""
    return mpf_shift(_unit(), m[2] + m[3]) if m[1] else fzero


def _raw(x) -> tuple:
    return x._mpf_ if isinstance(x, mpf) else from_int(x)


def radius_add(*xs) -> mpf:
    """The sum of |x| over xs, rounded up to radius precision."""
    return _make(_sum(*map(_raw, xs)))


def radius_sub(x, y) -> mpf:
    """|x| - |y| rounded down to radius precision, or 0 if it is not
    positive: a lower bound for a denominator."""
    return _make(_less(_raw(x), _raw(y)))


def radius_mul(*xs) -> mpf:
    """The product of |x| over xs, rounded up to radius precision."""
    total = fone
    for x in xs:
        total = mpf_mul(total, mpf_abs(_raw(x)), RADIUS_BITS, "u")
    return _make(total)


def radius_div(x, y) -> mpf:
    """|x| / |y|, the denominator rounded down and the quotient up."""
    return _make(mpf_div(mpf_abs(_raw(x)), _down(_raw(y)), RADIUS_BITS, "u"))


def radius_pow(x, n: int) -> mpf:
    """|x|^n for an integer n >= 0, rounded up to radius precision."""
    return _make(mpf_pow_int(_up(_raw(x)), n, RADIUS_BITS, "u"))


def radius_sqrt(x) -> mpf:
    """sqrt(|x|) rounded up to radius precision."""
    return _make(mpf_sqrt(_up(_raw(x)), RADIUS_BITS, "u"))


def to_fixed(x: mpf, wp: int) -> int:
    """floor(x * 2^wp) for an mpf x >= 0: x in units of 2^-wp."""
    _, man, exp, _ = x._mpf_
    return man << (exp + wp) if exp + wp >= 0 else man >> -(exp + wp)


def radius_fixed(n: int, wp: int) -> mpf:
    """|n| * 2^-wp rounded up to radius precision."""
    return _make(from_man_exp(abs(n), -wp, RADIUS_BITS, "u"))


def _expm1_bound(e) -> tuple:
    """An upper bound of exp(e) - 1 for a radius e: e + e^2 while e <= 1
    (the Taylor terms past e sum to less than e^2 there), else 4^(floor(e)+1)."""
    if mpf_le(e, fone):
        return _sum(e, _mul(e, e))
    return mpf_shift(fone, 2 * int(_make(e)) + 2)


def _ball(m: mpf, r) -> RealValue:
    return RealValue(m, _make(r))


@dataclass(frozen=True)
class RealValue:
    """A ball: the true value lies within error_bound of magnitude."""
    magnitude: mpf
    error_bound: mpf

    @staticmethod
    def exact(x) -> RealValue:
        return RealValue(mpf(x), _ZERO)

    @staticmethod
    def from_fraction(fr: Fraction) -> RealValue:
        m = mpf(fr.numerator) / mpf(fr.denominator)
        return _ball(m, _rounding(m._mpf_))

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other: RealValue) -> RealValue:
        m = self.magnitude + other.magnitude
        return _ball(m, _sum(self.error_bound._mpf_, other.error_bound._mpf_,
                             _rounding(m._mpf_)))

    def __sub__(self, other: RealValue) -> RealValue:
        m = self.magnitude - other.magnitude
        return _ball(m, _sum(self.error_bound._mpf_, other.error_bound._mpf_,
                             _rounding(m._mpf_)))

    def __neg__(self) -> RealValue:
        return RealValue(-self.magnitude, self.error_bound)

    def __mul__(self, other: RealValue) -> RealValue:
        a, b = self.magnitude, other.magnitude
        ea, eb = self.error_bound._mpf_, other.error_bound._mpf_
        m = a * b
        return _ball(m, _sum(_mul(_up(a._mpf_), eb), _mul(_up(b._mpf_), ea),
                             _mul(ea, eb), _rounding(m._mpf_)))

    def __truediv__(self, other: RealValue) -> RealValue:
        low, eb = other._lower(), other.error_bound._mpf_
        if mpf_le(low, eb):
            raise PrecisionError("division by a value indistinguishable from zero")
        m = self.magnitude / other.magnitude
        num = _sum(self.error_bound._mpf_, _mul(_up(m._mpf_), eb))
        return _ball(m, _sum(mpf_div(num, low, RADIUS_BITS, "u"), _rounding(m._mpf_)))

    def powi(self, e: int) -> RealValue:
        if e == 0:
            return RealValue.exact(1)
        base = self if e > 0 else RealValue.exact(1) / self
        e = abs(e)
        out = None
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def powf(self, r: Fraction) -> RealValue:
        """Principal real power of a positive value with rational exponent
        a/b: the b-th root at a few extra bits, raised to the a-th power, so
        |a| + 1 roundings.  The radius is the mean-value bound
        |r| * e * xi^(r-1), xi the end of [m - e, m + e] that maximises it."""
        r = Fraction(r)
        if r.denominator == 1:
            return self.powi(r.numerator)
        if self.magnitude <= 0:
            raise PrecisionError("fractional power of a nonpositive value")
        a, b = r.numerator, r.denominator
        x, e = self.magnitude._mpf_, self.error_bound._mpf_
        m = _make(mpf_pow_int(mpf_nthroot(x, b, mp.prec + 10, "n"), a, mp.prec, "n"))
        spread = fzero
        if e[1]:
            rising = a > b          # xi^(r-1) grows with xi
            rnd = "u" if rising else "d"
            xi = mpf_add(x, e, RADIUS_BITS, "u") if rising else mpf_sub(x, e, RADIUS_BITS, "d")
            if xi[0] or not xi[1]:
                raise PrecisionError("fractional power of a value indistinguishable from zero")
            root = mpf_mul(mpf_nthroot(xi, b, RADIUS_BITS + 10, rnd), _OUTWARD[rnd],
                           RADIUS_BITS + 10, rnd)
            spread = _mul(_mul(from_rational(abs(a), b, RADIUS_BITS, "u"), e),
                          mpf_pow_int(root, a - b, RADIUS_BITS, "u"))
        return _ball(m, _sum(spread, mpf_mul_int(_rounding(m._mpf_), abs(a) + 1,
                                                 RADIUS_BITS, "u")))

    def sqrt(self) -> RealValue:
        return self.powf(Fraction(1, 2))

    def __abs__(self) -> RealValue:
        return RealValue(abs(self.magnitude), self.error_bound)

    # -------------------------------------------------------------- inspection
    def _lower(self) -> tuple:
        return _less(self.magnitude._mpf_, self.error_bound._mpf_)

    def abs_lower(self) -> mpf:
        """A lower bound of |x| over the ball at radius precision; 0 when the
        ball reaches zero."""
        return _make(self._lower())

    def abs_upper(self) -> mpf:
        """An upper bound of |x| over the ball at radius precision."""
        return _make(_sum(_up(self.magnitude._mpf_), self.error_bound._mpf_))

    def meets(self, spec: PrecisionSpec) -> bool:
        """Whether the radius is at most 10^(-target) * |magnitude|; a
        midpoint that is exactly zero is held to 10^(-target) itself."""
        scale = mpf_abs(self.magnitude._mpf_) if self.magnitude else fone
        budget = mpf_mul(mpf_pow_int(_TEN, -spec.target_digits, RADIUS_BITS, "d"),
                         scale, RADIUS_BITS, "d")
        return mpf_le(self.error_bound._mpf_, budget)

    def __str__(self) -> str:
        return f"{self.magnitude} (+- {self.error_bound})"


def fixed_ball(n: int, wp: int, radius: mpf) -> RealValue:
    """The ball about n * 2^-wp rounded once to mp.prec; its radius is the
    given one plus the allowance for that rounding."""
    m = from_man_exp(n, -wp, mp.prec, "n")
    return _ball(_make(m), _sum(radius._mpf_, _rounding(m)))


def rv_exp(x: RealValue) -> RealValue:
    """exp of a ball: |exp(x') - exp(m)| <= exp(m) * expm1(e) for |x' - m| <= e."""
    m = mp.exp(x.magnitude)
    return _ball(m, _sum(_mul(_up(m._mpf_), _expm1_bound(x.error_bound._mpf_)),
                         _rounding(m._mpf_)))


def rv_pi() -> RealValue:
    m = +mp.pi
    return _ball(m, _rounding(m._mpf_))


def _next_attempt(spec: PrecisionSpec, attempt: PrecisionSpec, value) -> PrecisionSpec:
    """widened(), or W + 2(target - D) + guard working digits if that is more and
    the ball that missed certifies D > 0 digits, read from exponents: |m| >=
    2^(exp + bc - 1) (1 for m = 0, as in meets) and the radius < 2^(exp + bc)."""
    wider = attempt.widened()
    if value is None or not value.error_bound._mpf_[1]:
        return wider
    (_, man, exp, bc), (_, _, r_exp, r_bc) = value.magnitude._mpf_, value.error_bound._mpf_
    digits = math.floor(((exp + bc - 1 if man else 0) - r_exp - r_bc) * math.log10(2))
    need = attempt.working_digits + 2 * (spec.target_digits - digits) + spec.guard_digits
    if digits <= 0 or need <= wider.working_digits:
        return wider
    return PrecisionSpec(spec.target_digits, need - spec.target_digits)


def compute_checked(spec: PrecisionSpec, builder):
    """Run builder() at working precision; retry at the precision _next_attempt
    reads from the ball that missed until the result honors spec's error
    budget.  A PrecisionError from builder() asks for a wider guard too; the
    last one is raised if all attempts fail."""
    attempt = spec
    for _ in range(4):
        try:
            with workdps(attempt.working_digits):
                value = builder()
        except PrecisionError as exc:
            value, refused = None, exc
        if value is not None and value.meets(spec):
            return value
        attempt = _next_attempt(spec, attempt, value)
    if value is None:
        raise refused
    raise PrecisionError(
        f"could not reach {spec.target_digits} digits even with "
        f"{attempt.guard_digits} guard digits")


def digits_agreed(x, y) -> int:
    """Count of decimal digits to which two magnitudes agree, relative to
    max(1, |x|, |y|); capped at the active working precision."""
    x = x.magnitude if isinstance(x, RealValue) else mpf(x)
    y = y.magnitude if isinstance(y, RealValue) else mpf(y)
    diff = abs(x - y)
    scale = max(mpf(1), abs(x), abs(y))
    if diff == 0:
        return mp.dps
    return min(mp.dps, int(mp.floor(-mp.log10(diff / scale))))
