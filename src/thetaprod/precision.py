"""Arbitrary-precision scalars with explicit error accounting.

mpmath supplies the underlying floats, pi, exp, and root finding.  RealValue
wraps an mpmath magnitude together with a conservative absolute error bound;
every arithmetic helper propagates the bound to first order and adds a
rounding allowance tied to the active working precision.

Public evaluation entry points run inside compute_checked(), which executes
the computation at target + guard digits and retries with a doubled guard if
the propagated bound ever exceeds the promised 10^(-target) budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, workdps


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

    def budget(self) -> mpf:
        return mpf(10) ** (-self.target_digits)

    def widened(self) -> PrecisionSpec:
        return PrecisionSpec(self.target_digits, 2 * self.guard_digits + 10)


_UNITS: dict[int, mpf] = {}


def rounding_unit() -> mpf:
    """10^(2 - mp.dps): one conservative unit of relative rounding at the
    active precision, formed once per precision and then looked up."""
    unit = _UNITS.get(mp.prec)
    if unit is None:
        unit = _UNITS[mp.prec] = mpf(10) ** (2 - mp.dps)
    return unit


def _rounding(x) -> mpf:
    return abs(x) * rounding_unit()


@dataclass(frozen=True)
class RealValue:
    magnitude: mpf
    error_bound: mpf

    @staticmethod
    def exact(x) -> RealValue:
        return RealValue(mpf(x), mpf(0))

    @staticmethod
    def from_fraction(fr: Fraction) -> RealValue:
        m = mpf(fr.numerator) / mpf(fr.denominator)
        return RealValue(m, _rounding(m))

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other: RealValue) -> RealValue:
        m = self.magnitude + other.magnitude
        return RealValue(m, self.error_bound + other.error_bound + _rounding(m))

    def __sub__(self, other: RealValue) -> RealValue:
        m = self.magnitude - other.magnitude
        return RealValue(m, self.error_bound + other.error_bound + _rounding(m))

    def __neg__(self) -> RealValue:
        return RealValue(-self.magnitude, self.error_bound)

    def __mul__(self, other: RealValue) -> RealValue:
        m = self.magnitude * other.magnitude
        err = (abs(self.magnitude) * other.error_bound
               + abs(other.magnitude) * self.error_bound
               + self.error_bound * other.error_bound + _rounding(m))
        return RealValue(m, err)

    def __truediv__(self, other: RealValue) -> RealValue:
        ob = abs(other.magnitude)
        if ob <= 2 * other.error_bound:
            raise PrecisionError("division by a value indistinguishable from zero")
        m = self.magnitude / other.magnitude
        err = ((self.error_bound + abs(m) * other.error_bound) / (ob - other.error_bound)
               + _rounding(m))
        return RealValue(m, err)

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
        """Principal real power of a positive value with rational exponent."""
        r = Fraction(r)
        if r.denominator == 1:
            return self.powi(r.numerator)
        if self.magnitude <= 0:
            raise PrecisionError("fractional power of a nonpositive value")
        m = self.magnitude ** (mpf(r.numerator) / mpf(r.denominator))
        rel = self.error_bound / abs(self.magnitude)
        err = abs(m) * abs(mpf(r.numerator) / mpf(r.denominator)) * rel + _rounding(m)
        return RealValue(m, err)

    def sqrt(self) -> RealValue:
        return self.powf(Fraction(1, 2))

    def __abs__(self) -> RealValue:
        return RealValue(abs(self.magnitude), self.error_bound)

    # -------------------------------------------------------------- inspection
    def meets(self, spec: PrecisionSpec) -> bool:
        return self.error_bound <= spec.budget() * max(mpf(1), abs(self.magnitude))

    def __str__(self) -> str:
        return f"{self.magnitude} (+- {self.error_bound})"


def rv_exp(x: RealValue) -> RealValue:
    m = mp.exp(x.magnitude)
    return RealValue(m, abs(m) * x.error_bound + _rounding(m))


def rv_pi() -> RealValue:
    m = +mp.pi
    return RealValue(m, _rounding(m))


def compute_checked(spec: PrecisionSpec, builder):
    """Run builder() at working precision; retry with wider guard bands until
    the result honors spec's error budget."""
    attempt = spec
    for _ in range(4):
        with workdps(attempt.working_digits):
            value = builder()
        if value.meets(spec):
            return value
        attempt = attempt.widened()
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
