"""Eta-quotient expressions: rational q-power times a product of f(-q^k) or
f(q^k) powers.  Shared between the identity catalogue, the numeric evaluator,
and the exact-series builder."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import LATTICE, PowerSeries, mul, pow_int, series_f, shift

SIGNS = ("minus", "plus")


@dataclass(frozen=True)
class EtaFactor:
    k: int
    sign: str          # "minus" for f(-q^k), "plus" for f(q^k)
    exponent: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("factor argument scale k must be >= 1")
        if self.sign not in SIGNS:
            raise ValueError(f"unknown factor sign {self.sign!r}")
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")

    def render(self) -> str:
        name = "f" if self.sign == "minus" else "fp"
        if self.exponent == 1:
            return f"{name}({self.k})"
        return f"{name}({self.k})^{self.exponent}"


@dataclass(frozen=True)
class EtaQuotient:
    q_power: Fraction
    factors: tuple[EtaFactor, ...]

    def __post_init__(self):
        if (LATTICE * self.q_power).denominator != 1:
            raise ValueError(f"q-power {self.q_power} is off the 1/{LATTICE} lattice")
        seen = set()
        for f in self.factors:
            key = (f.k, f.sign)
            if key in seen:
                raise ValueError(f"duplicate factor f({f.k}) with sign {f.sign}")
            seen.add(key)
        ordered = tuple(sorted(self.factors, key=lambda f: (f.k, f.sign)))
        object.__setattr__(self, "factors", ordered)

    @staticmethod
    def of(q_power: Fraction | int, factors) -> EtaQuotient:
        return EtaQuotient(Fraction(q_power),
                           tuple(EtaFactor(k, sign, e) for k, sign, e in factors))

    @property
    def lattice_shift(self) -> int:
        """Lattice exponent of the q-prefactor, also the leading exponent of
        the whole quotient (each factor series starts at 1)."""
        return int(LATTICE * self.q_power)

    def natural_nome_index(self) -> int:
        """Largest odd part among factor scales; verification probes include
        the nome q = exp(-pi/sqrt(index))."""
        best = 1
        for f in self.factors:
            k = f.k
            while k % 2 == 0:
                k //= 2
            best = max(best, k)
        return best

    def to_series(self, order: int) -> PowerSeries:
        """Exact expansion sound at least to the requested lattice order.

        Below the q-prefix (order < lattice_shift) the factors are still
        expanded to order 0, so the result reaches past the request."""
        inner = max(order - self.lattice_shift, 0)
        out = PowerSeries.one(inner)
        for f in self.factors:
            out = mul(out, pow_int(series_f(f.k, f.sign, inner), f.exponent))
        return shift(out, self.lattice_shift)

    def render(self) -> str:
        parts = []
        if self.q_power != 0:
            if self.q_power.denominator == 1:
                parts.append(f"q^({self.q_power.numerator})")
            else:
                parts.append(f"q^({self.q_power.numerator}/{self.q_power.denominator})")
        parts.extend(f.render() for f in self.factors)
        return " * ".join(parts) if parts else "1"
