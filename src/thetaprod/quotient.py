"""Eta-quotient expressions: rational q-power times a product of integer
powers of theta blocks at q^k.  Shared between the identity catalogue, the
numeric evaluator, the products, the invariants and the exact-series
builder; only f factors expand exactly."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import LATTICE, PowerSeries, mul, pow_int, series_f, shift

# f(-x), f(x), phi(x), phi(-x), psi(x), psi(-x)
BLOCK_KINDS = ("f_minus", "f_plus", "phi_plus", "phi_minus", "psi_plus", "psi_minus")


@dataclass(frozen=True)
class EtaFactor:
    k: int
    kind: str          # one of BLOCK_KINDS, at argument q^k
    exponent: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("factor argument scale k must be >= 1")
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")


@dataclass(frozen=True)
class EtaQuotient:
    q_power: Fraction
    factors: tuple[EtaFactor, ...]

    def __post_init__(self):
        if (LATTICE * self.q_power).denominator != 1:
            raise ValueError(f"q-power {self.q_power} is off the 1/{LATTICE} lattice")
        seen = set()
        for f in self.factors:
            key = (f.k, f.kind)
            if key in seen:
                raise ValueError(f"duplicate factor {f.kind}({f.k})")
            seen.add(key)
        ordered = tuple(sorted(self.factors, key=lambda f: (f.k, f.kind)))
        object.__setattr__(self, "factors", ordered)

    @staticmethod
    def of(q_power: Fraction | int, factors) -> EtaQuotient:
        return EtaQuotient(Fraction(q_power),
                           tuple(EtaFactor(k, kind, e) for k, kind, e in factors))

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
        others = [f"{f.kind}({f.k})" for f in self.factors if not f.kind.startswith("f_")]
        if others:
            raise ValueError(f"only f factors expand exactly, not {', '.join(others)}")
        inner = max(order - self.lattice_shift, 0)
        out = PowerSeries.one(inner)
        for f in self.factors:
            out = mul(out, pow_int(series_f(f.k, f.kind[2:], inner), f.exponent))
        return shift(out, self.lattice_shift)
