"""High-precision numeric evaluation of the theta building blocks and of
eta quotients, with explicit truncation-tail accounting.

Every sparse series here has integer exponents g(n) that grow quadratically
and coefficients bounded by 2 in absolute value, so for 0 < x < 1 the tail
after the n-th retained term is at most  c * x^(g(n+1)) / (1 - x).  That
bound is added to the returned error estimate rather than assumed away.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .precision import (PrecisionError, PrecisionSpec, RealValue,
                        compute_checked, rv_exp, rv_pi)
from .quotient import EtaQuotient
from .series import PowerSeries, f_terms, phi_terms, psi_terms

BLOCK_KINDS = ("f_minus", "f_plus", "phi_plus", "phi_minus",
               "psi_plus", "psi_minus", "chi_plus", "chi_minus")


@dataclass(frozen=True)
class Nome:
    m: Fraction
    n: Fraction
    q: RealValue


def nome_value(r) -> RealValue:
    """q = exp(-pi * sqrt(r)) at the current mp.dps; r a positive Fraction."""
    return rv_exp(-(rv_pi() * RealValue.from_fraction(r).sqrt()))


def nome(m, n, prec: PrecisionSpec) -> Nome:
    """q = exp(-pi * sqrt(m/n)) for positive rational m, n."""
    m, n = Fraction(m), Fraction(n)
    if m <= 0 or n <= 0:
        raise ValueError("nome parameters must be positive")
    return Nome(m, n, compute_checked(prec, lambda: nome_value(m / n)))


# ---------------------------------------------------------------------------
# sparse theta sums
# ---------------------------------------------------------------------------

# _sum_block draws its terms through these module names, so that rebinding
# one (as perfbench's tracer does to count terms) reaches every sum
_terms_f, _terms_phi, _terms_psi = f_terms, phi_terms, psi_terms


def _sum_block(kind: str, x: RealValue) -> RealValue:
    """Sum one primitive block at argument x, 0 < x < 1, at current mp.dps."""
    if kind in ("f_minus", "f_plus"):
        terms, cbound = _terms_f(kind.split("_")[1]), 2
    elif kind in ("phi_plus", "phi_minus"):
        terms, cbound = _terms_phi(kind.split("_")[1]), 2
    else:
        terms, cbound = _terms_psi(kind.split("_")[1]), 1

    xm = x.magnitude
    cutoff = mpf(10) ** (-(mp.dps - 3))
    total = mpf(0)
    deriv = mpf(0)          # sum of |c| * g * x^(g-1), for the dS/dx bound
    next_exp = 0
    count = 0
    for g, c, nxt in terms:
        p = xm ** g
        total += c * p
        if g > 0:
            deriv += abs(c) * g * (p / xm)
        count += 1
        next_exp = nxt
        if p < cutoff and g > 0:
            break
        if count > 100000:
            raise PrecisionError("theta sum failed to converge")
    tail = cbound * xm ** next_exp / (1 - xm)
    err = tail + deriv * x.error_bound + (count + 2) * abs(total) * mpf(10) ** (2 - mp.dps)
    return RealValue(total, err)


def block_value(kind: str, k: int, q: RealValue) -> RealValue:
    """One theta block at argument q^k, 0 < q < 1, at the current mp.dps."""
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    if k < 1:
        raise ValueError("block scale k must be >= 1")
    if kind == "chi_plus":
        return block_value("f_plus", k, q) / block_value("f_minus", 2 * k, q)
    if kind == "chi_minus":
        return block_value("f_minus", k, q) / block_value("f_minus", 2 * k, q)
    return _sum_block(kind, q.powi(k))


def eval_block(kind: str, k: int, q: RealValue, prec: PrecisionSpec) -> RealValue:
    """One theta block at argument q^k.  Requires 0 < q < 1."""
    if not (0 < q.magnitude < 1):
        raise ValueError("block argument must satisfy 0 < q < 1")
    return compute_checked(prec, lambda: block_value(kind, k, q))


def quotient_value(expr: EtaQuotient, q: RealValue) -> RealValue:
    """An eta quotient at q, 0 < q < 1, at the current mp.dps; the empty
    quotient is 1."""
    out = RealValue.exact(1)
    if expr.q_power != 0:
        out = q.powf(expr.q_power)
    for f in expr.factors:
        kind = "f_minus" if f.sign == "minus" else "f_plus"
        out = out * block_value(kind, f.k, q).powi(f.exponent)
    return out


def eval_eta_quotient(expr: EtaQuotient, q: RealValue, prec: PrecisionSpec) -> RealValue:
    """Numeric value of an eta quotient; the empty quotient evaluates to 1."""
    if not (0 < q.magnitude < 1):
        raise ValueError("argument must satisfy 0 < q < 1")
    return compute_checked(prec, lambda: quotient_value(expr, q))


def eval_series_at(series: PowerSeries, q: RealValue, prec: PrecisionSpec,
                   coeff_bound: int = 2) -> RealValue:
    """Evaluate a truncated lattice series at q, charging the discarded tail
    as  coeff_bound * u^(order+1) / (1 - u)  with u = q^(1/24).

    Useful for consistency checks between the exact and numeric layers; the
    bound is only valid when the dropped coefficients really are bounded by
    coeff_bound, which holds for the block families above.
    """
    if not (0 < q.magnitude < 1):
        raise ValueError("argument must satisfy 0 < q < 1")

    def build():
        u = q.powf(Fraction(1, 24))
        total = RealValue.exact(0)
        for e in sorted(series.coeffs):
            total = total + RealValue.from_fraction(series.coeffs[e]) * u.powf(Fraction(e))
        um = u.magnitude
        tail = coeff_bound * um ** (series.order + 1) / (1 - um)
        return RealValue(total.magnitude, total.error_bound + tail)

    return compute_checked(prec, build)
