"""High-precision numeric evaluation of the theta building blocks and of
eta quotients, with explicit truncation-tail accounting.

Every sparse series here has integer exponents g(n) that grow quadratically
and coefficients bounded by 2 in absolute value, so for 0 < x < 1 the tail
after the n-th retained term is at most  c * x^(g(n+1)) / (1 - x).  That
bound is added to the returned error estimate rather than assumed away.

No power is raised from scratch.  A term's x^g is the previous term's power
times the gap power x^(g - g_prev), and a gap power not yet formed in the
sum is the product of two that are (x^a * x^(d-a), a the largest gap formed
so far).  So each x^g is a chain of at most g + count rounded products, and
the rounding allowance charges every term that many units of 10^(2 - dps):

    (sum |c| g x^g + (count + 2) * sum |c| x^g) * 10^(2 - dps).

It is charged against sum |c| x^g, not against the sum itself, so it stays
an enclosure when an alternating sum cancels far below its terms, as
f(-x), phi(-x) and psi(-x) do for x near 1.  The radius of the argument x
enters by the mean-value theorem: over the ball, the derivative of the
partial sum is at most sum |c| g x^(g-1) * (x_hi / x)^G, x_hi the ball's
upper end and G the next exponent, and the tail is bounded at x_hi too.
Both accumulators (precision.radius_moments) and the whole bound are
rounded upward to radius precision (precision.RADIUS_BITS); only the sum
itself is full width.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .precision import (PrecisionError, PrecisionSpec, RealValue, compute_checked,
                        radius_add, radius_div, radius_moments, radius_mul,
                        radius_pow, radius_sub, rounding_unit, rv_exp, rv_pi)
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


# 10^-(dps - 3) per working precision: a term below it ends a sum
_CUTOFFS: dict[int, mpf] = {}


def _gap_power(gaps: dict[int, mpf], known: list[int], d: int) -> mpf:
    """x^d, given gaps = {e: x^e} holding x^1 and known = its sorted keys.

    A new x^d is x^a * x^(d-a) for the largest known a < d, and is kept.
    The streams' gaps grow by 1 or 2, so d - a is almost always known.
    """
    p = gaps.get(d)
    if p is None:
        a = known[bisect_left(known, d) - 1]
        p = gaps[d] = gaps[a] * _gap_power(gaps, known, d - a)
        insort(known, d)
    return p


def _sum_block(kind: str, x: RealValue) -> RealValue:
    """Sum one primitive block at argument x, 0 < x < 1, at current mp.dps."""
    if kind in ("f_minus", "f_plus"):
        terms, cbound = _terms_f(kind.split("_")[1]), 2
    elif kind in ("phi_plus", "phi_minus"):
        terms, cbound = _terms_phi(kind.split("_")[1]), 2
    else:
        terms, cbound = _terms_psi(kind.split("_")[1]), 1

    xm = x.magnitude
    cutoff = _CUTOFFS.get(mp.prec)
    if cutoff is None:
        cutoff = _CUTOFFS[mp.prec] = mpf(10) ** (-(mp.dps - 3))
    gaps, known = {1: xm}, [1]
    total = mpf(0)
    summed = []             # (g, c, x^g) of every term
    g_prev, p = 0, mpf(1)
    for g, c, nxt in terms:
        if g != g_prev:
            p, g_prev = p * _gap_power(gaps, known, g - g_prev), g
        total += c * p
        summed.append((g, c, p))
        if p < cutoff and g > 0:
            break
        if len(summed) > 100000:
            raise PrecisionError("theta sum failed to converge")
    count = len(summed)
    absolute, weighted = radius_moments(summed)     # sum |c| x^g, sum |c| g x^g
    x_hi = x.abs_upper()
    # (x_hi / xm)^nxt bounds (xi / xm)^g for every xi in the ball and g <= nxt
    spread = radius_pow(radius_div(x_hi, xm), nxt)
    tail = radius_div(radius_mul(cbound, p, _gap_power(gaps, known, nxt - g), spread),
                      radius_sub(1, x_hi))
    # weighted / xm is the sum of |c| * g * x^(g-1), which bounds dS/dx at xm.
    # Each x^g is a chain of at most g + count rounded products, and the
    # running sum rounds count times, each against at most the sum of |c| * x^g.
    propagated = radius_mul(radius_div(weighted, xm), spread, x.error_bound)
    rounding = radius_mul(radius_add(weighted, radius_mul(absolute, count + 2)),
                          rounding_unit())
    return RealValue(total, radius_add(tail, propagated, rounding))


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
        u_hi = u.abs_upper()
        tail = radius_div(radius_mul(coeff_bound, radius_pow(u_hi, series.order + 1)),
                          radius_sub(1, u_hi))
        return RealValue(total.magnitude, radius_add(total.error_bound, tail))

    return compute_checked(prec, build)
