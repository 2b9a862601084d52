"""High-precision numeric evaluation of the theta building blocks and of
eta quotients, with explicit truncation-tail accounting.

Every sparse series here has integer exponents g(n) that grow quadratically
and coefficients bounded by 2 in absolute value, so for 0 < x < 1 the tail
after the n-th retained term is at most  c * x^(g(n+1)) / (1 - x).  That
bound is added to the returned error estimate rather than assumed away.

A block is summed in fixed-point integers.  With u = 2^-wp, wp = mp.prec +
_GUARD_BITS, the midpoint of x becomes X = floor(x * 2^wp), and every power
and the running sum are integers in units of u.  No power is raised from
scratch, and each product is formed at the width its term needs: a term's
x^g is the previous term's power p times the gap power x^d, d = g - g_prev,

    p <- (p * G_d) >> w,    w = min(wp, bit length of p),

with G_d = x^d in units of 2^-w.  A gap power not yet formed in the sum is
the product of two that are, (G_a * G_(d-a)) >> w with a the largest gap
formed so far; a stored one is shifted down to the current w.  p never
grows, so w never rises and a stored gap power is never needed wider.

Every step floors, so every computed power is a lower bound, and by
induction on the steps (x < 1 throughout):
  - x^1 at width w is X shifted down, short by less than 2 = 3*1 - 1
    units of 2^-w;
  - a product of x^a and x^b short by less than 3a - 1 and 3b - 1 units,
    each at most 2^w, is short by less than (3a - 1) + (3b - 1) + 1 =
    3(a + b) - 1 units, and a shift down leaves a shortfall s < 3d - 1 at
    less than s/2 + 1 <= 3d - 1;
  - a term step scales p's shortfall by x^d <= 1 and adds less than
    p * (3d - 1) * 2^-w + 1 <= 3d units of u, as p <= 2^w.
So each computed x^g is short by less than 3g u, and the exact integer sum
of c * p is within 3 * sum |c| g * u of the sum of c x^g: that is the
rounding allowance, plus one rounding of the midpoint to mp.prec.  It is
charged against sum |c| g, not against the sum itself, so it stays an
enclosure when an alternating sum cancels far below its terms, as f(-x),
phi(-x) and psi(-x) do for x near 1.

The radius of the argument x enters by the mean-value theorem: over the
ball, the derivative of the partial sum is at most sum |c| g x^(g-1) *
(x_hi / x)^G, x_hi the ball's upper end and G the next exponent, where
sum |c| g x^g <= sum |c| g (p + 3g u).  The tail is bounded at x_hi,
cbound * x_hi^G / (1 - x_hi).  The bound is rounded upward to radius
precision (precision.RADIUS_BITS); only the sum is full width.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .precision import (PrecisionError, PrecisionSpec, RealValue, compute_checked,
                        fixed_ball, radius_add, radius_div, radius_fixed, radius_mul,
                        radius_pow, radius_sub, rv_exp, rv_pi, to_fixed)
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


# a sum runs in units of 2^-(mp.prec + _GUARD_BITS)
_GUARD_BITS = 10

# 10^-(dps - 3) in those units, per working precision: a term below it ends a sum
_CUTOFFS: dict[int, int] = {}


def _gap_power(gaps: dict[int, tuple[int, int]], known: list[int], d: int, w: int) -> int:
    """x^d in units of 2^-w, given gaps = {e: (x^e in units of 2^-v, v)}
    holding x^1 and known = its sorted keys; w is at most every stored v.

    A stored power is shifted down to w and kept so.  A new x^d is
    x^a * x^(d-a) for the largest known a < d, and is kept.  The streams'
    gaps grow by 1 or 2, so d - a is almost always known.
    """
    if d in gaps:
        p, v = gaps[d]
        if v == w:
            return p
        p >>= v - w
    else:
        a = known[bisect_left(known, d) - 1]
        p = _gap_power(gaps, known, a, w) * _gap_power(gaps, known, d - a, w) >> w
        insort(known, d)
    gaps[d] = p, w
    return p


def _powers(terms, x: int, wp: int, cutoff: int):
    """(g, c, nxt, p) for each term of a stream through the first one with
    g > 0 and p < cutoff, where p is x^g in units of 2^-wp and x is given in
    those units.  Each step is formed at the width its term needs."""
    gaps, known = {1: (x, wp)}, [1]
    g_prev, p = 0, 1 << wp
    for count, (g, c, nxt) in enumerate(terms):
        if g != g_prev:
            w = min(wp, p.bit_length())
            p, g_prev = p * _gap_power(gaps, known, g - g_prev, w) >> w, g
        yield g, c, nxt, p
        if p < cutoff and g > 0:
            return
        if count >= 100000:
            raise PrecisionError("theta sum failed to converge")


def _sum_block(kind: str, x: RealValue) -> RealValue:
    """Sum one primitive block at argument x, 0 < x < 1, at current mp.dps."""
    if kind in ("f_minus", "f_plus"):
        terms, cbound = _terms_f(kind.split("_")[1]), 2
    elif kind in ("phi_plus", "phi_minus"):
        terms, cbound = _terms_phi(kind.split("_")[1]), 2
    else:
        terms, cbound = _terms_psi(kind.split("_")[1]), 1

    xm = x.magnitude
    wp = mp.prec + _GUARD_BITS
    cutoff = _CUTOFFS.get(mp.prec)
    if cutoff is None:
        cutoff = _CUTOFFS[mp.prec] = to_fixed(mpf(10) ** (-(mp.dps - 3)), wp)
    # exact integers: sum c p and sum |c| g p in units of 2^-wp, sum |c| g
    # and sum |c| g^2
    total = weighted = g_sum = g2_sum = 0
    for g, c, nxt, p in _powers(terms, to_fixed(xm, wp), wp, cutoff):
        total += c * p
        cg = abs(c) * g
        weighted += cg * p
        g_sum += cg
        g2_sum += cg * g
    x_hi = x.abs_upper()
    # (x_hi / xm)^nxt bounds (xi / xm)^g for every xi in the ball and g <= nxt
    spread = radius_pow(radius_div(x_hi, xm), nxt)
    tail = radius_div(radius_mul(cbound, radius_pow(x_hi, nxt)), radius_sub(1, x_hi))
    # x^g <= p + 3 g 2^-wp, so (weighted + 3 g2_sum) 2^-wp / xm bounds the
    # sum of |c| g x^(g-1), which bounds dS/dx at xm
    propagated = radius_mul(radius_div(radius_fixed(weighted + 3 * g2_sum, wp), xm),
                            spread, x.error_bound)
    rounding = radius_fixed(3 * g_sum, wp)
    return fixed_ball(total, wp, radius_add(tail, propagated, rounding))


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
