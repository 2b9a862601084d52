"""High-precision numeric evaluation of the theta building blocks and of
eta quotients, with explicit truncation-tail accounting.

Every sparse series here has integer exponents g(n) that grow quadratically
and coefficients bounded by 2 in absolute value, so for 0 < x < 1 the tail
after the n-th retained term is at most  c * x^(g(n+1)) / (1 - x).  That
bound is added to the returned error estimate rather than assumed away.

A block is summed in fixed-point integers.  With u = 2^-wp, wp = mp.prec +
_GUARD_BITS, the midpoint of x becomes X = floor(x * 2^wp), and every term's
power and the running sum are integers in units of u.  No power is raised
from scratch: each stream (pentagonal, square or triangular exponents) has
an addition plan, built once and extended as longer sums need it, in which
every power is the product of two earlier entries,

    x^(a+b) = (A * B) >> w,    w = bit length of A,

with A = x^a in the entry's own units and B = x^b shifted down to units of
2^-w.  A term's power is, in order of preference, the previous term's
power times a gap power x^d already formed, the product of two earlier
terms' powers, or the previous term's power times a new gap power.  A gap
power (a helper) is formed from two earlier entries at the width of the
previous term's power and kept there; term powers never grow (one that
comes out above its predecessor is lowered to it, which keeps it a lower
bound short by less than its predecessor's shortfall), so a helper is
never needed wider than it was formed.  Each product costs about (width of
A) * (width of the result), so the product of the previous term and a gap
power is the cheapest one there is, and a product of two earlier terms
saves the helper.  For the first 200 terms the plans form 247 (f), 302
(phi) and 258 (psi) products, 1.24, 1.51 and 1.29 per term.

Every step floors, so every computed power is a lower bound, and by
induction on the steps (x < 1 throughout):
  - x^1 at width w is X shifted down, short by less than 2 = 3*1 - 1
    units of 2^-w;
  - a product of x^a and x^b short by less than 3a - 1 and 3b - 1 units,
    with A < 2^w and x^b <= 1, is short by less than (3a - 1) + (3b - 1) +
    1 = 3(a + b) - 1 units of A's scale, and a shift down leaves a
    shortfall s < 3d - 1 at less than s/2 + 1 <= 3d - 1.
The plan decides only which products are formed, not how each one rounds,
so the bound holds for every plan.  Each computed x^g is short by less than
3g u, and the exact integer sum of c * p is within 3 * sum |c| g * u of the
sum of c x^g: that is the rounding allowance, plus one rounding of the
midpoint to mp.prec.  It is charged against sum |c| g, not against the sum
itself, so it stays an enclosure when an alternating sum cancels far below
its terms, as f(-x), phi(-x) and psi(-x) do for x near 1.

The radius of the argument x enters by the mean-value theorem: over the
ball, the derivative of the partial sum is at most sum |c| g x^(g-1) *
(x_hi / x)^G, x_hi the ball's upper end and G the next exponent, where
sum |c| g x^g <= sum |c| g (p + 3g u).  The tail is bounded at x_hi,
cbound * x_hi^G / (1 - x_hi).  The bound is rounded upward to radius
precision (precision.RADIUS_BITS); only the sum is full width.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

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


class _Plan:
    """The addition plan of one term stream.  Entry 0 is x^0 and entry 1 is
    x^1; every later entry is the product of two earlier ones.  terms[n] is
    (g, entry, helpers, step) for the n-th term x^g: the helper steps (a, b)
    that form new gap powers, then the step (a, b) that forms x^g, or None
    when x^g is entry 0 or 1."""

    def __init__(self):
        self.terms: list[tuple] = []
        self.powers = {0: 0, 1: 1}      # term exponent -> entry, in units of u
        self.helpers: dict[int, int] = {}   # gap exponent -> entry
        self.prev = 0

    def _entry(self, e: int, steps: list) -> int:
        """The entry of x^e; a new one is a helper formed from the largest
        known a < e whose complement is known, else from the largest."""
        entry = self.helpers.get(e, self.powers.get(e))
        if entry is None:
            known = sorted(k for k in (*self.helpers, *self.powers) if 0 < k < e)
            a = next((a for a in reversed(known)
                      if e - a in self.helpers or e - a in self.powers), known[-1])
            steps.append((self._entry(max(a, e - a), steps),
                          self._entry(min(a, e - a), steps)))
            entry = self.helpers[e] = len(self.powers) + len(self.helpers)
        return entry

    def add(self, g: int) -> None:
        """Plan the stream's next term, x^g with g above every term so far."""
        helpers, step = [], None
        if g not in self.powers:
            gap = g - self.prev
            a = next((a for a in reversed(self.powers)
                      if 2 * a >= g and g - a in self.powers), None)
            if gap in self.helpers or gap in self.powers or a is None:
                step = self.powers[self.prev], self._entry(gap, helpers)
            else:
                step = self.powers[a], self.powers[g - a]
            self.powers[g] = len(self.powers) + len(self.helpers)
        self.prev = g
        self.terms.append((g, self.powers[g], tuple(helpers), step))


# plans by a stream's first three exponents: 0, 1, then 2 (pentagonal), 4
# (squares) or 3 (triangular numbers)
_PLANS: dict[tuple[int, ...], _Plan] = {}


def _powers(terms, x: int, wp: int, cutoff: int):
    """(g, c, nxt, p) for each term of a stream through the first one with
    g > 0 and p < cutoff, where p is x^g in units of 2^-wp and x is given in
    those units.  The powers follow the stream's addition plan, each product
    at the width its operands need."""
    terms = iter(terms)
    head = list(islice(terms, 3))
    plan = _PLANS.setdefault(tuple(g for g, _, _ in head), _Plan())
    steps = plan.terms
    vals, widths = [1 << wp, x], [wp, wp]     # every entry, and its units
    p = vals[0]
    for count, (g, c, nxt) in enumerate(chain(head, terms)):
        if count == len(steps):
            plan.add(g)
        planned, entry, helpers, step = steps[count]
        if planned != g:
            raise ValueError(f"term x^{g} does not follow the stream's addition plan")
        if helpers:
            v = min(wp, p.bit_length())
            for a, b in helpers:
                big = vals[a] >> (widths[a] - v)
                w = big.bit_length()
                vals.append(big * (vals[b] >> (widths[b] - w)) >> w)
                widths.append(v)
        if step is None:
            p = vals[entry]
        else:
            big = vals[step[0]]
            w = big.bit_length()
            term = big * (vals[step[1]] >> (widths[step[1]] - w)) >> w
            if term < p:
                p = term
            vals.append(p)
            widths.append(wp)
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


def quotient_values(exprs, q: RealValue) -> list[RealValue]:
    """Eta quotients at one q, 0 < q < 1, at the current mp.dps; the empty
    quotient is 1.  Each distinct block f(-q^k) or f(q^k), and each power q^k,
    is evaluated once for all of them; q^k is the square of q^(k/2) when
    that is needed too."""
    def block(f) -> tuple[str, int]:
        return "f_minus" if f.sign == "minus" else "f_plus", f.k

    blocks = dict.fromkeys(block(f) for expr in exprs for f in expr.factors)
    args: dict[int, RealValue] = {}
    for k in sorted({k for _, k in blocks}):
        args[k] = args[k // 2].powi(2) if k % 2 == 0 and k // 2 in args else q.powi(k)
    sums = {key: _sum_block(key[0], args[key[1]]) for key in blocks}
    out = []
    for expr in exprs:
        # q^q_power times the factors with positive exponents, divided once
        # by the product of the others
        top = q.powf(expr.q_power) if expr.q_power != 0 else RealValue.exact(1)
        bottom = None
        for f in expr.factors:
            power = sums[block(f)].powi(abs(f.exponent))
            if f.exponent > 0:
                top = top * power
            else:
                bottom = power if bottom is None else bottom * power
        out.append(top if bottom is None else top / bottom)
    return out


def quotient_value(expr: EtaQuotient, q: RealValue) -> RealValue:
    """An eta quotient at q, 0 < q < 1, at the current mp.dps; the empty
    quotient is 1."""
    return quotient_values([expr], q)[0]


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
