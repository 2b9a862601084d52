"""Dual verification of catalogued identities.

Each identity is checked two ways: numerically, by evaluating both eta
quotients at a probe q and substituting into the cleared relation polynomial;
and exactly, by expanding both quotients as Laurent series on the 1/24
lattice and asserting every coefficient cancels up to a sound order.  The
exact check sums the relation's monomials in Z[x]/(x^n) packed into one
integer modulo 2^(W n), with W a proved bound on the residual's
coefficients, so that it needs no rational arithmetic after the expansion.

The numeric check evaluates P and Q as balls, each distinct theta block
once per probe, and then the relation in fixed point.  The coefficients are
scaled to integers C by the lcm of their denominators (the scale cancels
in the end).  The midpoints become P = X 2^(e_P - wp) with x_P = X 2^-wp in
[1/2, 1), likewise Q, and T_i, x_P^i in units of 2^-wp, is formed by
flooring products stepped by the gcd of the exponents in use: short by
less than 3i units, as in blocks.py.  x_P^i >= 2^-i, so adding the degree
to wp keeps every bit.  The monomials are summed exactly: each row sum of
C T_j 2^(j e_Q) over j is one integer, times T_i once per distinct i.  As
x_P^i, x_Q^j <= 1, T_i T_j is short of x_P^i x_Q^j 2^(2 wp) by less than
3(i + j) 2^wp, so the radius is sum |C| 3(i + j) 2^(i e_P + j e_Q - wp) for
the floors, plus the radii of P and Q carried through each monomial,
|C| |P|^i |Q|^j expm1(i d_P + j d_Q) with d the relative radii, at radius
precision; no bound is a difference of nearly equal numbers.  One ball
division by the largest monomial normalizes the residual.  The numeric
check never touches the packed ring or series.pack, so that no single bug
in it can make both checks pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, log2
from typing import NamedTuple

from mpmath import mp, mpf, workdps
from mpmath.libmp import from_int, from_man_exp, from_rational, mpf_mul, mpf_pow_int

from .blocks import nome, quotient_values
from .catalogue import IdentityRecord
from .precision import (PrecisionSpec, RealValue, fixed_ball, radius_add, radius_div,
                        radius_expm1, radius_fixed, radius_mul, radius_pow, to_mantissa)
from .quotient import EtaQuotient
from .series import SeriesCheck, pack

PROBE_FRACTIONS = (Fraction(1, 100), Fraction(1, 20),
                   Fraction(1, 10), Fraction(1, 5))


@dataclass(frozen=True)
class Residual:
    value: RealValue
    tolerance: mpf
    verdict: str        # "pass" or "fail"

    @staticmethod
    def of(value: RealValue, tolerance) -> Residual:
        bad = abs(value.magnitude) + value.error_bound > tolerance
        return Residual(value, mpf(tolerance), "fail" if bad else "pass")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def default_tolerance(prec: PrecisionSpec) -> mpf:
    return mpf(10) ** (-(prec.target_digits - 15))


def probe_value(q, prec: PrecisionSpec) -> RealValue:
    """Normalize a probe to a RealValue resolved beyond working precision."""
    if isinstance(q, RealValue):
        return q
    with workdps(prec.working_digits + 20):
        return RealValue.from_fraction(Fraction(q))


def default_probes(rec: IdentityRecord, prec: PrecisionSpec):
    """The fixed probe set plus the record's natural nome, labeled."""
    probes = [(f"q={float(fr)}", probe_value(fr, prec)) for fr in PROBE_FRACTIONS]
    idx = rec.natural_nome_index()
    probes.append((f"q=nome(1,{idx})", nome(1, idx, prec).q))
    return probes


def _stepped_powers(base, used: list[int], one, times) -> dict:
    """{0: one} and base^k for k = d, 2d, ... up to max(used), d the gcd of
    the exponents used: base^d by square-and-multiply, then each power from
    the one before, every product formed by times()."""
    table = {0: one}
    if any(used):
        d = e = gcd(*used)
        power = None
        while e:        # power = base^d
            if e & 1:
                power = base if power is None else times(power, base)
            e >>= 1
            if e:
                base = times(base, base)
        table[d] = power
        for k in range(2 * d, max(used) + 1, d):
            table[k] = times(table[k - d], power)
    return table


# ---------------------------------------------------------------------------
# numeric check
# ---------------------------------------------------------------------------

def normalized_residual(terms: list[RealValue]) -> RealValue:
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    largest = max(terms, key=lambda t: abs(t.magnitude))
    return abs(total) / abs(largest)


# a relation is summed in units of 2^-(mp.prec + _GUARD_BITS + its degree)
_GUARD_BITS = 10


def _fixed_powers(x: int, used: list[int], wp: int) -> dict[int, int]:
    """x^k in units of 2^-wp for x given in those units, each product
    floored: the stepped table of _stepped_powers."""
    return _stepped_powers(x, used, 1 << wp, lambda a, b: a * b >> wp)


def _fixed_residual(poly: dict[tuple[int, int], Fraction], p: RealValue,
                    q: RealValue) -> RealValue:
    """sum c P^i Q^j over the relation, divided by its largest monomial, for
    balls P and Q with positive midpoints, in fixed point (see the module
    docstring)."""
    scale = lcm(*(c.denominator for c in poly.values()))
    monomials = [(i, j, c.numerator * (scale // c.denominator))
                 for (i, j), c in sorted(poly.items())]
    wp = mp.prec + _GUARD_BITS + max(i + j for i, j, _ in monomials)
    (xp, ep), (xq, eq) = to_mantissa(p.magnitude, wp), to_mantissa(q.magnitude, wp)

    tp = _fixed_powers(xp, [i for i, _, _ in monomials], wp)
    tq = _fixed_powers(xq, [j for _, j, _ in monomials], wp)
    # monomial (i, j, C) is C tp[i] tq[j] 2^(shift - 2 wp)
    shifts = [i * ep + j * eq for i, j, _ in monomials]
    low = min(shifts)
    rows: dict[int, int] = {}
    row_low: dict[int, int] = {}
    for (i, j, c), s in zip(monomials, shifts):
        row_low[i] = min(row_low.get(i, s), s)
    for (i, j, c), s in zip(monomials, shifts):
        rows[i] = rows.get(i, 0) + (c * tq[j] << (s - row_low[i]))
    total = sum(tp[i] * row << (row_low[i] - low) for i, row in rows.items())

    def bounds(v: RealValue, used) -> dict:
        """|v|^e and e times the relative radius of v, for each e used."""
        size, rel = radius_add(v.magnitude), radius_div(v.error_bound, v.magnitude)
        return {e: (radius_pow(size, e), radius_mul(e, rel)) for e in used}

    bp, bq = bounds(p, rows), bounds(q, {j for _, j, _ in monomials})
    carried = [radius_mul(c, bp[i][0], bq[j][0], radius_expm1(radius_add(bp[i][1], bq[j][1])))
               for i, j, c in monomials]
    # the floor shortfall of monomial (i, j, C) in units of 2^(i e_P + j e_Q - wp)
    shortfall = [abs(c) * 3 * (i + j) for i, j, c in monomials]
    value = fixed_ball(total, 2 * wp - low, radius_add(
        radius_fixed(sum(r << (s - low) for r, s in zip(shortfall, shifts)), wp - low),
        *carried))
    # the largest monomial by its logarithm
    lp, lq = log2(xp) - wp + ep, log2(xq) - wp + eq
    k = max(range(len(monomials)),
            key=lambda k: log2(abs(monomials[k][2])) + monomials[k][0] * lp
            + monomials[k][1] * lq)
    (i, j, c), s = monomials[k], shifts[k]
    largest = fixed_ball(c * tp[i] * tq[j], 2 * wp - s,
                         radius_add(radius_fixed(shortfall[k], wp - s), carried[k]))
    return abs(value) / abs(largest)


def verify_numeric(rec: IdentityRecord, q, prec: PrecisionSpec) -> Residual:
    """Evaluate the cleared relation at probe q in fixed point (see
    _fixed_residual); residual is scaled by the largest monomial so
    tolerance is meaningful across all records."""
    if prec.target_digits < 40:
        raise ValueError("numeric verification requires target_digits >= 40")
    q = probe_value(q, prec)
    if not (0 < q.magnitude < 1):
        raise ValueError("probe must satisfy 0 < q < 1")
    with workdps(prec.working_digits):
        p_value, q_value = quotient_values((rec.p_expr, rec.q_expr), q)
        residual = _fixed_residual(rec.relation_poly.terms, p_value, q_value)
    return Residual.of(residual, default_tolerance(prec))


# ---------------------------------------------------------------------------
# exact-series check
# ---------------------------------------------------------------------------

class _Ring(NamedTuple):
    """The cleared relation in Z[x]/(x^slots), where slot k stands for the
    lattice exponent lead + step*k, packed at x = 2^(8*width)."""
    lead: int     # smallest monomial shift i*lead(P) + j*lead(Q)
    step: int
    slots: int
    width: int
    p: dict[int, int]   # slot -> coefficient of U = q^-lead(P) P
    q: dict[int, int]   # and of V = q^-lead(Q) Q
    terms: list[tuple[int, int, int, int]]   # (i, j, integer coefficient, slot shift)


def _integral_slots(coeffs: dict[int, Fraction], lead: int, step: int,
                    length: int) -> dict[int, int]:
    """The coefficients at lead + step*k, k < length, keyed by k."""
    out = {}
    for e, c in coeffs.items():
        k = (e - lead) // step
        if k < length:
            if c.denominator != 1:
                raise ValueError(f"coefficient {c} at lattice exponent {e} is not an integer")
            out[k] = c.numerator
    return out


def _majorant(sizes: list[int], t: int) -> tuple:
    """sum s_k r^k at r = 1 - 2^-t, for s_k = sizes[k] >= 0, by Horner's rule
    in fixed point with 64 fraction bits, each step rounded up; a raw mpf
    rounded up to 64 bits."""
    acc, shrink = 0, (1 << t) - 1
    for s in reversed(sizes):
        acc = -(-acc * shrink >> t) + (s << 64)
    return from_man_exp(acc, -64, 64, "u")


def _slot_width(terms, p: dict[int, int], q: dict[int, int], slots: int) -> int:
    """Bytes per slot such that every residual coefficient below x^slots is
    less than 2^(8*width) in absolute value.

    Cauchy's bound: for 0 < r <= 1 every coefficient at slot k <= K of
    U^i V^j is at most |U|(r)^i |V|(r)^j r^-K, where |S|(r) is the sum of
    |s_k| r^k.  A monomial shifted by d slots is read up to K = slots-1-d.
    Each monomial takes the best r = 1 - 2^-t, t = 2..6, and the sum over
    the monomials adds ceil(log2(#monomials)) bits.  The same bound covers
    every coefficient of U and V that gets packed, since |U|(r), |V|(r) >= 1
    and each is packed only on the slots some monomial reads.  The bounds
    are raw mpfs with 64-bit mantissas, every operation rounded up."""
    sizes = [[abs(s.get(k, 0)) for k in range(max(s, default=-1) + 1)] for s in (p, q)]
    radii = [(_majorant(sizes[0], t), _majorant(sizes[1], t),
              from_rational(1 << t, (1 << t) - 1, 64, "u"))    # 1/r
             for t in range(2, 7)]

    power = cache(lambda base, k: mpf_pow_int(base, k, 64, "u"))

    def bits(i: int, j: int, c: int, shift: int, bases) -> int:
        bound = from_int(abs(c))
        for base, k in zip(bases, (i, j, slots - 1 - shift)):
            bound = mpf_mul(bound, power(base, k), 64, "u")
        _, _, exp, bc = bound
        return exp + bc     # bound < 2^(exp + bc)

    worst = max((min(bits(*term, r) for r in radii) for term in terms), default=0)
    return -(-(worst + (len(terms) - 1).bit_length()) // 8)


def _ring(rec: IdentityRecord, order: int) -> _Ring:
    """Lay out the relation to `order`.  P and Q are built to the orders at
    which every monomial P^i Q^j is sound: a product's sound order is its
    factor's order plus the other factor's leading exponent."""
    lp = rec.p_expr.lattice_shift
    lq = rec.q_expr.lattice_shift
    monomials = sorted(rec.relation_poly.terms.items())
    need_p = [order - (i - 1) * lp - j * lq for (i, j), _ in monomials if i >= 1]
    need_q = [order - (j - 1) * lq - i * lp for (i, j), _ in monomials if j >= 1]
    p = rec.p_expr.to_series(max(need_p)).coeffs if need_p else {}
    q = rec.q_expr.to_series(max(need_q)).coeffs if need_q else {}

    shifts = [i * lp + j * lq for (i, j), _ in monomials]
    lead = min(shifts)
    step = gcd(*(e - lp for e in p), *(e - lq for e in q),
               *(s - lead for s in shifts)) or 1
    slots = max((order - lead) // step + 1, 0)
    scale = lcm(*(c.denominator for _, c in monomials))
    terms = [(i, j, c.numerator * (scale // c.denominator), (s - lead) // step)
             for ((i, j), c), s in zip(monomials, shifts) if s <= order]
    # P and Q only on the slots some monomial reads
    p_slots = _integral_slots(p, lp, step, slots - min(
        (d for i, _, _, d in terms if i), default=slots))
    q_slots = _integral_slots(q, lq, step, slots - min(
        (d for _, j, _, d in terms if j), default=slots))
    return _Ring(lead, step, slots, _slot_width(terms, p_slots, q_slots, slots),
                 p_slots, q_slots, terms)


def verify_series(rec: IdentityRecord, order: int) -> SeriesCheck:
    """Expand the cleared relation to the requested lattice order; every
    coefficient must cancel exactly.  Returns the first surviving exponent
    on failure.

    U = q^-lead(P) P and V = q^-lead(Q) Q are eta quotients with lead
    coefficient 1, so their coefficients are integers, and the relation's
    coefficients are scaled to integers by the lcm of their denominators.
    The residual, the sum of c x^d U^i V^j over the monomials, is evaluated
    in Z[x]/(x^n): x stands for q^(step/24), d places each monomial's
    q-prefix, and the n slots reach `order`.  Substituting x = 2^W is a ring
    homomorphism from Z[x]/(x^n) onto the integers modulo 2^(W n), so each
    truncated product is one big-int multiply and one mask, and nothing is
    read back until the end.  W is a proved bound (see `_slot_width`):
    every residual coefficient below x^n is less than 2^W in absolute value.
    So the packed residual is 0 exactly when the residual vanishes to
    `order`, and otherwise its lowest set bit lies in the slot of the first
    nonzero coefficient.
    """
    if order < 24:
        raise ValueError("series verification requires order >= 24")
    ring = _ring(rec, order)
    bits = 8 * ring.width
    mask = (1 << bits * ring.slots) - 1

    def times(a: int, b: int) -> int:
        return a * b & mask

    # the relations use only multiples of the gcd of their exponents
    p_pows = _stepped_powers(pack(ring.p, ring.width, ring.slots),
                             [i for i, _, _, _ in ring.terms], 1, times)
    q_pows = _stepped_powers(pack(ring.q, ring.width, ring.slots),
                             [j for _, j, _, _ in ring.terms], 1, times)
    rows: dict[int, int] = {}    # i -> sum over j of c x^shift V^j
    for i, j, c, shift in ring.terms:
        rows[i] = rows.get(i, 0) + (c * q_pows[j] << bits * shift)
    residual = sum(p_pows[i] * (row & mask) for i, row in rows.items()) & mask
    if not residual:
        return SeriesCheck(True, None)
    lowest = (residual & -residual).bit_length() - 1
    return SeriesCheck(False, ring.lead + ring.step * (lowest // bits))


# ---------------------------------------------------------------------------
# the degree-13 multiplier system
# ---------------------------------------------------------------------------

def verify_multiplier13(q, prec: PrecisionSpec) -> Residual:
    """Check the two displayed multiplier equations connecting the moduli
    attached to q and q^13:

        m    = (B/A)^(1/4) + ((1-B)/(1-A))^(1/4)
               - (B(1-B)/(A(1-A)))^(1/4) - 4*(B(1-B)/(A(1-A)))^(1/6)
        13/m = the same expression with A and B exchanged

    where A = 1 - (phi(-q)/phi(q))^4, B likewise at q^13, and
    m = phi(q)^2 / phi(q^13)^2.  Returns the worse of the two normalized
    residuals; forming 1 - (ratio)^4 costs about 16 digits of cancellation
    at small q, which the working guard digits absorb.
    """
    q = probe_value(q, prec)
    if not (0 < q.magnitude < 1):
        raise ValueError("probe must satisfy 0 < q < 1")
    quarter, sixth = Fraction(1, 4), Fraction(1, 6)
    one = RealValue.exact(1)
    with workdps(prec.working_digits):
        # (phi(-q)/phi(q))^4, the same at q^13, and m
        ratio1, ratio13, mult = quotient_values([EtaQuotient.of(0, factors) for factors in (
            [(1, "phi_minus", 4), (1, "phi_plus", -4)],
            [(13, "phi_minus", 4), (13, "phi_plus", -4)],
            [(1, "phi_plus", 2), (13, "phi_plus", -2)])], q)
        alpha, beta = one - ratio1, one - ratio13

        def side(lhs: RealValue, top: RealValue, bot: RealValue) -> RealValue:
            mixed = (top * (one - top)) / (bot * (one - bot))
            terms = [lhs,
                     -(top / bot).powf(quarter),
                     -((one - top) / (one - bot)).powf(quarter),
                     mixed.powf(quarter),
                     RealValue.exact(4) * mixed.powf(sixth)]
            return normalized_residual(terms)

        r1 = side(mult, beta, alpha)
        r2 = side(RealValue.exact(13) / mult, alpha, beta)
        worst = r1 if r1.magnitude >= r2.magnitude else r2
    return Residual.of(worst, default_tolerance(prec))
