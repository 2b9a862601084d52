"""Dual verification of catalogued identities.

Each identity is checked two ways: numerically, by evaluating both eta
quotients at a probe q and substituting into the cleared relation polynomial;
and exactly, by expanding both quotients as Laurent series on the 1/24
lattice and asserting every coefficient cancels up to a sound order.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, workdps

from .blocks import block_value, nome, quotient_value
from .catalogue import IdentityRecord
from .precision import PrecisionSpec, RealValue
from .series import PowerSeries, SeriesCheck, mul, pow_int, scalar_mul

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


def _power_table(base, top: int, times) -> dict:
    """base^1 .. base^top, each formed from the one before by times()."""
    table = {1: base}
    for i in range(2, top + 1):
        table[i] = times(table[i - 1], base)
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


def verify_numeric(rec: IdentityRecord, q, prec: PrecisionSpec) -> Residual:
    """Evaluate the cleared relation at probe q; residual is scaled by the
    largest monomial so tolerance is meaningful across all records."""
    if prec.target_digits < 40:
        raise ValueError("numeric verification requires target_digits >= 40")
    q = probe_value(q, prec)
    if not (0 < q.magnitude < 1):
        raise ValueError("probe must satisfy 0 < q < 1")
    with workdps(prec.working_digits):
        monomials = sorted(rec.relation_poly.terms.items())
        p_pows = _power_table(quotient_value(rec.p_expr, q),
                              max(i for (i, _), _ in monomials), operator.mul)
        q_pows = _power_table(quotient_value(rec.q_expr, q),
                              max(j for (_, j), _ in monomials), operator.mul)
        terms = []
        for (i, j), c in monomials:
            term = RealValue.from_fraction(c)
            if i:
                term = term * p_pows[i]
            if j:
                term = term * q_pows[j]
            terms.append(term)
        residual = normalized_residual(terms)
    return Residual.of(residual, default_tolerance(prec))


# ---------------------------------------------------------------------------
# exact-series check
# ---------------------------------------------------------------------------

def verify_series(rec: IdentityRecord, order: int) -> SeriesCheck:
    """Expand the cleared relation to the requested lattice order; every
    coefficient must cancel exactly.  Returns the first surviving exponent
    on failure.

    Input orders are chosen so each monomial P^i Q^j is sound at `order`:
    a product's sound order is its factor's order plus the other factor's
    leading exponent, so P must be built to order - (i-1)*lead(P) - j*lead(Q)
    for the worst monomial, and symmetrically for Q.
    """
    if order < 24:
        raise ValueError("series verification requires order >= 24")
    lp = rec.p_expr.lattice_shift
    lq = rec.q_expr.lattice_shift
    monomials = sorted(rec.relation_poly.terms.items())
    need_p = [order - (i - 1) * lp - j * lq for (i, j), _ in monomials if i >= 1]
    need_q = [order - (j - 1) * lq - i * lp for (i, j), _ in monomials if j >= 1]
    p_top = max((i for (i, _), _ in monomials), default=0)
    q_top = max((j for (_, j), _ in monomials), default=0)

    p_pows = _power_table(rec.p_expr.to_series(max(need_p)), p_top, mul) if need_p else {}
    q_pows = _power_table(rec.q_expr.to_series(max(need_q)), q_top, mul) if need_q else {}

    acc = PowerSeries.zero(order)
    for (i, j), c in monomials:
        if i and j:
            term = mul(p_pows[i], q_pows[j])
        elif i:
            term = p_pows[i]
        elif j:
            term = q_pows[j]
        else:
            term = PowerSeries.from_terms({0: Fraction(1)}, order)
        acc = acc + scalar_mul(c, term)
    if acc.order < order:
        raise AssertionError("internal: accumulated order fell below request")

    bad = [e for e, c in acc.coeffs.items() if c and e <= order]
    if bad:
        return SeriesCheck(False, min(bad))
    return SeriesCheck(True, None)


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
        phi_p1 = block_value("phi_plus", 1, q)
        phi_m1 = block_value("phi_minus", 1, q)
        phi_p13 = block_value("phi_plus", 13, q)
        phi_m13 = block_value("phi_minus", 13, q)
        alpha = one - (phi_m1 / phi_p1).powi(4)
        beta = one - (phi_m13 / phi_p13).powi(4)
        mult = (phi_p1 / phi_p13).powi(2)

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
