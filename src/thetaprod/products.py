"""Numeric evaluation of the two theta-quotient products a and b.

Both products live at the nome q = exp(-pi*sqrt(m/n)).  Each admits several
classically equivalent theta-block forms, and every form is one formula,

    n * q^((n-1)/4) * prod over its blocks B of (B(q^n) / B(q))^2,

over the blocks that FORMS lists for it.  For n = a/b in lowest terms that
is n R^2, R = rho^((a-b)/8) prod B(rho^a) / B(rho^b) an eta quotient at the
root nome rho = q^(1/b), in which equal factors cancel (all of them at n = 1).
a_numeric and b_numeric evaluate all of a product's forms, at one nome and
in one compute_checked call that widens the working precision until every
form meets the budget, and insist they agree to target precision; a
disagreement left after that can only mean a transcription or evaluation
bug, so it is a hard error rather than a warning.  product_value is the
first form's value at the current precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import nome_value, quotient_values
from .precision import (PrecisionSpec, RealValue, compute_checked, digits_agreed,
                        radius_div)
from .quotient import EtaQuotient

# product -> form -> its blocks, each (block kind, k) for B(x) = kind(x^k)
FORMS = {
    "a": {"psi_phi_even": (("psi_plus", 1), ("phi_minus", 2)),
          "psi_phi_twisted": (("psi_minus", 1), ("phi_plus", 1)),
          "euler_quotient": (("f_plus", 1), ("f_minus", 2))},
    "b": {"psi_phi_odd": (("psi_plus", 1), ("phi_minus", 1)),
          "euler_quotient": (("f_minus", 1), ("f_minus", 2))},
}


class CrossFormError(ArithmeticError):
    """Two supposedly identical evaluation forms disagreed."""


@dataclass(frozen=True)
class ProductValue:
    m: Fraction
    n: Fraction
    which: str                    # "a" or "b"
    value: RealValue
    forms_checked: tuple[str, ...]


def _form_quotient(which: str, form: str, n: Fraction) -> EtaQuotient:
    """The root R of a form at n = a/b, an eta quotient at rho = q^(1/b)."""
    a, b = n.numerator, n.denominator
    exponents: dict[tuple[int, str], int] = {}
    for kind, k in FORMS[which][form]:
        for key, e in (((a * k, kind), 1), ((b * k, kind), -1)):
            exponents[key] = exponents.get(key, 0) + e
    return EtaQuotient.of(Fraction(a - b, 8),
                          [(k, kind, e) for (k, kind), e in exponents.items() if e])


def _evaluate_forms(which: str, forms, m: Fraction, n: Fraction) -> list[RealValue]:
    """The forms' values n R^2 at the current mp.dps."""
    roots = quotient_values([_form_quotient(which, form, n) for form in forms],
                            nome_value(m / (n * n.denominator ** 2)))
    scale = RealValue.from_fraction(n)
    return [scale * root.powi(2) for root in roots]


def product_value(which: str, m, n) -> RealValue:
    """a(m, n) ("a") or b(m, n) ("b") from its first form, at the current
    mp.dps."""
    return _evaluate_forms(which, tuple(FORMS[which])[:1], Fraction(m), Fraction(n))[0]


def _evaluate(which: str, m, n, prec: PrecisionSpec) -> ProductValue:
    m, n = Fraction(m), Fraction(n)
    if m <= 0 or n <= 0:
        raise ValueError("product parameters must be positive")
    forms = tuple(FORMS[which])
    accepted = []       # the forms' values and agreement at the last attempt

    def build() -> RealValue:
        values = _evaluate_forms(which, forms, m, n)
        agreement = min(digits_agreed(x, values[0]) for x in values[1:])
        accepted[:] = [values, agreement]
        # the form furthest from its budget decides whether to escalate, so
        # every form meets it on the accepted attempt
        return max(values, key=lambda v: radius_div(v.error_bound, v.magnitude))

    compute_checked(prec, build)
    values, agreement = accepted
    if agreement < prec.target_digits:
        raise CrossFormError(
            f"{which}({m},{n}) forms agree to only {agreement} digits "
            f"(target {prec.target_digits}); "
            + "; ".join(f"{f}={v.magnitude}" for f, v in zip(forms, values)))
    best = min(values, key=lambda v: v.error_bound)
    return ProductValue(m, n, which, best, forms)


def a_numeric(m, n, prec: PrecisionSpec) -> ProductValue:
    """The degree-n product a at parameter m, cross-checked across forms."""
    return _evaluate("a", m, n, prec)


def b_numeric(m, n, prec: PrecisionSpec) -> ProductValue:
    """The companion product b, cross-checked across its two forms."""
    return _evaluate("b", m, n, prec)
