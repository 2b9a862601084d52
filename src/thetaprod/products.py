"""Numeric evaluation of the two theta-quotient products a and b.

Both products live at the nome q = exp(-pi*sqrt(m/n)).  Each admits several
classically equivalent theta-block forms, and every form is one formula,

    n * q^((n-1)/4) * prod over its blocks B of (B(q^n) / B(q))^2,

over the blocks that FORMS lists for it.  a_numeric and b_numeric compute
all of a product's forms and insist they agree to target precision.  The
nome and the forms are computed in one compute_checked call, which widens
the working precision until every form meets the budget; a disagreement
left after that can only mean a transcription or evaluation bug, so it is
a hard error rather than a warning.  product_value is the single-form
evaluation at the current precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import block_value, nome_value
from .precision import (PrecisionSpec, RealValue, compute_checked, digits_agreed,
                        radius_div)

# product -> form -> its blocks, each (block kind, k) for B(x) = kind(x^k).
# An euler_quotient form is n / root^2 with root = q^(-(n-1)/8) F(q)/F(q^n),
# F the product of its f-blocks: the same formula.
FORMS = {
    "a": {"psi_phi_even": (("psi_plus", 1), ("phi_minus", 2)),
          "psi_phi_twisted": (("psi_minus", 1), ("phi_plus", 1)),
          "euler_quotient": (("f_plus", 1), ("f_minus", 2))},
    "b": {"psi_phi_odd": (("psi_plus", 1), ("phi_minus", 1)),
          "euler_quotient": (("f_minus", 1), ("f_minus", 2))},
}
A_FORMS = tuple(FORMS["a"])
B_FORMS = tuple(FORMS["b"])


class CrossFormError(ArithmeticError):
    """Two supposedly identical evaluation forms disagreed."""


@dataclass(frozen=True)
class ProductValue:
    m: Fraction
    n: Fraction
    which: str                    # "a" or "b"
    value: RealValue
    forms_checked: tuple[str, ...]


def _form_value(which: str, form: str, n: Fraction, q: RealValue) -> RealValue:
    qn = q.powf(n)
    quotient = RealValue.exact(1)
    for kind, k in FORMS[which][form]:
        quotient = quotient * block_value(kind, k, qn) / block_value(kind, k, q)
    return RealValue.from_fraction(n) * q.powf((n - 1) / 4) * quotient.powi(2)


def product_value(which: str, m, n) -> RealValue:
    """a(m, n) ("a") or b(m, n) ("b") from its first form, at the current
    mp.dps."""
    m, n = Fraction(m), Fraction(n)
    return _form_value(which, next(iter(FORMS[which])), n, nome_value(m / n))


def _evaluate(which: str, m, n, prec: PrecisionSpec) -> ProductValue:
    m, n = Fraction(m), Fraction(n)
    if m <= 0 or n <= 0:
        raise ValueError("product parameters must be positive")
    forms = tuple(FORMS[which])
    accepted = []       # the forms' values and agreement at the last attempt

    def build() -> RealValue:
        q = nome_value(m / n)
        values = [_form_value(which, form, n, q) for form in forms]
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
