"""Numeric evaluation of the two theta-quotient products a and b.

Both products live at the nome q = exp(-pi*sqrt(m/n)).  Each admits several
classically equivalent theta-block forms; every public evaluation computes
all applicable forms and insists they agree to target precision.  A
disagreement can only mean a transcription or evaluation bug, so it is a
hard error rather than a warning.

Form labels:
  psi_phi_even     n * q^((n-1)/4) * psi^2(q^n) phi^2(-q^2n) / (psi^2(q) phi^2(-q^2))
  psi_phi_twisted  n * q^((n-1)/4) * psi^2(-q^n) phi^2(q^n) / (psi^2(-q) phi^2(q))
  psi_phi_odd      n * q^((n-1)/4) * psi^2(q^n) phi^2(-q^n) / (psi^2(q) phi^2(-q))
  euler_quotient   via sqrt(n/value) as a quotient of f-blocks
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import workdps

from .blocks import block_value, nome
from .precision import PrecisionSpec, RealValue, digits_agreed

A_FORMS = ("psi_phi_even", "psi_phi_twisted", "euler_quotient")
B_FORMS = ("psi_phi_odd", "euler_quotient")


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
    prefactor = RealValue.from_fraction(n) * q.powf((n - 1) / 4)
    if form == "psi_phi_even":
        num = block_value("psi_plus", 1, qn).powi(2) * block_value("phi_minus", 2, qn).powi(2)
        den = block_value("psi_plus", 1, q).powi(2) * block_value("phi_minus", 2, q).powi(2)
        return prefactor * num / den
    if form == "psi_phi_twisted":
        num = block_value("psi_minus", 1, qn).powi(2) * block_value("phi_plus", 1, qn).powi(2)
        den = block_value("psi_minus", 1, q).powi(2) * block_value("phi_plus", 1, q).powi(2)
        return prefactor * num / den
    if form == "psi_phi_odd":
        num = block_value("psi_plus", 1, qn).powi(2) * block_value("phi_minus", 1, qn).powi(2)
        den = block_value("psi_plus", 1, q).powi(2) * block_value("phi_minus", 1, q).powi(2)
        return prefactor * num / den
    if form == "euler_quotient":
        # sqrt(n/value) expressed through f-blocks; value = n / (quotient)^2
        shift = q.powf((n - 1) / 8)
        if which == "a":
            num = block_value("f_plus", 1, q) * block_value("f_minus", 2, q)
            den = shift * block_value("f_plus", 1, qn) * block_value("f_minus", 2, qn)
        else:
            num = block_value("f_minus", 1, q) * block_value("f_minus", 2, q)
            den = shift * block_value("f_minus", 1, qn) * block_value("f_minus", 2, qn)
        root = num / den
        return RealValue.from_fraction(n) / root.powi(2)
    raise ValueError(f"unknown form {form!r}")


def _evaluate(which: str, m, n, prec: PrecisionSpec) -> ProductValue:
    m, n = Fraction(m), Fraction(n)
    if m <= 0 or n <= 0:
        raise ValueError("product parameters must be positive")
    forms = A_FORMS if which == "a" else B_FORMS
    q = nome(m, n, prec).q
    with workdps(prec.working_digits):
        values = [_form_value(which, form, n, q) for form in forms]
        agreement = min(digits_agreed(x, values[0]) for x in values[1:])
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
