"""Class invariants g and G and their companion relations.

g(n) = 2^(-1/4) q^(-1/24) chi(-q) and G(n) = 2^(-1/4) q^(-1/24) chi(q) at
q = exp(-pi sqrt(n)), for positive rational n.  Known closed forms come from
the registry; solve_companion derives one invariant from another through a
classical modular relation, and quad4_36_value one invariant product from
another, which is how values at awkward rational arguments are reached.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .blocks import block_value, nome_value
from .precision import (PrecisionError, PrecisionSpec, RealValue, compute_checked,
                        radius_add, radius_div, radius_mul)
from .radicals import CorollaryRecord, load_builtin_registry, registry_find

COMPANIONS = ("triple3", "deg13")


class RootSelectionError(ArithmeticError):
    """Root finding failed or landed away from the bootstrap value."""

    def __init__(self, message: str, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


@dataclass(frozen=True)
class InvariantValue:
    kind: str                 # "g" or "G"
    n: Fraction
    value: RealValue


def invariant_value(kind: str, n: Fraction) -> RealValue:
    """g(n) ("g") or G(n) ("G") at the current mp.dps; n a positive Fraction."""
    block = "chi_minus" if kind == "g" else "chi_plus"
    q = nome_value(n)
    scale = RealValue.exact(2).powf(Fraction(-1, 4))
    return scale * q.powf(Fraction(-1, 24)) * block_value(block, 1, q)


def _invariant(kind: str, n, prec: PrecisionSpec) -> InvariantValue:
    n = Fraction(n)
    if n <= 0:
        raise ValueError("invariant argument must be positive")
    return InvariantValue(kind, n, compute_checked(prec, lambda: invariant_value(kind, n)))


def g_numeric(n, prec: PrecisionSpec) -> InvariantValue:
    return _invariant("g", n, prec)


def G_numeric(n, prec: PrecisionSpec) -> InvariantValue:
    return _invariant("G", n, prec)


def quad4_36_value(a: RealValue) -> RealValue:
    """g(4n) g(36n) from a = g(n) g(9n) at the current mp.dps: the single
    positive root in B^2 of B^4 - 2 A^4 B^2 - 2 A^2 = 0."""
    inner = (a.powi(8) + RealValue.exact(2) * a.powi(2)).sqrt()
    return (a.powi(4) + inner).sqrt()


def registry_lookup(kind: str, n, records=None) -> CorollaryRecord | None:
    """Closed form for a single invariant, or None; only g values are
    tabulated, so every G lookup is a miss."""
    if kind not in ("g", "G"):
        raise ValueError("invariant kind must be 'g' or 'G'")
    if kind == "G":
        return None
    if records is None:
        records = load_builtin_registry()
    return registry_find(records, "g", Fraction(n))


# ---------------------------------------------------------------------------
# companion relations
# ---------------------------------------------------------------------------

def _companion_leg(relation: str, n: Fraction) -> Fraction:
    if relation == "triple3":
        return n / 3
    if relation == "deg13":
        return n / 13
    raise AssertionError(relation)


def _companion_equation(relation: str):
    """F(u, k) over balls, zero where u is the target leg and k the known one."""
    two, six, eight, twenty = (RealValue.exact(c) for c in (2, 6, 8, 20))
    if relation == "triple3":
        # 2 sqrt(2) (X^3 + X^-3) = r^6 - r^-6 with X = K u, r = K / u
        def f(u, k):
            x3, r6 = (k * u).powi(3), (k / u).powi(6)
            return two * two.sqrt() * (x3 + x3.powi(-1)) - (r6 - r6.powi(-1))
        return f
    if relation == "deg13":
        # 8 (X^6 + X^-6) = w^7 - 6 w^5 + w^3 + 20 w with w = r - 1/r
        def f(u, k):
            x6, w = (k * u).powi(6), k / u - u / k
            return (eight * (x6 + x6.powi(-1))
                    - (w.powi(7) - six * w.powi(5) + w.powi(3) + twenty * w))
        return f
    raise AssertionError(relation)


def solve_companion(relation: str, known: RealValue, n, prec: PrecisionSpec) -> RealValue:
    """Derive the companion invariant leg from a known one.

    triple3:   known g(3n), returns g(n/3)   [degree-3 relation]
    deg13:     known g(13n), returns g(n/13) [degree-13 relation]

    The correct branch is selected by a 20-digit definitional bootstrap of
    the target leg, then polished on the companion equation itself at
    working precision.  The returned ball is an enclosure: the equation,
    evaluated in ball arithmetic over the known leg's ball, takes strictly
    opposite signs at its two ends.
    """
    if relation not in COMPANIONS:
        raise ValueError(f"unknown companion relation {relation!r}; "
                         f"expected one of {COMPANIONS}")
    n = Fraction(n)
    if n <= 0:
        raise ValueError("companion parameter must be positive")

    seed = g_numeric(_companion_leg(relation, n), PrecisionSpec.of(20)).value
    equation = _companion_equation(relation)

    def at(u) -> RealValue:
        return equation(RealValue.exact(u), known)

    def build():
        try:
            root = mp.findroot(lambda u: at(u).magnitude, seed.magnitude)
        except (ValueError, ZeroDivisionError) as exc:
            raise RootSelectionError(f"findroot failed for {relation}: {exc}",
                                     [seed.magnitude])
        if mp.im(root) != 0:
            raise RootSelectionError(f"{relation} produced a complex root {root}",
                                     [root, seed.magnitude])
        root = mp.re(root)
        if not root > 0 or abs(root - seed.magnitude) > abs(seed.magnitude) * mp.mpf("1e-12"):
            raise RootSelectionError(
                f"{relation} root {root} strayed from bootstrap {seed.magnitude}",
                [root, seed.magnitude])
        fu = mp.diff(lambda u: at(u).magnitude, root)
        if fu == 0:
            raise RootSelectionError(f"{relation} root is degenerate", [root])
        # twice the Newton step |F| / |F_u|, with F's radius over the ball of
        # k added to |F|; F of strictly opposite signs at the two ends, for
        # every k in that ball, encloses the root
        residual = at(root)
        r = radius_mul(2, radius_div(radius_add(residual.magnitude, residual.error_bound), fu))
        low, high = (at(mp.fadd(root, s * r, exact=True)) for s in (-1, 1))
        if not (low.abs_lower() > 0 and high.abs_lower() > 0
                and low.magnitude * high.magnitude < 0):
            raise PrecisionError(f"{relation} root {root} not bracketed by +- {r}")
        return RealValue(root, r)

    return compute_checked(prec, build)
