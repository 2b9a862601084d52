"""Class invariants g and G and their companion relations.

g(n) = 2^(-1/4) q^(-1/24) chi(-q) and G(n) = 2^(-1/4) q^(-1/24) chi(q) at
q = exp(-pi sqrt(n)), for positive rational n.  Known closed forms come from
the registry; solve_companion derives one invariant (or invariant product)
from another through a classical modular relation, which is how values at
awkward rational arguments are reached.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, workdps

from .blocks import block_value, nome_value
from .precision import PrecisionSpec, RealValue, compute_checked
from .radicals import CorollaryRecord, load_builtin_registry, registry_find

COMPANIONS = ("triple3", "quad4_36", "deg13")


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


def _invariant(kind: str, n, prec: PrecisionSpec) -> InvariantValue:
    n = Fraction(n)
    if n <= 0:
        raise ValueError("invariant argument must be positive")
    block = "chi_minus" if kind == "g" else "chi_plus"

    def build():
        q = nome_value(n)
        scale = RealValue.exact(2).powf(Fraction(-1, 4))
        return scale * q.powf(Fraction(-1, 24)) * block_value(block, 1, q)

    return InvariantValue(kind, n, compute_checked(prec, build))


def g_numeric(n, prec: PrecisionSpec) -> InvariantValue:
    return _invariant("g", n, prec)


def G_numeric(n, prec: PrecisionSpec) -> InvariantValue:
    return _invariant("G", n, prec)


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
    if relation == "triple3":
        # 2 sqrt(2) (X^3 + X^-3) = r^6 - r^-6 with X = K u, r = K / u
        def f(u, k):
            x3 = (k * u) ** 3
            r6 = (k / u) ** 6
            return 2 * mp.sqrt(2) * (x3 + 1 / x3) - (r6 - 1 / r6)
        return f
    if relation == "deg13":
        # 8 (X^6 + X^-6) = w^7 - 6 w^5 + w^3 + 20 w with w = r - 1/r
        def f(u, k):
            x6 = (k * u) ** 6
            w = k / u - u / k
            return 8 * (x6 + 1 / x6) - (w ** 7 - 6 * w ** 5 + w ** 3 + 20 * w)
        return f
    raise AssertionError(relation)


def solve_companion(relation: str, known: RealValue, n, prec: PrecisionSpec) -> RealValue:
    """Derive the companion invariant leg from a known one.

    triple3:   known g(3n), returns g(n/3)   [degree-3 relation]
    deg13:     known g(13n), returns g(n/13) [degree-13 relation]
    quad4_36:  known the product g(n) g(9n), returns g(4n) g(36n)

    For the two root-finding relations the correct branch is selected by a
    20-digit definitional bootstrap of the target leg, then polished on the
    companion equation itself at working precision.
    """
    if relation not in COMPANIONS:
        raise ValueError(f"unknown companion relation {relation!r}; "
                         f"expected one of {COMPANIONS}")
    n = Fraction(n)
    if n <= 0:
        raise ValueError("companion parameter must be positive")

    if relation == "quad4_36":
        # B^4 - 2 A^4 B^2 - 2 A^2 = 0 has a single positive root in B^2
        def build():
            a = known
            inner = (a.powi(8) + RealValue.exact(2) * a.powi(2)).sqrt()
            return (a.powi(4) + inner).sqrt()
        return compute_checked(prec, build)

    seed = g_numeric(_companion_leg(relation, n), PrecisionSpec.of(20)).value
    equation = _companion_equation(relation)

    def build():
        k = known.magnitude
        try:
            root = mp.findroot(lambda u: equation(u, k), seed.magnitude)
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
        fu = mp.diff(lambda u: equation(u, k), root)
        fk = mp.diff(lambda t: equation(root, t), k)
        if fu == 0:
            raise RootSelectionError(f"{relation} root is degenerate", [root])
        err = (abs(equation(root, k) / fu)
               + abs(fk / fu) * known.error_bound
               + abs(root) * mp.mpf(10) ** (2 - mp.dps))
        return RealValue(root, err)

    return compute_checked(prec, build)
