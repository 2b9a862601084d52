"""Recovering theta products from class invariants.

For each family (indexed by an odd degree 3, 5, 7, or 13) the ratio
x = a/b and the product y = a*b of the pair a = a(m, degree),
b = b(4m, degree) satisfy two equations whose coefficients are polynomials
in one invariant-built quantity lambda:

    degree 3:   lambda = (sqrt(2) g(3m) g(m/3))^3
    degree 5:   lambda = (g(5m) / g(m/5))^3
    degree 7:   lambda = (g(7m) / g(m/7))^2
    degree 13:  lambda =  g(13m) / g(m/13)

The equations are derived, once per process, from the P-Q relations of the
builtin catalogue, which the verifiers prove: rec5, rec7 and rec13 give the
ratio side (degree 3 has the linear x - 1/x = lambda), and quad3, quad5,
quad7 and quad13 the product side.  Each relation is a polynomial in
W = (PQ)^k + (c/PQ)^k and V = (P/Q)^j + (Q/P)^j.  Putting V = i ell and
W = +-i c^(k/2) z, with ell = lambda for degree 3 and lambda - 1/lambda
otherwise, leaves a real equation of degree at most 2 in z, where
z = x^(k/2) - x^(-k/2) on the ratio side and y^(-k/2) - y^(k/2) on the
product side.

lambda_value builds lambda at the current precision from the cheapest
available source (registry closed forms, one quad4_36 doubling step, or
direct numeric invariants).  solve_pair builds lambda, solves both equations
with bootstrap-guided branch selection and re-evaluates them at the
recovered values in one compute_checked call, and reproduce_corollary closes
the loop against the registry closed form and the definitional theta-block
evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from mpmath import mp, workdps

from .catalogue import CatalogueError, find_record, load_builtin
from .invariants import RootSelectionError, invariant_value, quad4_36_value
from .precision import (PrecisionSpec, RealValue, compute_checked, digits_agreed,
                        radius_add, radius_div, radius_sqrt)
from .products import product_value
from .radicals import (
    CorollaryRecord,
    definitional_value,
    eval_radical,
    load_builtin_registry,
    radical_value,
    registry_by_id,
    registry_find,
)
from .verify import Residual, default_tolerance, normalized_residual

FAMILIES = {"n3": 3, "n5": 5, "n7": 7, "n13": 13}
PRODUCT_KINDS = ("a", "b")


def family_for_degree(degree) -> str:
    for name, d in FAMILIES.items():
        if d == degree:
            return name
    raise ValueError(f"no family of degree {degree}; known degrees are 3, 5, 7, 13")


@dataclass(frozen=True)
class LambdaValue:
    family: str
    m: Fraction
    value: RealValue
    construction: str      # how the invariant legs were obtained


@dataclass(frozen=True)
class SolvedPair:
    family: str
    m: Fraction
    lam: LambdaValue       # lambda at the accepted attempt
    a_value: RealValue     # a(m, degree)
    b_value: RealValue     # b(4m, degree)
    ratio: RealValue       # a/b
    product: RealValue     # a*b
    residuals: tuple[Residual, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.residuals)


# ---------------------------------------------------------------------------
# lambda construction, at the current mp.dps
# ---------------------------------------------------------------------------

def _registry_product(recs, m: Fraction):
    """g(3m) g(m/3) from closed forms only; None when not tabulated."""
    hi, lo = 3 * m, m / 3
    rec = registry_find(recs, "gg", hi, lo) or registry_find(recs, "gg", lo, hi)
    if rec is not None:
        return radical_value(rec.expr), f"registry product {rec.label}"
    single_hi = registry_find(recs, "g", hi)
    single_lo = registry_find(recs, "g", lo)
    if single_hi is not None and single_lo is not None:
        value = radical_value(single_hi.expr) * radical_value(single_lo.expr)
        return value, f"registry invariants {single_hi.label} * {single_lo.label}"
    return None


def _product_leg(recs, m: Fraction):
    """g(3m) g(m/3): registry, one quad4_36 doubling step, or numeric."""
    hit = _registry_product(recs, m)
    if hit is not None:
        return hit
    sub = _registry_product(recs, m / 4)
    if sub is not None:
        below, how = sub
        return quad4_36_value(below), f"quad4_36 step on {how}"
    hi, lo = 3 * m, m / 3
    value = invariant_value("g", hi) * invariant_value("g", lo)
    return value, f"numeric invariants g({hi}) * g({lo})"


def _ratio_leg(recs, degree: int, m: Fraction):
    """g(degree*m) / g(m/degree): registry closed forms or numeric."""
    hi, lo = degree * m, m / degree
    single_hi = registry_find(recs, "g", hi)
    single_lo = registry_find(recs, "g", lo)
    if single_hi is not None and single_lo is not None:
        value = radical_value(single_hi.expr) / radical_value(single_lo.expr)
        return value, f"registry invariants {single_hi.label} / {single_lo.label}"
    value = invariant_value("g", hi) / invariant_value("g", lo)
    return value, f"numeric invariants g({hi}) / g({lo})"


_LAMBDA_POWER = {3: 3, 5: 3, 7: 2, 13: 1}


def _degree(family: str, m) -> tuple[int, Fraction]:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of "
                         f"{tuple(FAMILIES)}")
    m = Fraction(m)
    if m <= 0:
        raise ValueError("m must be positive")
    return FAMILIES[family], m


def lambda_value(family: str, m, records=None) -> LambdaValue:
    """lambda for the family at m, as a ball at the current mp.dps."""
    degree, m = _degree(family, m)
    recs = load_builtin_registry() if records is None else records
    if family == "n3":
        leg, how = _product_leg(recs, m)
        value = (RealValue.exact(2).sqrt() * leg).powi(3)
    else:
        leg, how = _ratio_leg(recs, degree, m)
        value = leg.powi(_LAMBDA_POWER[degree])
    return LambdaValue(family, m, value, how)


# ---------------------------------------------------------------------------
# the family equations, derived from the catalogue
# ---------------------------------------------------------------------------

# family -> (ratio record, product record), each (catalogue id, c, sign);
# c is a perfect square
_RECORDS = {
    "n3": (None, ("quad3", 9, -1)),
    "n5": (("rec5", 1, 1), ("quad5", 25, -1)),
    "n7": (("rec7", 1, -1), ("quad7", 49, 1)),
    "n13": (("rec13", 1, -1), ("quad13", 169, 1)),
}
# n3's ratio side has no record: z - ell = 0 with z = x - 1/x
_N3_RATIO = (2, (((0, 1), -1), ((1, 0), 1)))


def _derive(rec, c: int, sign: int):
    """(k, (((d, e), coefficient), ...)) for  sum coefficient z^d ell^e = 0:
    the relation peeled, top term first, into sum r W^d V^e (A = PQ,
    B = P/Q), then r W^d V^e -> r sign^d i^(d+e) c^(kd/2) z^d ell^e."""
    def unfit(why):
        return CatalogueError(f"identity {rec.id!r} does not give a family "
                              f"equation: {why}")

    # P^i Q^j = A^((i+j)/2) B^((i-j)/2); centre both exponents on their box
    pts = {(i + j, i - j): coef for (i, j), coef in rec.relation_poly.terms.items()}
    mid_a = min(s for s, _ in pts) + max(s for s, _ in pts)
    mid_b = min(t for _, t in pts) + max(t for _, t in pts)
    if any((2 * s - mid_a) % 4 or (2 * t - mid_b) % 4 for s, t in pts):
        raise unfit("PQ or P/Q has a non-integral centred exponent")
    terms = {((2 * s - mid_a) // 4, (2 * t - mid_b) // 4): coef
             for (s, t), coef in pts.items()}
    k = gcd(*(a for a, _ in terms))
    j = gcd(*(b for _, b in terms)) or 1
    if k == 0:
        raise unfit("PQ does not occur")

    lead = terms[max(terms)]
    reduced = {}
    while terms:
        (a, b), top = max(terms.items())
        d, e, r = a // k, b // j, top / lead
        if d < 0 or e < 0:
            raise unfit("not a polynomial in W and V")
        if r.denominator != 1:
            raise unfit(f"coefficient {r} of W^{d} V^{e} is not an integer")
        if (d + e) % 2:
            raise unfit(f"W^{d} V^{e} has odd total degree")
        if d > 2:
            raise unfit(f"degree {d} in W is above 2")
        reduced[(d, e)] = int(r) * sign ** d * (-1) ** ((d + e) // 2) * isqrt(c) ** (k * d)
        for u in range(d + 1):
            for v in range(e + 1):
                key = (k * (2 * u - d), j * (2 * v - e))
                left = terms.get(key, 0) - top * comb(d, u) * comb(e, v) * c ** (k * (d - u))
                if left:
                    terms[key] = left
                else:
                    del terms[key]
    return k, tuple(sorted(reduced.items()))


@lru_cache(maxsize=None)
def _equations() -> dict:
    """family -> (ratio equation, product equation), from the builtin catalogue."""
    recs = load_builtin()
    return {family: tuple(_N3_RATIO if spec is None
                          else _derive(find_record(recs, spec[0]), *spec[1:])
                          for spec in specs)
            for family, specs in _RECORDS.items()}


def _z_coefficients(terms, ell: RealValue) -> list[RealValue]:
    """[E_0, E_1, ...] with E_d = sum_e coefficient * ell^e."""
    powers = {e: ell.powi(e) for (_, e), _ in terms}
    out = [RealValue.exact(0)] * (max(d for (d, _), _ in terms) + 1)
    for (d, e), r in terms:
        out[d] = out[d] + RealValue.exact(r) * powers[e]
    return out


# ---------------------------------------------------------------------------
# quadratic solving
# ---------------------------------------------------------------------------

def _positive_from_diff(d: RealValue) -> RealValue:
    # x - 1/x = d  with  x > 0
    two = RealValue.exact(2)
    return (d + (d * d + RealValue.exact(4)).sqrt()) / two


def _solve_quadratic(qa: RealValue, qb: RealValue, qc: RealValue,
                     boot, what: str) -> RealValue:
    """Root of  qa z^2 = qb z + qc  nearest the bootstrap value.

    When the discriminant cannot be resolved away from zero the quadratic
    has (to working accuracy) a double root; both true roots then lie in
    an interval around qb/(2 qa) of half-width sqrt(|disc|), which is
    returned as an honest error bound.  A structurally zero discriminant
    makes the root error scale like the square root of the coefficient
    error, so meeting a budget of D digits takes lambda to about 2D digits;
    solve_pair rebuilds lambda on every attempt, and compute_checked sizes
    the next attempt for that square root.
    """
    disc = qb * qb + RealValue.exact(4) * qa * qc
    two_a = RealValue.exact(2) * qa
    tol = mp.mpf("1e-6") * max(1, abs(boot))
    if abs(disc.magnitude) <= 2 * disc.error_bound:
        center = qb / two_a
        halfwidth = radius_div(radius_sqrt(disc.abs_upper()), two_a.abs_lower())
        root = RealValue(center.magnitude, radius_add(center.error_bound, halfwidth))
        if abs(root.magnitude - boot) > tol:
            raise RootSelectionError(
                f"{what}: double root is not near the bootstrap {boot}",
                [root.magnitude])
        return root
    if disc.magnitude < 0:
        raise RootSelectionError(
            f"{what}: discriminant resolved negative ({disc.magnitude})")
    root = disc.sqrt()
    cands = sorted(((qb + root) / two_a, (qb - root) / two_a),
                   key=lambda c: abs(c.magnitude - boot))
    if abs(cands[0].magnitude - boot) > tol:
        raise RootSelectionError(
            f"{what}: neither quadratic root is near the bootstrap {boot}",
            [c.magnitude for c in cands])
    if abs(cands[1].magnitude - boot) <= tol:
        raise RootSelectionError(
            f"{what}: both quadratic roots sit at the bootstrap {boot}",
            [c.magnitude for c in cands])
    return cands[0]


def _solve_z(eq: list[RealValue], boot, what: str) -> RealValue:
    """Root of  sum_d eq[d] z^d = 0  (linear or quadratic) nearest boot."""
    if len(eq) == 2:
        return -eq[0] / eq[1]
    return _solve_quadratic(eq[2], -eq[1], -eq[0], boot, what)


def solve_pair(family: str, m, prec: PrecisionSpec, records=None) -> SolvedPair:
    """a(m, degree) and b(4m, degree) from lambda and the family equations,
    both within prec's budget."""
    degree, m = _degree(family, m)
    recs = load_builtin_registry() if records is None else records
    # single-form seeds: they only choose the quadratics' roots
    boot_spec = PrecisionSpec.of(20)
    a0 = compute_checked(boot_spec, lambda: product_value("a", m, degree)).magnitude
    b0 = compute_checked(boot_spec, lambda: product_value("b", 4 * m, degree)).magnitude
    (kx, x_terms), (ky, y_terms) = _equations()[family]
    one = RealValue.exact(1)
    solved = []

    def build() -> RealValue:
        lam = lambda_value(family, m, recs)
        # the ratio side is in z = x^(kx/2) - x^(-kx/2) with x = a/b,
        # the product side in z = y^(-ky/2) - y^(ky/2) with y = a*b
        hx0 = mp.sqrt(mp.mpf(a0) / mp.mpf(b0)) ** kx
        hy0 = mp.sqrt(mp.mpf(a0) * mp.mpf(b0)) ** ky
        ell = lam.value if family == "n3" else lam.value - one / lam.value
        x_eq = _z_coefficients(x_terms, ell)
        y_eq = _z_coefficients(y_terms, ell)
        x_z = _solve_z(x_eq, hx0 - 1 / hx0, f"{family} ratio quadratic")
        y_z = _solve_z(y_eq, 1 / hy0 - hy0, f"{family} product quadratic")
        ratio = _positive_from_diff(x_z).powf(Fraction(2, kx))
        product = _positive_from_diff(-y_z).powf(Fraction(2, ky))

        a_val = (ratio * product).sqrt()
        b_val = (product / ratio).sqrt()
        if digits_agreed(a_val.magnitude, mp.mpf(a0)) < 15:
            raise RootSelectionError(
                f"{family} solution strayed from the bootstrap: "
                f"{a_val.magnitude} vs {a0}", [a_val.magnitude, mp.mpf(a0)])

        # both equations again, at the z rebuilt from the recovered values
        hx = ratio.powf(Fraction(kx, 2))
        hy = product.powf(Fraction(ky, 2))
        tol = default_tolerance(prec)
        residuals = tuple(
            Residual.of(normalized_residual(
                [coef * z.powi(d) for d, coef in enumerate(eq)]), tol)
            for eq, z in ((x_eq, hx - one / hx), (y_eq, one / hy - hy)))
        solved[:] = [SolvedPair(family, m, lam, a_val, b_val, ratio, product, residuals)]
        # the value furthest from its budget decides whether to escalate
        return max((a_val, b_val), key=lambda v: radius_div(v.error_bound, v.magnitude))

    # 12 digits past the caller's target: reproduce_corollary counts agreeing
    # digits up to the caller's working digits, and at the caller's own target
    # 18 of run-suite's counts at 100 digits fall from 135 to 126-134
    compute_checked(PrecisionSpec.of(prec.target_digits + 12, prec.guard_digits), build)
    return solved[0]


# ---------------------------------------------------------------------------
# closing the loop against the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproduceReport:
    id: str
    record: CorollaryRecord
    pair: SolvedPair
    closed: RealValue         # registry radical
    solved: RealValue         # pipeline output
    definitional: RealValue   # theta-block evaluation
    agreement: dict           # pairwise agreeing digits
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def reproduce_ids(records=None) -> list[str]:
    recs = load_builtin_registry() if records is None else records
    return [rec.id for rec in recs if rec.kind in PRODUCT_KINDS]


def reproduce_corollary(pid: str, prec: PrecisionSpec,
                        records=None) -> ReproduceReport:
    """Three-way check of one registry product entry: closed form vs the
    quadratic pipeline vs the definitional theta-block value."""
    recs = load_builtin_registry() if records is None else records
    rec = registry_by_id(recs, pid, PRODUCT_KINDS)
    n = rec.params[1]
    family = family_for_degree(n)
    m = rec.params[0] / 4 if rec.kind == "b" else rec.params[0]

    pair = solve_pair(family, m, prec, records=recs)
    solved = pair.a_value if rec.kind == "a" else pair.b_value
    closed = eval_radical(rec.expr, prec)
    definitional = definitional_value(rec, prec)

    with workdps(prec.working_digits):
        agreement = {
            "closed_vs_solved": digits_agreed(closed.magnitude, solved.magnitude),
            "solved_vs_definitional": digits_agreed(solved.magnitude,
                                                    definitional.magnitude),
            "closed_vs_definitional": digits_agreed(closed.magnitude,
                                                    definitional.magnitude),
        }
    ok = (min(agreement.values()) >= prec.target_digits
          and all(r.passed for r in pair.residuals))
    return ReproduceReport(pid, rec, pair, closed, solved, definitional,
                           agreement, "pass" if ok else "fail")
