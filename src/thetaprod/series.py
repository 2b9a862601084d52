"""Exact formal Laurent series over the rationals on the q^(1/24) lattice.

Every fractional q-power needed by the eta-quotient catalogue (q^(1/24),
q^(1/8), q^(1/6), q^(1/4), q^(1/3), q^(1/2), q^(5/24), ...) is an integer
multiple of 1/24, so a single global lattice suffices: a stored exponent e
represents q^(e/24).

Truncation semantics: a series carries a truncation order N meaning that
coefficients at lattice exponents e <= N are exact and coefficients beyond N
are unknown (not zero).  Arithmetic propagates N soundly; in particular the
product of series with orders N1, N2 and leading exponents l1, l2 is only
trusted up to min(N1 + l2, N2 + l1).

Storage is a sparse dict from exponent to Fraction.  Multiplication is
Kronecker substitution: each operand is scaled to integer coefficients by the
lcm of its denominators, laid out as a dense list on the lattice step common
to both operands and cut at the product's order, and packed into one Python
int with a slot per coefficient; one big-int product then yields every
product coefficient at once.  The result is the same sparse dict, with the
same truncation order, that term-by-term convolution gives.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

LATTICE = 24


def _clean(coeffs: Mapping[int, Fraction], order: int) -> dict[int, Fraction]:
    return {e: Fraction(c) for e, c in coeffs.items() if c != 0 and e <= order}


@dataclass(frozen=True)
class PowerSeries:
    """Sparse Laurent series; treat instances as immutable values."""

    coeffs: dict[int, Fraction] = field(default_factory=dict)
    order: int = 0

    @staticmethod
    def from_terms(coeffs: Mapping[int, Fraction | int], order: int) -> PowerSeries:
        return PowerSeries(_clean({e: Fraction(c) for e, c in coeffs.items()}, order), order)

    @staticmethod
    def zero(order: int) -> PowerSeries:
        return PowerSeries({}, order)

    @staticmethod
    def one(order: int) -> PowerSeries:
        return PowerSeries.monomial(1, 0, order)

    @staticmethod
    def monomial(coeff: Fraction | int, exponent: int, order: int) -> PowerSeries:
        return PowerSeries.from_terms({exponent: Fraction(coeff)}, order)

    def leading_exponent(self) -> int | None:
        """Smallest stored exponent, or None when zero up to the order."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int) -> Fraction:
        if e > self.order:
            raise ValueError(f"coefficient at {e} is beyond truncation order {self.order}")
        return self.coeffs.get(e, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_nonzero(self) -> int | None:
        return self.leading_exponent()

    def __add__(self, other: PowerSeries) -> PowerSeries:
        return add(self, other)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        return sub(self, other)

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        return mul(self, other)

    def __neg__(self) -> PowerSeries:
        return PowerSeries({e: -c for e, c in self.coeffs.items()}, self.order)

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 + O(q^({self.order + 1}/{LATTICE}))"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e % LATTICE == 0:
                parts.append(f"{c}*q^{e // LATTICE}")
            else:
                parts.append(f"{c}*q^({e}/{LATTICE})")
        return " + ".join(parts) + f" + O(q^({self.order + 1}/{LATTICE}))"


# ------------------------------------------------------------------ arithmetic

def _bound_exponent(a: PowerSeries) -> int:
    # first possibly nonzero exponent: leading term, else just past the order
    lead = a.leading_exponent()
    return lead if lead is not None else a.order + 1


def add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    order = min(a.order, b.order)
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        out[e] = out.get(e, Fraction(0)) + c
    return PowerSeries(_clean(out, order), order)


def sub(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    return add(a, -b)


def scalar_mul(c: Fraction | int, a: PowerSeries) -> PowerSeries:
    c = Fraction(c)
    if c == 0:
        return PowerSeries.zero(a.order)
    return PowerSeries({e: c * v for e, v in a.coeffs.items()}, a.order)


def add_scalar(a: PowerSeries, c: Fraction | int) -> PowerSeries:
    return add(a, PowerSeries.monomial(Fraction(c), 0, a.order))


def _scaled_slots(a: PowerSeries, lead: int, step: int, last: int) -> tuple[dict[int, int], int]:
    """Coefficients at exponents up to `last`, keyed by slot (e - lead) // step
    and multiplied by the scale, the lcm of their denominators; and the scale."""
    kept = {e: c for e, c in a.coeffs.items() if e <= last}
    scale = lcm(*(c.denominator for c in kept.values()))
    return {(e - lead) // step: c.numerator * (scale // c.denominator)
            for e, c in kept.items()}, scale


def pack(slots: Mapping[int, int], width: int, length: int) -> int:
    """The integer polynomial sum of slots[i] x^i, 0 <= i < length, at
    x = 2^(8 * width): one slot of `width` bytes per coefficient, each of
    which must be less than 2^(8 * width) in absolute value.  Positive and
    negative parts are laid out as unsigned bytes separately so that signed
    values pack exactly."""
    pos, neg = bytearray(width * length), bytearray(width * length)
    for i, c in slots.items():
        if c > 0:
            pos[i * width:(i + 1) * width] = c.to_bytes(width, "little")
        else:
            neg[i * width:(i + 1) * width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Product by Kronecker substitution: both operands, scaled to integer
    coefficients on their common lattice step, are evaluated at a power of two
    wide enough that no product coefficient overflows its slot, multiplied as
    two Python ints, and the product's slots are read back."""
    la, lb = _bound_exponent(a), _bound_exponent(b)
    order = min(a.order + lb, b.order + la)
    top_exponent = order - la - lb
    if top_exponent < 0:
        # an operand is zero up to its order, so no term reaches the product
        return PowerSeries({}, order)
    step = gcd(*(e - la for e in a.coeffs), *(e - lb for e in b.coeffs)) or 1
    sa, scale_a = _scaled_slots(a, la, step, order - lb)
    sb, scale_b = _scaled_slots(b, lb, step, order - la)
    # |product coefficient| <= max|a| * max|b| * (terms in the shorter
    # operand); one more bit holds the sign, and slots are whole bytes
    bound = max(map(abs, sa.values())) * max(map(abs, sb.values())) * min(len(sa), len(sb))
    width = (bound.bit_length() + 8) // 8
    product = pack(sa, width, max(sa) + 1) * pack(sb, width, max(sb) + 1)
    # a bias of half a slot in every slot makes each slot's value nonnegative;
    # the slots up to the order then read back exactly, whatever lies above them
    slots = top_exponent // step + 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    half = 1 << (8 * width - 1)
    raw = ((product + bias) & ((1 << (8 * width * slots)) - 1)).to_bytes(width * slots, "little")
    scale = scale_a * scale_b
    out: dict[int, Fraction] = {}
    for i in range(slots):
        c = int.from_bytes(raw[i * width:(i + 1) * width], "little") - half
        if c:
            # Fraction(c) skips the gcd that Fraction(c, 1) would take
            out[la + lb + i * step] = Fraction(c) if scale == 1 else Fraction(c, scale)
    return PowerSeries(out, order)


def invert(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse; requires a nonzero series.

    With leading exponent l and order N, the inverse is sound to order N - 2l:
    the coefficient of the inverse at -l + t consumes input coefficients up to
    l + t, so t may run to N - l.

    Integral coefficients enter the recurrence as ints and 1/c0 is an int
    when c0 = +-1, so inverting an eta-quotient series builds no Fraction
    until the output is stored.
    """
    lead = a.leading_exponent()
    if lead is None:
        raise ValueError("cannot invert a series that is zero up to its truncation order")
    order = a.order - 2 * lead
    r0 = 1 / a.coeffs[lead]
    if len(a.coeffs) == 1:
        return PowerSeries.monomial(r0, -lead, order)
    if r0.denominator == 1:
        r0 = r0.numerator
    step = gcd(*(e - lead for e in a.coeffs))
    # (offset from the lead in steps, coefficient), in increasing offset
    terms = sorted(((e - lead) // step, c.numerator if c.denominator == 1 else c)
                   for e, c in a.coeffs.items() if e != lead)
    inv = [r0]
    for t in range(1, (a.order - lead) // step + 1):
        acc = 0
        for d, c in terms:
            if d > t:
                break
            acc += c * inv[t - d]
        inv.append(-acc * r0)
    out = {t * step - lead: c for t, c in enumerate(inv) if c and t * step - lead <= order}
    return PowerSeries(_clean(out, order), order)


def pow_int(a: PowerSeries, e: int) -> PowerSeries:
    if e == 0:
        return PowerSeries.one(a.order)
    if e < 0:
        return pow_int(invert(a), -e)
    result: PowerSeries | None = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    assert result is not None
    return result


def shift(a: PowerSeries, d: int) -> PowerSeries:
    """Multiply by q^(d/24): every exponent and the order move by d."""
    return PowerSeries({e + d: c for e, c in a.coeffs.items()}, a.order + d)


def scale_argument(a: PowerSeries, k: int) -> PowerSeries:
    """Substitute q -> q^k (k >= 1); exponents and order scale by k."""
    if k < 1:
        raise ValueError("scale_argument requires k >= 1")
    return PowerSeries({e * k: c for e, c in a.coeffs.items()}, a.order * k)


# ------------------------------------------------------------ theta-block series
#
# The term rules of the theta blocks, written once: each generator yields
# (n, c, next n) for the q-expansion sum c q^n of its block in increasing n,
# where next n is the exponent of the following term.  The exact series below
# cut these streams at their order; blocks.py sums them numerically.

def f_terms(sign: str):
    """f(-q) (sign="minus", Euler product (q;q)_inf, coefficient (-1)^j) or
    f(q) (sign="plus", coefficient (-1)^(j(j-1)/2)) over the generalized
    pentagonal exponents j(3j-1)/2, j = 0, 1, -1, 2, -2, ..."""
    j = 0
    while True:
        nxt = -j if j > 0 else 1 - j
        c = -1 if (j if sign == "minus" else j * (j - 1) // 2) % 2 else 1
        yield j * (3 * j - 1) // 2, c, nxt * (3 * nxt - 1) // 2
        j = nxt


def phi_terms(sign: str):
    """phi(+-q) = 1 + 2 sum_{j>=1} (+-1)^j q^(j^2)."""
    yield 0, 1, 1
    j = 1
    while True:
        yield j * j, 2 if sign == "plus" or j % 2 == 0 else -2, (j + 1) * (j + 1)
        j += 1


def psi_terms(sign: str):
    """psi(+-q) = sum_{j>=0} (+-1)^(j(j+1)/2) q^(j(j+1)/2)."""
    t, j = 0, 0
    while True:
        nxt = t + j + 1
        yield t, -1 if sign == "minus" and t % 2 else 1, nxt
        t, j = nxt, j + 1


def _cut(terms, k: int, sign: str, order: int) -> PowerSeries:
    """The stream at argument q^k, cut at its first exponent beyond order."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"unknown sign {sign!r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs: dict[int, Fraction] = {}
    for n, c, _ in terms(sign):
        if LATTICE * k * n > order:
            break
        coeffs[LATTICE * k * n] = Fraction(c)
    return PowerSeries(coeffs, order)


def series_f(k: int, sign: str, order: int) -> PowerSeries:
    """Series of f(-q^k) (sign="minus") or f(q^k) (sign="plus"), supported on
    exponents 24*k*j(3j-1)/2."""
    if k < 1:
        raise ValueError("series_f requires k >= 1")
    return _cut(f_terms, k, sign, order)


def series_phi(sign: str, order: int) -> PowerSeries:
    """phi(+-q) = 1 + 2 sum_{n>=1} (+-1)^n q^(n^2)."""
    return _cut(phi_terms, 1, sign, order)


def series_psi(sign: str, order: int) -> PowerSeries:
    """psi(+-q) = sum_{n>=0} (+-1)^(n(n+1)/2) q^(n(n+1)/2)."""
    return _cut(psi_terms, 1, sign, order)


# ------------------------------------------------------------------- self-check

@dataclass(frozen=True)
class SeriesCheck:
    ok: bool
    first_failure: int | None

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return f"fail at lattice exponent {self.first_failure}"


def check_entry24(order: int) -> SeriesCheck:
    """Coefficient-wise check of the two product identities tying f(q) to the
    other blocks: f(q)f(-q^2) = psi(-q)phi(q) and
    f(q)f(-q)f(-q^4) = f(-q^2)^3."""
    if order < 0:
        raise ValueError("order must be >= 0")
    fq = series_f(1, "plus", order)
    d1 = sub(mul(fq, series_f(2, "minus", order)),
             mul(series_psi("minus", order), series_phi("plus", order)))
    d2 = sub(mul(mul(fq, series_f(1, "minus", order)), series_f(4, "minus", order)),
             pow_int(series_f(2, "minus", order), 3))
    failures = [d.first_nonzero() for d in (d1, d2) if d.first_nonzero() is not None]
    if failures:
        return SeriesCheck(False, min(failures))
    return SeriesCheck(True, None)
