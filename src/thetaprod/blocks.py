"""High-precision numeric evaluation of the theta building blocks and of
eta quotients, with explicit truncation-tail accounting.

Every sparse series here has integer exponents g(n) that grow quadratically
and coefficients bounded by 2 in absolute value, so for 0 < x < 1 the tail
after the n-th retained term is at most  c * x^(g(n+1)) / (1 - x).  That
bound is added to the returned error estimate rather than assumed away.

A block is summed in fixed-point integers by baby-step giant-step over
residue classes (after Enge, Hart and Johansson, "Short addition sequences
for theta functions", J. Integer Sequences 21, 2018).  With u = 2^-wp,
wp = mp.prec + _GUARD_BITS, the midpoint of x becomes X = floor(x * 2^wp).
For a modulus m, write each exponent g = jm + r with 0 <= r < m.  The
baby steps form x^r for every residue r the stream takes mod m (its
residue set, read from one period of the stream) and then Y = x^m, each
as the floored product of two earlier entries at full width,

    x^(a+b) = (x^a * x^b) >> wp,

with helpers where a residue is no sum of two known exponents.  The block
sums B_j = sum of c x^r over the terms with g = jm + r are exact integers.
Horner's rule in Y then combines them from the top level J = floor(G/m)
down, G the last exponent:

    H_J = B_J >> k_J,    H_j = (B_j >> k_j) + ((Y >> k_j) H_(j+1) >> (wp - k_(j+1))),

so level j is held in units of 2^(k_j - wp), where x^(mj) < 2^-k_j: each
level only as wide as x^(mj) needs, and the giant-step products shrink as
the levels rise.  A sum of N terms costs the baby steps plus J products
instead of about N; the modulus is the one in _MODULI that minimises baby
steps + 0.45 J, among those with m^2 <= 64 G and the smallest.  When m > G there are no levels (J = 0) and the kernel is
pure baby steps: the same code, with Horner's loop empty.

Which terms are drawn, and each k_j, come from a 64-bit chain of upper
bounds: x-bar is the midpoint rounded up to a 64-bit mantissa, products
round up, and squaring x-bar s times gives x^(2^s) < 2^-b, hence
x^n < 2^-(nb/2^s) for every n.  A sum takes its terms through the first
g > 0 with g b / 2^s >= -L, where 2^L <= 10^-(dps - 3), and k_j is
floor(mjb / 2^s), capped at wp - bits(J + 1) - bits(6m).  The same chain,
carried through the baby steps, bounds sum |c| g x^g for the radius.
Nothing of the chain needs a float; an argument below the grid (X = 0,
x < u) leaves every power but x^0 at 0 and returns the g = 0 term, since
its chain bound ends the sum at g = 1.

Rounding.  Every baby step floors, so by induction (x < 1 throughout):
  - x^1 = X u is short by less than 1 <= 3*1 - 1 units;
  - a product of x^a and x^b short by less than 3a - 1 and 3b - 1 units,
    both at most 1, is short by less than (3a - 1) + (3b - 1) + 1 =
    3(a + b) - 1 units.
So each x^r is short by less than 3r - 1 units, Y by less than 3m - 1, and
B_j u is within sum |c| (3r - 1) u of b_j = sum c x^r.  Horner's floors act
on signed values, so their error is two-sided.  Write y = x^m, s_j =
wp - k_j, h_j = H_j 2^-s_j, C_j = sum |c| over level j and C_(>j) the sum
over the levels above j.  Each level adds two floors of less than 2^-s_j,
and y^j 2^-s_j <= u because y^j < 2^-k_j.  The cap makes
2 sum 2^-s_j < 1/(3m), so |h_j| <= C_j + |h_(j+1)| + 2 * 2^-s_j gives
|h_(j+1)| < C_(>j) + 1/(3m): the truncation of Y and
(Y >> k_j) costs y^j ((3m - 1) u + 2^-s_j) |h_(j+1)| <= 3m u C_(>j) + u.
Summed over the levels, with m j + r = g,

    |H_0 u - sum c x^g| < (3 sum |c| g + 3J + 2) u.

That is the rounding allowance, plus one rounding of the midpoint to
mp.prec.  It is charged against sum |c| g and the level count, never
against the computed sum, so it stays an enclosure when an alternating sum
cancels far below its terms, as f(-x), phi(-x) and psi(-x) do for x near 1.

The radius of the argument x enters by the mean-value theorem: over the
ball, the derivative of the partial sum is at most sum |c| g x^(g-1) *
(x_hi / x)^n, x_hi the ball's upper end and n the exponent after the last
term, with sum |c| g x^g taken from the chain.  The tail is bounded at
x_hi, cbound * x_hi^n / (1 - x_hi).  The bound is rounded upward to radius
precision (precision.RADIUS_BITS); only the sum is full width.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from mpmath import mp, mpf

from .precision import (PrecisionError, PrecisionSpec, RealValue, compute_checked,
                        fixed_ball, radius_add, radius_div, radius_fixed, radius_mul,
                        radius_pow, radius_sub, rv_exp, rv_pi, to_fixed)
from .quotient import EtaQuotient
from .series import PowerSeries, f_terms, phi_terms, psi_terms

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

# the same rules by stream name, read only to find a stream's residues
_STREAMS = {"f": f_terms, "phi": phi_terms, "psi": psi_terms}

# a sum runs in units of 2^-(mp.prec + _GUARD_BITS)
_GUARD_BITS = 10

# per working precision, the exponent L with 2^L <= 10^-(dps - 3): a term
# whose power is below 2^L ends a sum
_CUTOFFS: dict[int, int] = {}

# the moduli the kernel chooses from
_MODULI = (5, 7, 9, 11, 13, 15, 16, 21, 35, 45, 48, 55, 63, 77, 105, 144,
           231, 385, 720, 1155)
# a giant step costs about this many baby steps, as its operands shrink
_GIANT_COST = 0.45


@lru_cache(maxsize=None)
def _residues(stream: str, m: int) -> frozenset[int]:
    """The residues mod m of the stream's exponents.  Each stream repeats
    mod m with a period of at most 4m + 2 terms: j^2 and j(j+1)/2 repeat
    after 2m values of j, and the pentagonal j(3j-1)/2 after 2m values of
    j and of -j."""
    return frozenset(g % m for g, _, _ in islice(_STREAMS[stream]("plus"), 4 * m + 2))


@lru_cache(maxsize=None)
def _baby_steps(stream: str, m: int) -> tuple[tuple[int, int, int], ...]:
    """Steps (e, a, b) with e = a + b that form x^e for every residue e > 1
    of the stream mod m and then for e = m, each from x^0, x^1 and earlier
    steps.  A residue that is no sum of two known exponents is formed from
    the largest known one and a helper, the difference, formed first."""
    known, steps = {0, 1}, []

    def form(e):
        if e in known:
            return
        a = next((a for a in sorted(known, reverse=True) if e - a in known), None)
        if a is None:
            a = max(k for k in known if k < e)
            form(e - a)
        steps.append((e, a, e - a))
        known.add(e)

    for e in (*sorted(_residues(stream, m)), m):
        form(e)
    return tuple(steps)


@lru_cache(maxsize=1024)
def _layout(stream: str, top: int) -> tuple[int, tuple]:
    """(m, baby steps) for a sum whose last exponent is top: the modulus
    that minimises baby steps + _GIANT_COST * (top // m).  A modulus with
    m^2 > 64 top is not tried (past the first): its residues would outweigh
    the giant steps it saves."""
    best = None
    for m in _MODULI:
        if best is not None and m * m > 64 * top:
            break
        steps = _baby_steps(stream, m)
        cost = len(steps) + _GIANT_COST * (top // m)
        if best is None or cost < best[0]:
            best = cost, m, steps
    return best[1:]


# the 64-bit chain: (M, e) stands for the upper bound M 2^-e, with
# 2^63 <= M <= 2^64, and products round up

def _up_start(man: int, exp: int) -> tuple[int, int]:
    """The chain's bound of man 2^exp, man > 0."""
    shift = man.bit_length() - 64
    return man << -shift if shift <= 0 else -(-man >> shift), -exp - shift


def _decay(xbar: tuple[int, int], lim: int) -> tuple[int, int]:
    """(b, s) with x^(2^s) < 2^-b, so that x^n < 2^-(n b / 2^s) for every
    n >= 0: xbar squared until 2^s is about 16 times the last n with
    n b / 2^s < -lim, so that n b / 2^s is within 1/16 of a bit of the
    chain's own bound.  A sum that would run past x^(2^32) fails."""
    man, e = xbar
    s = 0
    while e - man.bit_length() <= -16 * lim:
        if s == 36:
            raise PrecisionError("theta sum failed to converge")
        square = man * man
        shift = square.bit_length() - 64
        man, e, s = -(-square >> shift), 2 * e - shift, s + 1
    return e - man.bit_length(), s


def _draw(terms, xbar: tuple[int, int], lim: int):
    """([(g, c), ...], nxt, decay): the stream's terms through the first
    one whose bound 2^-(g b / 2^s) is at most 2^lim, the exponent after it,
    and the _decay (b, s) of x."""
    decay = _decay(xbar, lim)
    last = ((-lim << decay[1]) - 1) // decay[0]
    drawn = []
    for g, c, nxt in terms:
        drawn.append((g, c))
        if g > last:
            return drawn, nxt, decay


def _kernel(stream: str, terms: list[tuple[int, int]], X: int, xbar: tuple[int, int],
            decay: tuple[int, int], wp: int) -> tuple[int, int, int, int]:
    """(S, A, W, F) for terms [(g, c), ...] with ascending g from g = 0 and
    x = X u, u = 2^-wp, whose chain bound is xbar and whose _decay is decay:
    S = sum of c x^g in units of u, with |S u - sum c x^g| <= A u, and
    W 2^-F >= sum |c| g x^g."""
    top = terms[-1][0]
    m, steps = _layout(stream, top)
    # powers of x at full width, and their bounds in units of 2^-F
    F = xbar[1] + 64
    power, bound = {0: 1 << wp, 1: X}, {0: 1 << F, 1: xbar[0] << 64}
    for e, a, b in steps:
        if e <= top:
            power[e] = power[a] * power[b] >> wp
            bound[e] = -(-(bound[a] * bound[b]) >> F)
    levels = top // m
    block, weight = [0] * (levels + 1), [0] * (levels + 1)
    g_sum = 0
    for g, c in terms:
        j, r = divmod(g, m)
        if c == 1:
            block[j] += power[r]
        elif c == -1:
            block[j] -= power[r]
        else:
            block[j] += c * power[r]
        cg = abs(c) * g
        weight[j] += cg * bound[r]
        g_sum += cg
    # level j is held in units of 2^(k_j - wp), where x^(mj) < 2^-k_j
    cap = wp - (levels + 1).bit_length() - (6 * m).bit_length()
    b, s = decay
    b *= m
    k = min(levels * b >> s, cap)
    total = block[levels] >> k
    weighted = -(-weight[levels] >> k)
    y = power.get(m)
    for j in range(levels - 1, -1, -1):
        above, k = k, min(j * b >> s, cap)
        total = (block[j] >> k) + ((y >> k) * total >> (wp - above))
        weighted += -(-weight[j] >> k)
    return total, 3 * g_sum + 3 * levels + 2, weighted, F


def _sum_block(kind: str, x: RealValue) -> RealValue:
    """Sum one primitive block at argument x, 0 < x < 1, at current mp.dps."""
    stream, sign = kind.split("_")
    terms = {"f": _terms_f, "phi": _terms_phi, "psi": _terms_psi}[stream](sign)
    cbound = 1 if stream == "psi" else 2

    xm = x.magnitude
    wp = mp.prec + _GUARD_BITS
    lim = _CUTOFFS.get(mp.prec)
    if lim is None:
        lim = _CUTOFFS[mp.prec] = to_fixed(mpf(10) ** (-(mp.dps - 3)), wp).bit_length() - 1 - wp
    _, man, exp, _ = xm._mpf_
    xbar = _up_start(man, exp)
    drawn, nxt, decay = _draw(terms, xbar, lim)
    total, allowance, weighted, F = _kernel(stream, drawn, to_fixed(xm, wp), xbar, decay, wp)

    x_hi = x.abs_upper()
    # (x_hi / xm)^nxt bounds (xi / xm)^g for every xi in the ball and g <= nxt
    spread = radius_pow(radius_div(x_hi, xm), nxt)
    tail = radius_div(radius_mul(cbound, radius_pow(x_hi, nxt)), radius_sub(1, x_hi))
    # weighted 2^-F / xm bounds the sum of |c| g x^(g-1), which bounds dS/dx
    propagated = radius_mul(radius_div(radius_fixed(weighted, F), xm),
                            spread, x.error_bound)
    return fixed_ball(total, wp, radius_add(tail, propagated, radius_fixed(allowance, wp)))


def eval_block(kind: str, k: int, q: RealValue, prec: PrecisionSpec) -> RealValue:
    """One theta block at argument q^k.  Requires 0 < q < 1."""
    return eval_eta_quotient(EtaQuotient.of(0, [(k, kind, 1)]), q, prec)


def quotient_values(exprs, q: RealValue) -> list[RealValue]:
    """Eta quotients at one q, 0 < q < 1, at the current mp.dps; the empty
    quotient is 1.  Each distinct block kind(q^k), and each power q^k, is
    evaluated once for all of them; q^k is the square of q^(k/2) when that
    is needed too."""
    blocks = dict.fromkeys((f.kind, f.k) for expr in exprs for f in expr.factors)
    args: dict[int, RealValue] = {}
    for k in sorted({k for _, k in blocks}):
        args[k] = args[k // 2].powi(2) if k % 2 == 0 and k // 2 in args else q.powi(k)
    sums = {key: _sum_block(key[0], args[key[1]]) for key in blocks}
    out = []
    for expr in exprs:
        # q^q_power times the factors with positive exponents, divided once
        # by the product of the others
        top = q.powf(expr.q_power) if expr.q_power != 0 else None
        bottom = None
        for f in expr.factors:
            power = sums[f.kind, f.k].powi(abs(f.exponent))
            if f.exponent > 0:
                top = power if top is None else top * power
            else:
                bottom = power if bottom is None else bottom * power
        top = RealValue.exact(1) if top is None else top
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
