"""Tests for the numeric theta-block and eta-quotient evaluator."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from thetaprod import blocks
from thetaprod.blocks import (Nome, _sum_block, eval_block, eval_eta_quotient,
                              eval_series_at, nome)
from thetaprod.precision import PrecisionSpec, RealValue, digits_agreed, to_fixed
from thetaprod.quotient import BLOCK_KINDS, EtaQuotient
from thetaprod.series import (f_terms, mul, phi_terms, psi_terms, series_f, series_phi,
                              series_psi)

P40 = PrecisionSpec.of(40)
P60 = PrecisionSpec.of(60)


def probe(text: str) -> RealValue:
    """Decimal probe resolved well beyond any working precision used here.

    0.2 and friends are not dyadic, so an mpf made at ambient precision is a
    different real number than one made at 70 digits; building the probe once
    at 150 digits keeps every layer talking about the same point.
    """
    with workdps(150):
        return RealValue.from_fraction(Fraction(text))


def brute_block(kind, k, q, terms=400):
    """Dense reference sum straight from the series definitions."""
    x = q ** k
    if kind == "phi_plus":
        return 1 + 2 * sum(x ** (n * n) for n in range(1, terms))
    if kind == "phi_minus":
        return 1 + 2 * sum((-1) ** n * x ** (n * n) for n in range(1, terms))
    if kind == "psi_plus":
        return sum(x ** (n * (n + 1) // 2) for n in range(terms))
    if kind == "psi_minus":
        return sum((-1) ** (n * (n + 1) // 2 % 2) * x ** (n * (n + 1) // 2)
                   for n in range(terms))
    if kind == "f_minus":
        prod = mpf(1)
        for n in range(1, terms):
            prod *= 1 - x ** n
        return prod
    if kind == "f_plus":
        prod = mpf(1)
        for n in range(1, terms):
            prod *= 1 + x ** (2 * n - 1)      # chi(x)
        return prod * brute_block("f_minus", 2, q ** k)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# nome
# ---------------------------------------------------------------------------

def test_nome_reference_points():
    q11 = nome(1, 1, P60)
    with workdps(80):
        assert digits_agreed(q11.q, mp.exp(-mp.pi)) >= 60
    q23 = nome(2, 3, P60)
    assert abs(float(q23.q.magnitude) - 7.69e-2) < 1e-3
    assert q23.m == Fraction(2) and q23.n == Fraction(3)


def test_nome_square_law():
    q11 = nome(1, 1, P60)
    q41 = nome(4, 1, P60)
    with workdps(80):
        assert digits_agreed(q41.q, q11.q.powi(2)) >= 60


def test_nome_accepts_rationals_and_rejects_nonpositive():
    q = nome(Fraction(1, 3), 1, P40)
    with workdps(60):
        assert digits_agreed(q.q, mp.exp(-mp.pi / mp.sqrt(3))) >= 40
    with pytest.raises(ValueError):
        nome(0, 1, P40)
    with pytest.raises(ValueError):
        nome(1, -2, P40)


def test_nome_meets_budget():
    q = nome(2, 3, PrecisionSpec.of(100))
    assert q.q.error_bound <= mpf(10) ** -100
    assert isinstance(q, Nome)


# ---------------------------------------------------------------------------
# eval_block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", BLOCK_KINDS)
@pytest.mark.parametrize("qval", ["0.05", "0.2"])
def test_blocks_match_dense_reference(kind, qval):
    got = eval_block(kind, 1, probe(qval), P40)
    with workdps(70):
        ref = brute_block(kind, 1, mpf(1) * Fraction(qval))
        assert digits_agreed(got, ref) >= 40


def test_block_scale_argument():
    q = probe("0.3")
    direct = eval_block("psi_plus", 3, q, P40)
    with workdps(150):
        cubed = q.powi(3)
    rescaled = eval_block("psi_plus", 1, cubed, P40)
    with workdps(60):
        assert digits_agreed(direct, rescaled) >= 40


def test_block_product_identity_psi_phi():
    # f(q) f(-q^2) = psi(-q) phi(q), numerically at q = 0.3
    q = probe("0.3")
    with workdps(80):
        lhs = eval_block("f_plus", 1, q, P60) * eval_block("f_minus", 2, q, P60)
        rhs = eval_block("psi_minus", 1, q, P60) * eval_block("phi_plus", 1, q, P60)
        assert digits_agreed(lhs, rhs) >= 58


def test_block_rejects_bad_arguments():
    q = probe("0.1")
    with pytest.raises(ValueError):
        eval_block("phi", 1, q, P40)
    with pytest.raises(ValueError):
        eval_block("phi_plus", 0, q, P40)
    with pytest.raises(ValueError):
        eval_block("phi_plus", 1, RealValue.exact(mpf("1.5")), P40)


def test_block_error_bound_is_honest():
    got = eval_block("f_minus", 1, probe("0.2"), P40)
    with workdps(90):
        ref = brute_block("f_minus", 1, mpf(1) / 5, terms=900)
        assert abs(got.magnitude - ref) <= got.error_bound


def test_block_propagates_input_error():
    fuzzy = RealValue(mpf("0.2"), mpf("1e-30"))
    got = eval_block("phi_plus", 1, fuzzy, PrecisionSpec(20, 15))
    # d(phi)/dq at 0.2 is about 2, so the input error must survive in the bound
    assert got.error_bound >= mpf("1e-30")


# the primitive blocks from mpmath's q-Pochhammer symbol and Jacobi theta
# function, independent of the term streams _sum_block draws on
MPMATH_BLOCKS = {
    "f_minus": lambda x: mp.qp(x),
    "f_plus": lambda x: mp.qp(-x, -x),
    "phi_plus": lambda x: mp.jtheta(3, 0, x),
    "phi_minus": lambda x: mp.jtheta(3, 0, -x),
    "psi_plus": lambda x: mp.qp(x ** 2, x ** 2) / mp.qp(x, x ** 2),
    "psi_minus": lambda x: mp.qp(x ** 2, x ** 2) / mp.qp(-x, x ** 2),
}


@pytest.mark.parametrize("kind", MPMATH_BLOCKS)
@pytest.mark.parametrize("digits,x", [
    *((d, x) for d in (30, 200)
      for x in ("1/100", "1/4", "7/10", "95/100", "99/100")),
    (1000, "1/100"), (1000, "1/4"),
])
def test_sum_block_encloses_mpmath_value(kind, digits, x):
    # near x = 1 the alternating blocks cancel to far below 1, so the bound
    # must cover the rounding of summands much larger than the sum
    x = Fraction(x)
    with workdps(digits):
        got = _sum_block(kind, RealValue.from_fraction(x))
    with workdps(digits + 50):
        want = MPMATH_BLOCKS[kind](mpf(x.numerator) / x.denominator)
        assert abs(got.magnitude - want) <= got.error_bound


# mpmath forms for the ball oracle: those above, but psi(+-x) from theta_2
# at nome sqrt(x), since the q-Pochhammer ratio takes seconds near x = 1 at
# a thousand digits
BALL_ORACLE = {
    **MPMATH_BLOCKS,
    "psi_plus": lambda x: mp.jtheta(2, 0, mp.sqrt(x)) / (2 * mp.root(x, 8)),
    "psi_minus": lambda x: mp.jtheta(2, mp.pi / 4, mp.sqrt(x)) / (mp.sqrt(2) * mp.root(x, 8)),
}


@pytest.mark.parametrize("digits,examples", [(30, 60), (200, 30), (1000, 10)])
def test_sum_block_ball_encloses_mpmath_values(digits, examples):
    # a ball of radius up to 10^-3 x: the returned ball must hold the block
    # at both ends of the argument's ball and at its midpoint
    @settings(max_examples=examples, deadline=None, database=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(BALL_ORACLE)),
           x=st.floats(min_value=1e-6, max_value=0.99),
           spread=st.integers(0, 1000))
    def check(kind, x, spread):
        with workdps(digits):
            mid = mpf(x)
            ball = RealValue(mid, mid * spread / 10 ** 6)
            got = _sum_block(kind, ball)
        with workdps(digits + 50):
            for xi in (mid - ball.error_bound, mid, mid + ball.error_bound):
                assert abs(got.magnitude - BALL_ORACLE[kind](xi)) <= got.error_bound

    check()


def _power_bounds(x: int, g: int, wp: int, extra: int) -> tuple[int, int]:
    """Integers lo <= (x 2^-wp)^g 2^(wp + extra) <= hi, by binary powering
    in units of 2^-(wp + extra), rounding down for lo and up for hi."""
    width = wp + extra
    lo = hi = 1 << width
    base_lo = base_hi = x << extra
    while g:
        if g & 1:
            lo, hi = lo * base_lo >> width, -(-hi * base_hi >> width)
        g >>= 1
        if g:
            base_lo, base_hi = base_lo ** 2 >> width, -(-base_hi ** 2 >> width)
    return lo, hi


STREAMS = {"f": f_terms, "phi": phi_terms, "psi": psi_terms}
STREAM_NAMES = {terms: name for name, terms in STREAMS.items()}


def _kernel_sum(stream: str, sign: str, x: int, wp: int, lim: int):
    """The terms _sum_block would draw at x 2^-wp and the kernel's
    (S, A, W, F) for them."""
    xbar = blocks._up_start(x, -wp)
    drawn, _, decay = blocks._draw(STREAMS[stream](sign), xbar, lim)
    return drawn, blocks._kernel(stream, drawn, x, xbar, decay, wp)


@pytest.mark.parametrize("stream", [f_terms, phi_terms, psi_terms])
@pytest.mark.parametrize("digits", [30, 200, 1000])
def test_kernel_sum_is_within_its_allowance(stream, digits):
    # the exact sum of c x^g is held between two integers at 64 more bits,
    # off by about g of those units, far below the allowance.  The midpoint
    # rounding that _sum_block adds dominates its bound, so only this test
    # sees a kernel that rounds a few bits too coarsely
    stream = STREAM_NAMES[stream]
    rng = random.Random(digits)
    with workdps(digits):
        wp = mp.prec + blocks._GUARD_BITS
        lim = to_fixed(mpf(10) ** (3 - digits), wp).bit_length() - 1 - wp
    points = [rng.randrange(2 ** wp // 1000, 2 ** wp // 2),
              rng.randrange(9 * 2 ** wp // 10, 99 * 2 ** wp // 100),
              # x near 2^-(wp/2): the sum ends at g <= 4, with no giant steps
              rng.randrange(2 ** (wp // 2 - 20), 2 ** (wp // 2))]
    levels = []
    for x in points:
        drawn, (total, allowance, weighted, shift) = _kernel_sum(stream, "minus", x, wp, lim)
        top = drawn[-1][0]
        levels.append(top // blocks._layout(stream, top)[0])
        lo_sum = hi_sum = majorant = 0
        for g, c in drawn:
            lo, hi = _power_bounds(x, g, wp, 64)
            lo_sum += c * (lo if c > 0 else hi)
            hi_sum += c * (hi if c > 0 else lo)
            majorant += abs(c) * g * lo
        assert lo_sum - (allowance << 64) <= total << 64 <= hi_sum + (allowance << 64)
        assert allowance == 3 * sum(abs(c) * g for g, c in drawn) + 3 * levels[-1] + 2
        # W 2^-F is at least sum |c| g x^g, which is at least this sum of lo
        assert weighted << (wp + 64) >= majorant << shift
    assert levels[0] > 0 and levels[1] > levels[0] and levels[2] == 0


def _brute_residues(stream: str, m: int) -> set[int]:
    """Residues mod m of the stream's exponent formula over one period of
    its index: j^2 repeats after m values of j, j(j+1)/2 after 2m, and
    j(3j-1)/2 after 2m values of j of either sign."""
    if stream == "phi":
        return {j * j % m for j in range(m)}
    if stream == "psi":
        return {j * (j + 1) // 2 % m for j in range(2 * m)}
    return {j * (3 * j - 1) // 2 % m for j in range(-2 * m, 2 * m)}


# baby steps plus giant steps for the first 200 terms of each stream; the
# addition plans these replace formed 247 (f), 302 (phi) and 258 (psi)
KERNEL_PRODUCTS = {"f": 113, "phi": 113, "psi": 136}


@pytest.mark.parametrize("stream", [f_terms, phi_terms, psi_terms])
def test_kernel_forms_each_power_from_earlier_ones(stream):
    stream = STREAM_NAMES[stream]
    assert len(blocks._MODULI) <= 24
    for m in blocks._MODULI:
        residues = blocks._residues(stream, m)
        assert residues == _brute_residues(stream, m)
        known = {0, 1}
        for e, a, b in blocks._baby_steps(stream, m):
            assert a in known and b in known and e == a + b
            known.add(e)
        assert residues | {m} <= known
    for count in (2, 3, 30, 200):
        exponents = [g for g, _, _ in islice(STREAMS[stream]("plus"), count)]
        top = exponents[-1]
        m, steps = blocks._layout(stream, top)
        residues = blocks._residues(stream, m)
        # each term is j m + r for one level j and one residue r
        places = [divmod(g, m) for g in exponents]
        assert len(set(places)) == count
        assert all(r in residues and j * m + r == g for (j, r), g in zip(places, exponents))
        products = sum(e <= top for e, _, _ in steps) + top // m
        if count == 200:
            assert products <= KERNEL_PRODUCTS[stream]
        if count == 2:
            assert top < m and products <= 1


@pytest.mark.parametrize("kind", sorted(MPMATH_BLOCKS))
def test_sum_below_the_fixed_point_grid_is_its_first_term(kind):
    # x < 2^-wp is 0 on the grid: the sum is the g = 0 term, and its radius
    # is no more than the tail after it, cbound x / (1 - x), plus the
    # kernel's allowance for g = 0 and 1 (at most 8 units of 2^-wp) and the
    # allowance for rounding the midpoint 1 (2 * 10^(2 - dps))
    with workdps(100):
        wp = mp.prec + blocks._GUARD_BITS
        x = mpf(2) ** -(wp + 50)
        got = _sum_block(kind, RealValue.exact(x))
        assert got.magnitude == 1
        assert got.error_bound <= (2 * x / (1 - x) + 8 * mpf(2) ** -wp
                                   + 2 * mpf(10) ** -98) * (1 + mpf(2) ** -20)
    with workdps(150):
        assert abs(got.magnitude - MPMATH_BLOCKS[kind](x)) <= got.error_bound


@pytest.mark.parametrize("kind", sorted(BALL_ORACLE))
def test_sum_near_one_with_many_giant_steps_encloses_mpmath_value(kind):
    # x = 0.999 at 200 digits runs past exponent 460,000: the widest modulus
    # and hundreds of giant steps; phi(-x) and psi(-x) cancel to about 10^-255
    x = Fraction(999, 1000)
    with workdps(200):
        wp = mp.prec + blocks._GUARD_BITS
        xm = mpf(x.numerator) / x.denominator
        lim = to_fixed(mpf(10) ** -197, wp).bit_length() - 1 - wp
        drawn, _, _ = blocks._draw(STREAMS[kind.split("_")[0]](kind.split("_")[1]),
                                   blocks._up_start(*xm._mpf_[1:3]), lim)
        top = drawn[-1][0]
        assert top > 400000 and top // blocks._layout(kind.split("_")[0], top)[0] > 100
        got = _sum_block(kind, RealValue.from_fraction(x))
    with workdps(250):
        want = BALL_ORACLE[kind](mpf(x.numerator) / x.denominator)
        assert abs(got.magnitude - want) <= got.error_bound


# ---------------------------------------------------------------------------
# eval_eta_quotient
# ---------------------------------------------------------------------------

def test_empty_quotient_is_one():
    v = eval_eta_quotient(EtaQuotient.of(0, []), probe("0.1"), P40)
    assert v.magnitude == 1


def test_one_factor_quotient_is_its_block_sum():
    # a lone positive factor is the block's own ball: no multiplication by 1
    # charges a rounding to it
    q = probe("0.1")
    expr = EtaQuotient.of(0, [(1, "f_minus", 1)])
    with workdps(P40.working_digits):
        assert blocks.quotient_value(expr, q) == _sum_block("f_minus", q)


def test_quotient_matches_blockwise_product():
    q = probe("0.15")
    expr = EtaQuotient.of(Fraction(-1, 6), [(1, "f_minus", 2), (3, "f_minus", -2)])
    got = eval_eta_quotient(expr, q, P60)
    with workdps(90):
        direct = (q.powf(Fraction(-1, 6))
                  * eval_block("f_minus", 1, q, P60).powi(2)
                  * eval_block("f_minus", 3, q, P60).powi(-2))
        assert digits_agreed(got, direct) >= 58


def test_quotient_with_plus_factor():
    q = probe("0.2")
    expr = EtaQuotient.of(0, [(1, "f_plus", 1), (2, "f_minus", 1)])
    got = eval_eta_quotient(expr, q, P60)
    with workdps(90):
        direct = eval_block("f_plus", 1, q, P60) * eval_block("f_minus", 2, q, P60)
        assert digits_agreed(got, direct) >= 58


# ---------------------------------------------------------------------------
# series vs numeric consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("builder,kind", [
    (lambda o: series_f(1, "minus", o), "f_minus"),
    (lambda o: series_f(1, "plus", o), "f_plus"),
    (lambda o: series_phi("minus", o), "phi_minus"),
    (lambda o: series_psi("plus", o), "psi_plus"),
])
def test_series_evaluation_agrees_with_blocks(builder, kind):
    # q = 0.05 and lattice order 24*40 leave a truncation tail near 1e-52,
    # comfortably inside the 40-digit budget
    order = 24 * 40
    q = probe("0.05")
    via_series = eval_series_at(builder(order), q, P40)
    via_blocks = eval_block(kind, 1, q, P40)
    with workdps(70):
        assert digits_agreed(via_series, via_blocks) >= 39


def test_series_evaluation_of_product():
    order = 24 * 40
    q = probe("0.05")
    prod = mul(series_psi("minus", order), series_phi("plus", order))
    via_series = eval_series_at(prod, q, P40, coeff_bound=10)
    with workdps(70):
        direct = eval_block("psi_minus", 1, q, P40) * eval_block("phi_plus", 1, q, P40)
        assert digits_agreed(via_series, direct) >= 39
